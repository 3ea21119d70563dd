//! Property tests for the DTD substrate: the two membership engines
//! (the Glushkov position tree vs Brzozowski derivatives) as differential
//! oracles, the position tree's determinism check against two reference
//! deciders, the position tree on hostile DTDs, and soundness of the
//! Section 7 simplicity classification, whose star rule reads one-letter
//! words off the syntax with the position tree as reference.

use proptest::prelude::*;
use xnf_dtd::classify::{is_trivial, simple_multiplicities, Multiplicity};
use xnf_dtd::derivative;
use xnf_dtd::glushkov::{check_deterministic, Ambiguity, PositionTree};
use xnf_dtd::{ContentModel, ParseLimits, Regex};
use xnf_govern::Budget;

/// The reference deciders of 1-unambiguity, shared with the position
/// tree's unit tests (they read `Regex` and `Ambiguity` from this module).
#[path = "../crates/dtd/src/glushkov/reference.rs"]
mod reference;

const UNLIMITED: &Budget = &Budget::unlimited();

/// Whether `word ∈ L(re)`, by the position tree.
fn member(re: &Regex, word: &[&str]) -> bool {
    PositionTree::new(re, UNLIMITED)
        .and_then(|tree| tree.matches(word.iter().copied(), UNLIMITED))
        .expect("an unlimited budget cannot exhaust")
}

/// A recursive strategy for random content-model regexes over a small
/// alphabet.
fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::Epsilon),
        prop_oneof![Just("a"), Just("b"), Just("c")].prop_map(Regex::elem),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::seq),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::alt),
            inner.clone().prop_map(Regex::star),
            inner.clone().prop_map(Regex::opt),
            inner.prop_map(Regex::plus),
        ]
    })
}

fn arb_word() -> impl Strategy<Value = Vec<&'static str>> {
    prop::collection::vec(prop_oneof![Just("a"), Just("b"), Just("c")], 0..6)
}

/// The letters of the raw generator; a word's letter 14 lies outside
/// every alphabet.
const RAW_LETTERS: [&str; 15] = [
    "e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "zz",
];

/// Raw content-model regexes, built without the flattening constructors:
/// nested and one-member `Seq`/`Alt`, ε members, up to 8 deep, over an
/// alphabet of 2–14 letters; with a word over that alphabet and one more
/// letter.
fn arb_raw_case() -> impl Strategy<Value = (Regex, Vec<&'static str>)> {
    let letter = || (0usize..14).prop_map(|i| Regex::elem(RAW_LETTERS[i]));
    let leaf = prop_oneof![Just(Regex::Epsilon), letter(), letter()];
    let shape = leaf.prop_recursive(8, 64, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..5).prop_map(Regex::Seq),
            prop::collection::vec(inner.clone(), 1..5).prop_map(Regex::Alt),
            inner.clone().prop_map(|r| Regex::Star(Box::new(r))),
            inner.clone().prop_map(|r| Regex::Opt(Box::new(r))),
            inner.prop_map(|r| Regex::Plus(Box::new(r))),
        ]
    });
    let word = prop::collection::vec(0usize..15, 0..8);
    ((2usize..15, shape), word).prop_map(|((k, re), word)| {
        let fold = |i: usize| if i == 14 { 14 } else { i % k };
        let word = word.into_iter().map(|i| RAW_LETTERS[fold(i)]).collect();
        (fold_alphabet(&re, &fold), word)
    })
}

/// `re` with each letter `eI` renamed `e{fold(I)}`.
fn fold_alphabet(re: &Regex, fold: &impl Fn(usize) -> usize) -> Regex {
    let boxed = |r: &Regex| Box::new(fold_alphabet(r, fold));
    match re {
        Regex::Epsilon => Regex::Epsilon,
        Regex::Elem(name) => {
            let i = RAW_LETTERS
                .iter()
                .position(|l| **l == **name)
                .expect("a raw letter");
            Regex::elem(RAW_LETTERS[fold(i)])
        }
        Regex::Seq(parts) => Regex::Seq(parts.iter().map(|p| fold_alphabet(p, fold)).collect()),
        Regex::Alt(parts) => Regex::Alt(parts.iter().map(|p| fold_alphabet(p, fold)).collect()),
        Regex::Star(r) => Regex::Star(boxed(r)),
        Regex::Opt(r) => Regex::Opt(boxed(r)),
        Regex::Plus(r) => Regex::Plus(boxed(r)),
    }
}

/// The paper's three DTDs, whose truncations and one-byte mutations the
/// hostile-DTD property parses.
const PAPER_DTDS: [&str; 3] = [
    include_str!("../examples/specs/university.dtd"),
    include_str!("../examples/specs/dblp.dtd"),
    include_str!("../examples/specs/ebxml.dtd"),
];

/// The bytes a one-byte mutation writes: DTD punctuation, whitespace and
/// name bytes.
const MUTATION_BYTES: &[u8] = b"()|,?*+<>!#\" -a0";

/// `<!ELEMENT r model>` plus an `EMPTY` declaration for each name in
/// `names`.
fn declare(model: &str, names: impl IntoIterator<Item = String>) -> String {
    let mut src = format!("<!ELEMENT r {model}>\n");
    for name in names {
        src.push_str(&format!("<!ELEMENT {name} EMPTY>\n"));
    }
    src
}

/// DTDs aimed at the position tree: nullable groups nested 63–65 deep
/// (the untrusted limit is 64), `(a | a | …)*`, long runs of optional
/// members with one letter repeated at a random place (one member
/// required, the run sometimes starred), and truncations and one-byte
/// mutations of the paper DTDs.
fn arb_hostile_dtd() -> impl Strategy<Value = String> {
    let abc = || ["a", "b", "c"].map(String::from);
    prop_oneof![
        (63usize..66, prop::collection::vec(0usize..4, 65)).prop_map(move |(depth, wraps)| {
            let mut model = String::from("a?");
            for wrap in &wraps[..depth] {
                model = match wrap {
                    0 => format!("({model})?"),
                    1 => format!("({model}, b?)"),
                    2 => format!("({model} | c)*"),
                    _ => format!("(b?, {model})"),
                };
            }
            declare(&model, abc())
        }),
        (2usize..200)
            .prop_map(move |n| declare(&format!("({})*", vec!["a"; n].join(" | ")), abc())),
        ((1usize..160, 0usize..160), (0usize..160, 0usize..320)).prop_map(
            |((n, repeat), (at, required))| {
                let mut members: Vec<String> = (0..n).map(|i| format!("e{i}?")).collect();
                members[at % n] = members[repeat % n].clone();
                if required < n {
                    members[required].pop();
                }
                let run = format!("({})", members.join(", "));
                let model = if required % 2 == 0 {
                    format!("{run}*")
                } else {
                    run
                };
                declare(&model, (0..n).map(|i| format!("e{i}")))
            }
        ),
        ((0usize..3, 0usize..2000), 0usize..=MUTATION_BYTES.len()).prop_map(
            |((spec, at), byte)| {
                let mut src = PAPER_DTDS[spec].as_bytes().to_vec();
                if byte == MUTATION_BYTES.len() {
                    src.truncate(at % (src.len() + 1));
                } else {
                    let at = at % src.len();
                    src[at] = MUTATION_BYTES[byte];
                }
                String::from_utf8(src).expect("ASCII stays UTF-8")
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// XNF010's decision on raw expressions: the position tree names the
    /// symbol that the `BTreeSet` follow-set construction names, and its
    /// verdict is the derivative exploration's whenever that one answers;
    /// its membership is the derivative engine's.
    #[test]
    fn determinism_and_membership_match_the_references((re, word) in arb_raw_case()) {
        let verdict = check_deterministic(&re);
        prop_assert_eq!(
            &verdict,
            &reference::check_deterministic_by_follow_sets(&re),
            "the follow sets decide {} otherwise", re
        );
        if let Some(deterministic) = reference::deterministic_via_derivatives(&re) {
            prop_assert_eq!(verdict.is_ok(), deterministic, "the derivatives decide {} otherwise", re);
        }
        prop_assert_eq!(
            member(&re, &word),
            derivative::matches(&re, word.iter().copied(), UNLIMITED).unwrap(),
            "engines disagree on {} vs {:?}", re, word
        );
    }

    /// Hostile DTDs under the untrusted parse limits: the parse returns a
    /// DTD or a `DtdError` and never panics; on a DTD, every content
    /// model's position tree builds, decides determinism as the follow-set
    /// reference does, and accepts the model's shortest word.
    #[test]
    fn position_tree_on_hostile_dtds(src in arb_hostile_dtd()) {
        let Ok(dtd) = xnf_dtd::parse_dtd_governed(&src, ParseLimits::untrusted(), UNLIMITED) else {
            return Ok(());
        };
        for e in dtd.elements() {
            let ContentModel::Regex(re) = dtd.content(e) else {
                continue;
            };
            let tree = PositionTree::new(re, UNLIMITED);
            prop_assert!(tree.is_ok(), "no position tree for {}", re);
            let tree = tree.unwrap();
            let expected = reference::check_deterministic_by_follow_sets(re);
            prop_assert_eq!(check_deterministic(re), expected, "determinism of {}", re);
            let w = derivative::shortest_word(re);
            prop_assert!(
                tree.matches(w.iter().map(String::as_str), UNLIMITED).unwrap(),
                "{:?} is not in L({})", w, re
            );
        }
    }

    /// The position tree and the derivative engine agree on every
    /// (regex, word).
    #[test]
    fn position_tree_and_derivatives_agree(re in arb_regex(), word in arb_word()) {
        prop_assert_eq!(
            member(&re, &word),
            derivative::matches(&re, word.iter().copied(), UNLIMITED).unwrap(),
            "engines disagree on {} vs {:?}", re, word
        );
    }

    /// `simplified()` preserves the language (checked via the position
    /// tree on random words).
    #[test]
    fn simplified_preserves_language(re in arb_regex(), word in arb_word()) {
        let s = re.simplified();
        prop_assert_eq!(
            member(&re, &word),
            member(&s, &word),
            "simplification changed the language: {} vs {}", re, s
        );
    }

    /// Display → parse preserves the language for *simplified*
    /// expressions (DTD syntax has no ε literal inside expressions; the
    /// simplifier rewrites interior ε into `?`, matching how real DTDs
    /// are written).
    #[test]
    fn regex_display_parse_roundtrip(raw in arb_regex()) {
        let re = raw.simplified();
        let text = re.to_string(); // "EMPTY" for ε, content-model syntax otherwise
        let cm = xnf_dtd::parse::parse_content_model(&text).unwrap();
        let reparsed = cm.as_regex().cloned().unwrap_or(Regex::Epsilon);
        // Compare languages on a deterministic word set rather than ASTs
        // (parentheses flattening may regroup).
        for word in [
            vec![], vec!["a"], vec!["b"], vec!["a", "a"], vec!["a", "b"],
            vec!["b", "a"], vec!["a", "b", "c"], vec!["c", "c"],
        ] {
            prop_assert_eq!(
                member(&re, &word),
                member(&reparsed, &word),
                "roundtrip changed the language of {}", re
            );
        }
    }

    /// Soundness of the simplicity test: when `simple_multiplicities`
    /// answers, every word of the language respects the per-letter
    /// multiplicity intervals.
    #[test]
    fn simplicity_is_sound(re in arb_regex(), word in arb_word()) {
        if let Some(m) = simple_multiplicities(&re) {
            if member(&re, &word) {
                for letter in ["a", "b", "c"] {
                    let count = word.iter().filter(|w| **w == letter).count();
                    match m.get(letter) {
                        None => prop_assert_eq!(count, 0, "{} not in the trivial form of {}", letter, re),
                        Some(Multiplicity::One) => prop_assert_eq!(count, 1),
                        Some(Multiplicity::Opt) => prop_assert!(count <= 1),
                        Some(Multiplicity::Plus) => prop_assert!(count >= 1),
                        Some(Multiplicity::Star) => {}
                    }
                }
            }
        }
    }

    /// Completeness on the trivial fragment: syntactically trivial
    /// expressions are always recognized as simple, with the syntactic
    /// multiplicities.
    #[test]
    fn trivial_expressions_are_simple(
        shape in prop::collection::vec(0usize..4, 1..4)
    ) {
        let letters = ["a", "b", "c"];
        let parts: Vec<Regex> = shape
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let leaf = Regex::elem(letters[i]);
                match q {
                    0 => leaf,
                    1 => leaf.opt(),
                    2 => leaf.star(),
                    _ => leaf.plus(),
                }
            })
            .collect();
        let re = Regex::seq(parts.clone());
        prop_assert!(is_trivial(&re) || parts.len() == 1);
        let m = simple_multiplicities(&re).expect("trivial implies simple");
        for (i, &q) in shape.iter().enumerate() {
            let expected = match q {
                0 => Multiplicity::One,
                1 => Multiplicity::Opt,
                2 => Multiplicity::Star,
                _ => Multiplicity::Plus,
            };
            prop_assert_eq!(m[&Box::from(letters[i])], expected);
        }
    }

    /// The star rule: `r*` is simple, with every letter `Star`, exactly
    /// when each letter of `r` is itself a one-letter word of `L(r)` — the
    /// membership the classifier reads off the syntax, here asked of the
    /// position tree.
    #[test]
    fn star_boxes_match_one_letter_membership(re in arb_regex()) {
        let letters = re.alphabet();
        let expected = letters.iter().all(|a| member(&re, &[*a]));
        let full_star_box = simple_multiplicities(&re.clone().star()).is_some_and(|m| {
            m.len() == letters.len() && m.values().all(|&v| v == Multiplicity::Star)
        });
        prop_assert_eq!(full_star_box, expected, "star box of ({})*", re);
    }

    /// `shortest_word` always produces a member of the language.
    #[test]
    fn shortest_word_is_always_a_member(re in arb_regex()) {
        let w = derivative::shortest_word(&re);
        let refs: Vec<&str> = w.iter().map(String::as_str).collect();
        prop_assert!(
            member(&re, &refs),
            "{:?} is not in L({})", w, re
        );
    }
}

fn star_box(content_model: &str) -> Option<Vec<Multiplicity>> {
    let cm = xnf_dtd::parse::parse_content_model(content_model).unwrap();
    let m = simple_multiplicities(cm.as_regex().unwrap())?;
    Some(m.into_values().collect())
}

#[test]
fn star_box_cases() {
    assert_eq!(
        star_box("((a | b | c)*)"),
        Some(vec![Multiplicity::Star; 3])
    );
    assert_eq!(star_box("((a?, b?)*)"), Some(vec![Multiplicity::Star; 2]));
    assert_eq!(star_box("((a, b)*)"), None);
    assert_eq!(star_box("((a, b?)*)"), None);
    // The hostile-schema probe: one starred sequence of 4000 optional
    // letters.
    let letters: Vec<String> = (0..4000).map(|i| format!("e{i}?")).collect();
    let hostile = star_box(&format!("(({})*)", letters.join(", "))).unwrap();
    assert_eq!(hostile, vec![Multiplicity::Star; 4000]);
}

#[test]
fn multiplicity_helpers() {
    assert!(Multiplicity::Opt.optional());
    assert!(Multiplicity::Star.optional());
    assert!(!Multiplicity::One.optional());
    assert!(!Multiplicity::Plus.optional());
    assert!(Multiplicity::Star.repeatable());
    assert!(Multiplicity::Plus.repeatable());
    assert!(!Multiplicity::Opt.repeatable());
}
