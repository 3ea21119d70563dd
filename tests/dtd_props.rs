//! Property tests for the DTD substrate: the two membership engines
//! (Thompson NFA vs Brzozowski derivatives) as differential oracles, and
//! soundness of the Section 7 simplicity classification, whose star rule
//! reads one-letter words off the syntax with the NFA as reference.

use proptest::prelude::*;
use xnf_dtd::classify::{is_trivial, simple_multiplicities, Multiplicity};
use xnf_dtd::derivative;
use xnf_dtd::nfa::Matcher;
use xnf_dtd::Regex;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The NFA and the derivative engine agree on every (regex, word).
    #[test]
    fn nfa_and_derivatives_agree(re in arb_regex(), word in arb_word()) {
        let nfa = Matcher::new(&re);
        prop_assert_eq!(
            nfa.matches(word.iter().copied()),
            derivative::matches(&re, word.iter().copied()),
            "engines disagree on {} vs {:?}", re, word
        );
    }

    /// `simplified()` preserves the language (checked via the NFA on
    /// random words).
    #[test]
    fn simplified_preserves_language(re in arb_regex(), word in arb_word()) {
        let s = re.simplified();
        prop_assert_eq!(
            Matcher::new(&re).matches(word.iter().copied()),
            Matcher::new(&s).matches(word.iter().copied()),
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
                Matcher::new(&re).matches(word.iter().copied()),
                Matcher::new(&reparsed).matches(word.iter().copied()),
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
            if Matcher::new(&re).matches(word.iter().copied()) {
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
    /// NFA.
    #[test]
    fn star_boxes_match_one_letter_membership(re in arb_regex()) {
        let letters = re.alphabet();
        let nfa = Matcher::new(&re);
        let expected = letters.iter().all(|a| nfa.matches([*a]));
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
            Matcher::new(&re).matches(refs.iter().copied()),
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
