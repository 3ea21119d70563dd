//! A second, independent membership engine: Brzozowski derivatives.
//!
//! `Matcher` (the Thompson NFA of [`crate::nfa`]) is the engine used by
//! conformance checking; this module decides the same membership question
//! by rewriting the expression — `w ∈ L(r)` iff the derivative of `r` by
//! `w` is nullable. The two implementations share no code, which makes
//! them ideal differential-testing oracles for each other (see the
//! property tests here and in `tests/`).
//!
//! Derivatives also power [`shortest_word`], used by generators and tests
//! to produce guaranteed members of a content model's language.

use crate::regex::Regex;
use crate::UNLIMITED;
use xnf_govern::{Budget, Exhausted};

/// The Brzozowski derivative `∂_a r`: a regex whose language is
/// `{ w : a·w ∈ L(r) }`. `None` stands for the empty language `∅`
/// (Definition 1 regexes cannot denote `∅`, but derivatives can).
pub fn derivative(re: &Regex, a: &str) -> Option<Regex> {
    match re {
        Regex::Epsilon => None,
        Regex::Elem(n) => {
            if &**n == a {
                Some(Regex::Epsilon)
            } else {
                None
            }
        }
        Regex::Seq(parts) => {
            // ∂(r₁ r₂ … rₙ) = ∂r₁ · r₂…rₙ  ∪  (if r₁ nullable) ∂(r₂…rₙ)
            let (first, rest) = parts.split_first().expect("Seq is non-empty");
            let rest_re = Regex::seq(rest.iter().cloned());
            let left = derivative(first, a).map(|d| Regex::seq([d, rest_re.clone()]));
            let right = if first.nullable() {
                derivative(&rest_re, a)
            } else {
                None
            };
            union_opt(left, right)
        }
        Regex::Alt(parts) => parts.iter().map(|p| derivative(p, a)).fold(None, union_opt),
        Regex::Star(r) => derivative(r, a).map(|d| Regex::seq([d, r.as_ref().clone().star()])),
        Regex::Opt(r) => derivative(r, a),
        Regex::Plus(r) => derivative(r, a).map(|d| Regex::seq([d, r.as_ref().clone().star()])),
    }
}

fn union_opt(a: Option<Regex>, b: Option<Regex>) -> Option<Regex> {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(a), Some(b)) => Some(Regex::alt([a, b])),
    }
}

/// Membership by iterated derivatives: `w ∈ L(re)` iff `∂_w re` is
/// nullable.
pub fn matches<'a>(re: &Regex, word: impl IntoIterator<Item = &'a str>) -> bool {
    match matches_governed(re, word, UNLIMITED) {
        Ok(b) => b,
        Err(_) => unreachable!("an unlimited budget cannot exhaust"),
    }
}

/// [`matches`](fn@matches) under a resource [`Budget`]: each derivative
/// step spends one checkpoint and charges the intermediate expression's
/// size against the memory cap (Brzozowski derivatives can grow large on
/// adversarial expressions before simplification tames them).
pub fn matches_governed<'a>(
    re: &Regex,
    word: impl IntoIterator<Item = &'a str>,
    budget: &Budget,
) -> Result<bool, Exhausted> {
    let _span = budget.recorder().span("derivative.check", "automata");
    let mut current = re.clone();
    for a in word {
        budget.checkpoint("derivative.step")?;
        match derivative(&current, a) {
            Some(d) => {
                current = d.simplified();
                budget.charge("derivative.size", current.size() as u64)?;
            }
            None => return Ok(false),
        }
    }
    Ok(current.nullable())
}

/// Produces the length-lexicographically first member of `L(re)` with at
/// most `budget` quantifier unrollings — a guaranteed member of the
/// language, used to build minimal conforming documents.
pub fn shortest_word(re: &Regex) -> Vec<String> {
    fn go(re: &Regex, out: &mut Vec<String>) {
        match re {
            Regex::Epsilon | Regex::Star(_) | Regex::Opt(_) => {}
            Regex::Elem(n) => out.push(n.to_string()),
            Regex::Seq(parts) => {
                for p in parts {
                    go(p, out);
                }
            }
            Regex::Alt(parts) => {
                // Pick the alternative with the shortest minimal word.
                let best = parts
                    .iter()
                    .min_by_key(|p| min_len(p))
                    .expect("Alt is non-empty");
                go(best, out);
            }
            Regex::Plus(r) => go(r, out),
        }
    }
    fn min_len(re: &Regex) -> usize {
        match re {
            Regex::Epsilon | Regex::Star(_) | Regex::Opt(_) => 0,
            Regex::Elem(_) => 1,
            Regex::Seq(parts) => parts.iter().map(min_len).sum(),
            Regex::Alt(parts) => parts.iter().map(min_len).min().unwrap_or(0),
            Regex::Plus(r) => min_len(r),
        }
    }
    let mut out = Vec::new();
    go(re, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::Matcher;
    use crate::parse::parse_content_model;
    use crate::ContentModel;

    fn re(s: &str) -> Regex {
        match parse_content_model(s).unwrap() {
            ContentModel::Regex(r) => r,
            ContentModel::Text => panic!("expected a regex"),
        }
    }

    fn agree(r: &Regex, word: &[&str]) {
        let nfa = Matcher::new(r);
        assert_eq!(
            nfa.matches(word.iter().copied()),
            matches(r, word.iter().copied()),
            "engines disagree on {r} vs {word:?}"
        );
    }

    #[test]
    fn engines_agree_on_hand_picked_cases() {
        let cases = [
            (
                "(a, b?, c*)",
                vec![vec!["a"], vec!["a", "b"], vec!["a", "c", "c"], vec!["b"]],
            ),
            ("((a | b)+)", vec![vec![], vec!["a"], vec!["b", "a", "b"]]),
            (
                "((a, b) | c)",
                vec![vec!["a", "b"], vec!["c"], vec!["a"], vec!["a", "b", "c"]],
            ),
            (
                "(a, a)",
                vec![vec!["a"], vec!["a", "a"], vec!["a", "a", "a"]],
            ),
            (
                "(logo*, title, (qna+ | q+ | (p | div | section)+))",
                vec![
                    vec!["title", "qna"],
                    vec!["logo", "title", "p", "div"],
                    vec!["title"],
                    vec!["qna"],
                ],
            ),
        ];
        for (expr, words) in cases {
            let r = re(expr);
            for w in words {
                agree(&r, &w);
            }
        }
    }

    #[test]
    fn exhaustive_small_alphabet_agreement() {
        // All words over {a, b} up to length 4, against a set of shapes.
        let shapes = [
            "(a*, b*)",
            "((a | b)*)",
            "((a, b)*)",
            "(a?, b, a?)",
            "((a, a) | b)",
            "(a+, b?)",
            "((a | (b, a))*)",
        ];
        let alphabet = ["a", "b"];
        for shape in shapes {
            let r = re(shape);
            for len in 0..=4usize {
                let mut word = vec![0usize; len];
                loop {
                    let w: Vec<&str> = word.iter().map(|&i| alphabet[i]).collect();
                    agree(&r, &w);
                    // Increment in base 2.
                    let mut i = 0;
                    loop {
                        if i == len {
                            break;
                        }
                        word[i] += 1;
                        if word[i] < alphabet.len() {
                            break;
                        }
                        word[i] = 0;
                        i += 1;
                    }
                    if i == len {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn shortest_word_is_a_member() {
        for shape in [
            "(a, b?, c*)",
            "((a | b)+)",
            "((a, b) | c)",
            "(x, (p | q), y*)",
            "(a+, (b | (c, d)))",
        ] {
            let r = re(shape);
            let w = shortest_word(&r);
            let refs: Vec<&str> = w.iter().map(String::as_str).collect();
            assert!(
                matches(&r, refs.iter().copied()),
                "{w:?} should match {shape}"
            );
            assert!(Matcher::new(&r).matches(refs.iter().copied()));
        }
    }

    #[test]
    fn governed_derivative_matching_agrees_and_exhausts() {
        let r = re("((a | b)*, c?)");
        let generous = Budget::builder().fuel(10_000).build();
        for w in [&["a", "b", "c"][..], &["c", "a"][..], &[][..]] {
            assert_eq!(
                matches_governed(&r, w.iter().copied(), &generous).unwrap(),
                matches(&r, w.iter().copied()),
            );
        }
        let tiny = Budget::builder().fuel(2).build();
        let long = ["a"; 32];
        let err = matches_governed(&r, long.iter().copied(), &tiny).unwrap_err();
        assert_eq!(err.resource, xnf_govern::Resource::Fuel);
    }

    #[test]
    fn derivative_of_empty_language_paths() {
        assert!(derivative(&Regex::Epsilon, "a").is_none());
        assert!(derivative(&re("(b)"), "a").is_none());
        assert!(matches(&re("(a*)"), []));
        assert!(!matches(&re("(a+)"), []));
    }
}
