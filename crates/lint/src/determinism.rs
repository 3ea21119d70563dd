//! 1-unambiguity (determinism) of content models.
//!
//! The XML specification requires content models to be *deterministic*
//! ("1-unambiguous" in Brüggemann-Klein & Wood's terminology): while
//! matching a word left to right, the next input symbol must decide which
//! occurrence of that symbol in the expression it matches, without
//! lookahead. `(a, b) | (a, c)` is the classic violation — on seeing `a`
//! the matcher cannot know which branch it is in.
//!
//! The primary decision procedure ([`check_deterministic`]) is the classic
//! Glushkov construction: number the leaf occurrences (positions), compute
//! `first`/`last`/`follow` sets, and check that no `first` or `follow` set
//! contains two distinct positions of the same symbol — exactly the
//! condition for the Glushkov NFA to be deterministic.
//!
//! As a cross-check, the tests' `deterministic_via_derivatives` decides
//! the same property with the Brzozowski derivative engine of
//! `xnf_dtd::derivative`: mark each position uniquely, explore the
//! derivative automaton of the marked expression, and look for a state
//! with two live successors on same-symbol positions. The tests run the
//! two against each other.

use std::collections::{BTreeSet, HashSet};
use xnf_dtd::Regex;

/// Evidence that a content model is not 1-unambiguous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ambiguity {
    /// The element name with competing occurrences.
    pub symbol: String,
}

/// Decides whether `re` is 1-unambiguous (deterministic). On failure,
/// returns the symbol whose occurrences compete.
pub fn check_deterministic(re: &Regex) -> Result<(), Ambiguity> {
    let mut g = Glushkov {
        syms: Vec::new(),
        follow: Vec::new(),
    };
    let info = g.walk(re);
    g.check_set(&info.first)?;
    for follow in &g.follow {
        g.check_set(follow)?;
    }
    Ok(())
}

struct Glushkov<'a> {
    /// Position → its element name, in leaf order.
    syms: Vec<&'a str>,
    /// Position → the positions that may follow it.
    follow: Vec<BTreeSet<usize>>,
}

struct Info {
    nullable: bool,
    first: BTreeSet<usize>,
    last: BTreeSet<usize>,
}

impl<'a> Glushkov<'a> {
    fn walk(&mut self, re: &'a Regex) -> Info {
        match re {
            Regex::Epsilon => Info {
                nullable: true,
                first: BTreeSet::new(),
                last: BTreeSet::new(),
            },
            Regex::Elem(name) => {
                let p = self.syms.len();
                self.syms.push(name);
                self.follow.push(BTreeSet::new());
                Info {
                    nullable: false,
                    first: BTreeSet::from([p]),
                    last: BTreeSet::from([p]),
                }
            }
            Regex::Seq(parts) => {
                let mut acc = Info {
                    nullable: true,
                    first: BTreeSet::new(),
                    last: BTreeSet::new(),
                };
                for part in parts {
                    let info = self.walk(part);
                    for &p in &acc.last {
                        self.follow[p].extend(info.first.iter().copied());
                    }
                    if acc.nullable {
                        acc.first.extend(info.first.iter().copied());
                    }
                    if info.nullable {
                        acc.last.extend(info.last.iter().copied());
                    } else {
                        acc.last = info.last;
                    }
                    acc.nullable &= info.nullable;
                }
                acc
            }
            Regex::Alt(parts) => {
                let mut acc = Info {
                    nullable: false,
                    first: BTreeSet::new(),
                    last: BTreeSet::new(),
                };
                for part in parts {
                    let info = self.walk(part);
                    acc.nullable |= info.nullable;
                    acc.first.extend(info.first);
                    acc.last.extend(info.last);
                }
                acc
            }
            Regex::Star(inner) | Regex::Plus(inner) => {
                let info = self.walk(inner);
                for &p in &info.last {
                    self.follow[p].extend(info.first.iter().copied());
                }
                Info {
                    nullable: matches!(re, Regex::Star(_)) || info.nullable,
                    ..info
                }
            }
            Regex::Opt(inner) => {
                let info = self.walk(inner);
                Info {
                    nullable: true,
                    ..info
                }
            }
        }
    }

    /// Errors if `set` holds two distinct positions of one symbol.
    fn check_set(&self, set: &BTreeSet<usize>) -> Result<(), Ambiguity> {
        let mut seen: HashSet<&str> = HashSet::new();
        for &p in set {
            if !seen.insert(self.syms[p]) {
                return Err(Ambiguity {
                    symbol: self.syms[p].to_string(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use xnf_dtd::derivative::derivative;
    use xnf_dtd::parse::parse_content_model;
    use xnf_dtd::ContentModel;

    /// The separator used to mark positions; cannot occur in element names
    /// (the DTD parser only accepts alphanumerics and `_-.:`)
    const MARK: char = '\u{1}';

    /// Decides 1-unambiguity by exploring the Brzozowski derivative automaton
    /// of the position-marked expression. Returns `None` if the state budget
    /// is exhausted (never observed on real content models; the bound guards
    /// pathological inputs).
    fn deterministic_via_derivatives(re: &Regex) -> Option<bool> {
        const STATE_BUDGET: usize = 4096;
        let mut next = 0usize;
        let marked = mark(re, &mut next);
        let letters: Vec<String> = marked.alphabet().iter().map(|s| s.to_string()).collect();

        let mut seen: HashSet<String> = HashSet::new();
        let mut queue: Vec<Regex> = vec![aci_normal(&marked)];
        seen.insert(queue[0].to_string());
        while let Some(state) = queue.pop() {
            // Group the live successors of this state by base symbol.
            let mut live: HashMap<&str, usize> = HashMap::new();
            for letter in &letters {
                let Some(d) = derivative(&state, letter) else {
                    continue;
                };
                let base = letter.split(MARK).next().unwrap_or(letter);
                *live.entry(base).or_insert(0) += 1;
                let d = aci_normal(&d.simplified());
                let key = d.to_string();
                if seen.insert(key) {
                    if seen.len() > STATE_BUDGET {
                        return None;
                    }
                    queue.push(d);
                }
            }
            if live.values().any(|&n| n > 1) {
                return Some(false);
            }
        }
        Some(true)
    }

    /// Rebuilds `re` with each leaf occurrence made unique (`a` → `a␁k`).
    fn mark(re: &Regex, next: &mut usize) -> Regex {
        match re {
            Regex::Epsilon => Regex::Epsilon,
            Regex::Elem(name) => {
                let k = *next;
                *next += 1;
                Regex::elem(format!("{name}{MARK}{k}"))
            }
            Regex::Seq(parts) => Regex::Seq(parts.iter().map(|p| mark(p, next)).collect()),
            Regex::Alt(parts) => Regex::Alt(parts.iter().map(|p| mark(p, next)).collect()),
            Regex::Star(inner) => Regex::Star(Box::new(mark(inner, next))),
            Regex::Opt(inner) => Regex::Opt(Box::new(mark(inner, next))),
            Regex::Plus(inner) => Regex::Plus(Box::new(mark(inner, next))),
        }
    }

    /// Normalizes alternations (sorted, deduplicated) so that derivative
    /// states that differ only up to associativity/commutativity/idempotence
    /// of `|` compare equal — the classic trick that keeps the reachable
    /// derivative set finite and small.
    fn aci_normal(re: &Regex) -> Regex {
        match re {
            Regex::Epsilon | Regex::Elem(_) => re.clone(),
            Regex::Seq(parts) => Regex::Seq(parts.iter().map(aci_normal).collect()),
            Regex::Alt(parts) => {
                let mut v: Vec<Regex> = parts.iter().map(aci_normal).collect();
                v.sort_by_key(|a| a.to_string());
                v.dedup();
                if v.len() == 1 {
                    v.pop().expect("len checked")
                } else {
                    Regex::Alt(v)
                }
            }
            Regex::Star(inner) => Regex::Star(Box::new(aci_normal(inner))),
            Regex::Opt(inner) => Regex::Opt(Box::new(aci_normal(inner))),
            Regex::Plus(inner) => Regex::Plus(Box::new(aci_normal(inner))),
        }
    }

    fn re(src: &str) -> Regex {
        match parse_content_model(src).expect("content model parses") {
            ContentModel::Regex(r) => r,
            ContentModel::Text => panic!("not a regex content model"),
        }
    }

    #[test]
    fn deterministic_models_pass() {
        for src in [
            "(a)",
            "(a, b)",
            "(a | b)",
            "(a*, b)",
            "(a?, b)",
            "(a, b)+",
            "((a | b)*, c)",
            "(title, taken_by)",
            "(author+, title, booktitle)",
            "(Documentation*, InitiatingRole, RespondingRole)",
            "((x | y | z)*)",
        ] {
            assert!(check_deterministic(&re(src)).is_ok(), "{src}");
        }
    }

    #[test]
    fn ambiguous_models_fail_with_the_right_symbol() {
        for (src, sym) in [
            ("((a, b) | (a, c))", "a"),
            ("(a?, a)", "a"),
            ("(a*, a)", "a"),
            ("((a | b)*, a)", "a"),
            ("((a, b)*, a)", "a"),
            ("((b?, a)+, a)", "a"),
        ] {
            let err = check_deterministic(&re(src)).expect_err(src);
            assert_eq!(err.symbol, sym, "{src}");
        }
    }

    #[test]
    fn derivative_oracle_agrees_with_glushkov() {
        for src in [
            "(a)",
            "(a, b)",
            "(a | b)",
            "(a*, b)",
            "(a?, b)",
            "(a, b)+",
            "((a | b)*, c)",
            "((a, b) | (a, c))",
            "(a?, a)",
            "(a*, a)",
            "((a | b)*, a)",
            "((a, b)*, a)",
            "((b?, a)+, a)",
            "((a, (b | c))* , d)",
            "(x | (y, x))",
            "((a | b), (a | c))",
        ] {
            let r = re(src);
            let glushkov = check_deterministic(&r).is_ok();
            let brzozowski =
                deterministic_via_derivatives(&r).expect("state budget suffices for small models");
            assert_eq!(glushkov, brzozowski, "{src}");
        }
    }

    #[test]
    fn epsilon_is_deterministic() {
        assert!(check_deterministic(&Regex::Epsilon).is_ok());
        assert_eq!(deterministic_via_derivatives(&Regex::Epsilon), Some(true));
    }
}
