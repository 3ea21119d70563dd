//! Reference deciders of 1-unambiguity for the tests: the classic Glushkov
//! construction with every `follow` set materialized, and an exploration
//! of the derivative automaton of the position-marked expression.
//!
//! The position tree's unit tests and `tests/dtd_props.rs` use them; the
//! latter includes this file by path. The including module's parent
//! provides `Regex` and `Ambiguity`, its crate root the `derivative`
//! module.

use super::{Ambiguity, Regex};
use crate::derivative::derivative;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Decides 1-unambiguity the classic way: number the positions, compute
/// `first`/`last`/`follow` sets, and check that no `first` or `follow`
/// set holds two distinct positions of one symbol. Names the first repeat
/// of the first offending set among `first(root)`, `follow(0)`, ….
pub fn check_deterministic_by_follow_sets(re: &Regex) -> Result<(), Ambiguity> {
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

/// The separator used to mark positions; cannot occur in element names
/// (the DTD parser only accepts alphanumerics and `_-.:`)
const MARK: char = '\u{1}';

/// Decides 1-unambiguity by exploring the Brzozowski derivative automaton
/// of the position-marked expression. Returns `None` if the state budget
/// is exhausted (never observed on real content models; the bound guards
/// pathological inputs).
pub fn deterministic_via_derivatives(re: &Regex) -> Option<bool> {
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
