//! Regular expressions over element names — the `α` of Definition 1.
//!
//! The paper defines element type definitions as either `S` (#PCDATA) or a
//! regular expression `α ::= ε | τ | α|α | α,α | α*` over element names.
//! For faithful round-tripping of real DTD syntax we additionally keep the
//! standard abbreviations `α?` (= `α|ε`) and `α+` (= `α,α*`) as first-class
//! constructors; they also make the Section 7 classification (trivial /
//! simple expressions) syntax-directed.

use std::collections::HashSet;
use std::fmt;

/// A regular expression over element names (Definition 1).
///
/// Leaves are element *names* (strings); resolution to [`crate::ElemId`]s
/// happens when the expression is installed in a [`crate::Dtd`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Regex {
    /// The empty sequence `ε` (DTD syntax: `EMPTY`).
    Epsilon,
    /// A single element name `τ`.
    Elem(Box<str>),
    /// Concatenation `α₁, α₂, …, αₙ` (n ≥ 2).
    Seq(Vec<Regex>),
    /// Union `α₁ | α₂ | … | αₙ` (n ≥ 2).
    Alt(Vec<Regex>),
    /// Kleene closure `α*`.
    Star(Box<Regex>),
    /// Optional `α?`, an abbreviation for `α | ε`.
    Opt(Box<Regex>),
    /// One-or-more `α+`, an abbreviation for `α, α*`.
    Plus(Box<Regex>),
}

impl Regex {
    /// A leaf for the element name `name`.
    pub fn elem(name: impl Into<Box<str>>) -> Self {
        Regex::Elem(name.into())
    }

    /// Concatenation of `parts`, flattening nested sequences and dropping
    /// `ε` factors. Returns `ε` for an empty product.
    pub fn seq(parts: impl IntoIterator<Item = Regex>) -> Self {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Regex::Epsilon => {}
                Regex::Seq(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Regex::Epsilon,
            1 => out.pop().expect("len checked"),
            _ => Regex::Seq(out),
        }
    }

    /// Union of `parts`, flattening nested unions.
    ///
    /// An explicit `ε` alternative is preserved (unions with `ε` express
    /// optionality; collapsing it to [`Regex::Opt`] is done by
    /// [`Regex::simplified`], not here).
    pub fn alt(parts: impl IntoIterator<Item = Regex>) -> Self {
        let mut out = Vec::new();
        for p in parts {
            match p {
                Regex::Alt(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Regex::Epsilon,
            1 => out.pop().expect("len checked"),
            _ => Regex::Alt(out),
        }
    }

    /// Kleene closure of `self`.
    pub fn star(self) -> Self {
        match self {
            Regex::Epsilon => Regex::Epsilon,
            Regex::Star(r) => Regex::Star(r),
            Regex::Plus(r) | Regex::Opt(r) => Regex::Star(r),
            other => Regex::Star(Box::new(other)),
        }
    }

    /// `self?` — zero or one occurrence.
    pub fn opt(self) -> Self {
        match self {
            Regex::Epsilon => Regex::Epsilon,
            Regex::Star(r) => Regex::Star(r),
            Regex::Opt(r) => Regex::Opt(r),
            Regex::Plus(r) => Regex::Star(r),
            other => Regex::Opt(Box::new(other)),
        }
    }

    /// `self+` — one or more occurrences.
    pub fn plus(self) -> Self {
        match self {
            Regex::Epsilon => Regex::Epsilon,
            Regex::Star(r) => Regex::Star(r),
            Regex::Opt(r) => Regex::Star(r),
            Regex::Plus(r) => Regex::Plus(r),
            other => Regex::Plus(Box::new(other)),
        }
    }

    /// Whether the empty word belongs to the language of `self`.
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Epsilon | Regex::Star(_) | Regex::Opt(_) => true,
            Regex::Elem(_) => false,
            Regex::Seq(parts) => parts.iter().all(Regex::nullable),
            Regex::Alt(parts) => parts.iter().any(Regex::nullable),
            Regex::Plus(r) => r.nullable(),
        }
    }

    /// The *alphabet* of the expression: the set of element names occurring
    /// in it, in first-occurrence order, without duplicates.
    pub fn alphabet(&self) -> Vec<&str> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        self.visit_leaves(&mut |name| {
            if seen.insert(name) {
                out.push(name);
            }
        });
        out
    }

    /// Whether `name` occurs in the expression.
    pub fn mentions(&self, name: &str) -> bool {
        let mut found = false;
        self.visit_leaves(&mut |n| found |= n == name);
        found
    }

    /// Calls `f` on every leaf element name, left to right (with
    /// repetitions).
    pub fn visit_leaves<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            Regex::Epsilon => {}
            Regex::Elem(name) => f(name),
            Regex::Seq(parts) | Regex::Alt(parts) => {
                for p in parts {
                    p.visit_leaves(f);
                }
            }
            Regex::Star(r) | Regex::Opt(r) | Regex::Plus(r) => r.visit_leaves(f),
        }
    }

    /// Returns a copy with every occurrence of element name `from` replaced
    /// by `to`.
    pub fn rename(&self, from: &str, to: &str) -> Regex {
        match self {
            Regex::Epsilon => Regex::Epsilon,
            Regex::Elem(name) => {
                if &**name == from {
                    Regex::elem(to)
                } else {
                    Regex::Elem(name.clone())
                }
            }
            Regex::Seq(parts) => Regex::Seq(parts.iter().map(|p| p.rename(from, to)).collect()),
            Regex::Alt(parts) => Regex::Alt(parts.iter().map(|p| p.rename(from, to)).collect()),
            Regex::Star(r) => Regex::Star(Box::new(r.rename(from, to))),
            Regex::Opt(r) => Regex::Opt(Box::new(r.rename(from, to))),
            Regex::Plus(r) => Regex::Plus(Box::new(r.rename(from, to))),
        }
    }

    /// Structural simplification: collapses `α|ε` into `α?`, flattens nested
    /// sequences/unions, and normalizes iterated quantifiers. Preserves the
    /// language.
    pub fn simplified(&self) -> Regex {
        match self {
            Regex::Epsilon => Regex::Epsilon,
            Regex::Elem(n) => Regex::Elem(n.clone()),
            Regex::Seq(parts) => Regex::seq(parts.iter().map(Regex::simplified)),
            Regex::Alt(parts) => {
                let simplified: Vec<Regex> = parts.iter().map(Regex::simplified).collect();
                let has_eps = simplified.contains(&Regex::Epsilon);
                let rest: Vec<Regex> = simplified
                    .into_iter()
                    .filter(|p| *p != Regex::Epsilon)
                    .collect();
                let body = Regex::alt(rest);
                if has_eps {
                    body.opt()
                } else {
                    body
                }
            }
            Regex::Star(r) => r.simplified().star(),
            Regex::Opt(r) => r.simplified().opt(),
            Regex::Plus(r) => r.simplified().plus(),
        }
    }

    /// Number of AST nodes; used as the size measure `|D|` in the Theorem
    /// 3/4 scaling experiments.
    pub fn size(&self) -> usize {
        match self {
            Regex::Epsilon | Regex::Elem(_) => 1,
            Regex::Seq(parts) | Regex::Alt(parts) => {
                1 + parts.iter().map(Regex::size).sum::<usize>()
            }
            Regex::Star(r) | Regex::Opt(r) | Regex::Plus(r) => 1 + r.size(),
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
        // prec levels: 0 = alternation, 1 = sequence, 2 = postfix/atom
        match self {
            Regex::Epsilon => write!(f, "EMPTY"),
            Regex::Elem(name) => write!(f, "{name}"),
            Regex::Seq(parts) => {
                if prec > 1 {
                    write!(f, "(")?;
                }
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    p.fmt_prec(f, 2)?;
                }
                if prec > 1 {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Regex::Alt(parts) => {
                if prec > 0 {
                    write!(f, "(")?;
                }
                for (i, p) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    p.fmt_prec(f, 2)?;
                }
                if prec > 0 {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Regex::Star(r) => {
                r.fmt_prec(f, 3)?;
                write!(f, "*")
            }
            Regex::Opt(r) => {
                r.fmt_prec(f, 3)?;
                write!(f, "?")
            }
            Regex::Plus(r) => {
                r.fmt_prec(f, 3)?;
                write!(f, "+")
            }
        }
    }
}

impl fmt::Display for Regex {
    /// Renders in DTD content-model syntax (`(a, b*, (c | d))`); the
    /// rendering re-parses to an equal AST via
    /// [`crate::parse::parse_content_model`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a() -> Regex {
        Regex::elem("a")
    }
    fn b() -> Regex {
        Regex::elem("b")
    }

    #[test]
    fn seq_flattens_and_drops_epsilon() {
        let r = Regex::seq([a(), Regex::Epsilon, Regex::seq([b(), a()])]);
        assert_eq!(r, Regex::Seq(vec![a(), b(), a()]));
    }

    #[test]
    fn seq_of_nothing_is_epsilon() {
        assert_eq!(Regex::seq([]), Regex::Epsilon);
        assert_eq!(Regex::seq([Regex::Epsilon, Regex::Epsilon]), Regex::Epsilon);
    }

    #[test]
    fn alt_flattens() {
        let r = Regex::alt([a(), Regex::alt([b(), a()])]);
        assert_eq!(r, Regex::Alt(vec![a(), b(), a()]));
    }

    #[test]
    fn quantifier_normalization() {
        assert_eq!(a().star().star(), a().star());
        assert_eq!(a().plus().star(), a().star());
        assert_eq!(a().opt().star(), a().star());
        assert_eq!(a().star().opt(), a().star());
        assert_eq!(a().plus().opt(), a().star());
        assert_eq!(a().star().plus(), a().star());
        assert_eq!(Regex::Epsilon.star(), Regex::Epsilon);
    }

    #[test]
    fn nullable() {
        assert!(Regex::Epsilon.nullable());
        assert!(!a().nullable());
        assert!(a().star().nullable());
        assert!(a().opt().nullable());
        assert!(!a().plus().nullable());
        assert!(!Regex::seq([a().star(), b()]).nullable());
        assert!(Regex::seq([a().star(), b().opt()]).nullable());
        assert!(Regex::alt([a(), Regex::Epsilon]).nullable());
    }

    #[test]
    fn alphabet_dedups_in_order() {
        let r = Regex::seq([b(), a(), b().star()]);
        assert_eq!(r.alphabet(), vec!["b", "a"]);
        // Nested repeats keep first-occurrence order, left to right.
        let c = || Regex::elem("c");
        let r = Regex::alt([
            Regex::seq([c().opt(), a()]).star(),
            Regex::seq([b().plus(), c(), a()]),
            Regex::Epsilon,
            b(),
        ]);
        assert_eq!(r.alphabet(), vec!["c", "a", "b"]);
        // A wide model: each of many letters listed once, in order.
        let names: Vec<String> = (0..2000).map(|i| format!("e{}", i % 1000)).collect();
        let r = Regex::seq(names.iter().map(|n| Regex::elem(n.as_str()).opt())).star();
        let want: Vec<String> = (0..1000).map(|i| format!("e{i}")).collect();
        assert_eq!(r.alphabet(), want);
    }

    #[test]
    fn display_roundtrip_shapes() {
        let r = Regex::seq([a(), Regex::alt([b(), Regex::elem("c")]).star()]);
        assert_eq!(r.to_string(), "a, (b | c)*");
        let r = Regex::alt([a(), Regex::seq([b(), Regex::elem("c")])]);
        assert_eq!(r.to_string(), "a | (b, c)");
    }

    #[test]
    fn simplified_collapses_eps_alternative() {
        let r = Regex::Alt(vec![a(), Regex::Epsilon]);
        assert_eq!(r.simplified(), a().opt());
        let r = Regex::Alt(vec![a(), b(), Regex::Epsilon]);
        assert_eq!(r.simplified(), Regex::Alt(vec![a(), b()]).opt());
    }

    #[test]
    fn rename_replaces_all_occurrences() {
        let r = Regex::seq([a(), b(), a().star()]);
        let renamed = r.rename("a", "z");
        assert_eq!(renamed.alphabet(), vec!["z", "b"]);
        assert!(!renamed.mentions("a"));
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(a().size(), 1);
        assert_eq!(Regex::seq([a(), b()]).size(), 3);
        assert_eq!(a().star().size(), 2);
    }
}
