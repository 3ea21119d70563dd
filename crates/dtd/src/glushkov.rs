//! The Glushkov position tree of a content model, the one automaton for
//! membership (Definition 3's `T ⊨ D`) and 1-unambiguity (XML 1.0
//! Appendix E, lint's `XNF010`), which Brüggemann-Klein & Wood
//! characterize on the Glushkov automaton. Its leaves are the *positions*.
//!
//! * **Membership moves marks** (Fischer, Huch & Wilke, *A Play on Regular
//!   Expressions*, ICFP 2010): per symbol, a bottom-up pass finds the
//!   nodes with a marked position in their `last` set and a top-down pass
//!   moves the marks, O(|e|).
//! * **Determinism without follow sets** ([`check_deterministic`]). Let
//!   `ctx(y)` be the positions that may follow `last(y)` because of `y`'s
//!   ancestors: `ctx(root) = ∅`; a child of `|` or `?` inherits `ctx(y)`;
//!   the child `c` of `*` or `+` gets `first(c) ∪ ctx(y)`; in a sequence
//!   `e₁…e_k`, `ctx(e_k) = ctx(y)`, and `ctx(e_i)` is `first(e_{i+1})`,
//!   plus `ctx(e_{i+1})` when `e_{i+1}` is nullable. `ctx(p) = follow(p)`
//!   at a position `p`, so the model is 1-unambiguous iff `first(root)`
//!   and every `ctx(p)` hold no two positions of one symbol. One visit
//!   (sequences right to left) keeps `ctx` in a symbol table with an undo
//!   log; a non-nullable `e_{i+1}` opens a fresh scope by raising a stamp
//!   floor. The work is `Σ |first(child)|`, at most `|e|` times the
//!   nesting depth, which the parse limits bound.

use crate::regex::Regex;
use crate::UNLIMITED;
use std::collections::HashMap;
use xnf_govern::{Budget, Exhausted};

/// A content model flattened into its Glushkov positions: the expression
/// nodes in pre-order (node 0 is the root, and the children of node `i`
/// start at `i + 1`), each element name interned as a symbol.
#[derive(Debug, Clone)]
pub struct PositionTree<'a> {
    nodes: Vec<Node<'a>>,
    symbols: HashMap<&'a str, u32>,
}

#[derive(Debug, Clone, Copy)]
struct Node<'a> {
    re: &'a Regex,
    nullable: bool,
    /// One past the last node of this subtree.
    end: u32,
    /// A position's symbol; `u32::MAX` elsewhere.
    symbol: u32,
}

/// The state of a match: the positions (indexed by node) that the last
/// symbol read may have matched; `Marks::default()` is the start.
#[derive(Debug, Clone, Default)]
pub struct Marks(Option<Vec<bool>>);

/// Evidence that a content model is not 1-unambiguous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ambiguity {
    /// The element name with competing positions.
    pub symbol: String,
}

impl<'a> PositionTree<'a> {
    /// Flattens `re`, charging two units per expression node against
    /// `budget`'s memory cap, so a huge content model stops early.
    pub fn new(re: &'a Regex, budget: &Budget) -> Result<Self, Exhausted> {
        let _span = budget.recorder().span("glushkov.build", "automata");
        let mut tree = PositionTree {
            nodes: Vec::new(),
            symbols: HashMap::new(),
        };
        tree.flatten(re, budget)?;
        Ok(tree)
    }

    fn flatten(&mut self, re: &'a Regex, budget: &Budget) -> Result<(), Exhausted> {
        budget.charge("glushkov.build.node", 2)?;
        let (i, fresh) = (self.nodes.len(), self.symbols.len() as u32);
        let symbol = match re {
            Regex::Elem(name) => *self.symbols.entry(name).or_insert(fresh),
            _ => u32::MAX,
        };
        let nullable = matches!(re, Regex::Epsilon | Regex::Star(_) | Regex::Opt(_));
        self.nodes.push(Node {
            re,
            nullable,
            end: 0,
            symbol,
        });
        match re {
            Regex::Seq(parts) | Regex::Alt(parts) => {
                parts.iter().try_for_each(|p| self.flatten(p, budget))?;
            }
            Regex::Star(r) | Regex::Opt(r) | Regex::Plus(r) => self.flatten(r, budget)?,
            Regex::Epsilon | Regex::Elem(_) => {}
        }
        self.nodes[i].end = self.nodes.len() as u32;
        self.nodes[i].nullable |= match re {
            Regex::Seq(_) => self.children(i).all(|c| self.nodes[c].nullable),
            Regex::Alt(_) | Regex::Plus(_) => self.children(i).any(|c| self.nodes[c].nullable),
            _ => false,
        };
        Ok(())
    }

    /// The children of node `i`, left to right.
    fn children(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let end = self.nodes[i].end as usize;
        std::iter::successors(Some(i + 1).filter(|&c| c < end), move |&c| {
            Some(self.nodes[c].end as usize).filter(|&next| next < end)
        })
    }

    /// Reads the symbol `name`: moves `marks` onto the positions of `name`
    /// that may come next, and tells whether there are any. Once there are
    /// none (`name` outside the alphabet included), no extension of the
    /// word read is in the language.
    pub fn step(&self, marks: &mut Marks, name: &str) -> bool {
        let (symbol, next) = (self.symbols.get(name).copied(), self.next(marks));
        let marked = self.nodes.iter().zip(next);
        let marked = marked.map(|(node, n)| n && Some(node.symbol) == symbol);
        *marks = Marks(Some(marked.collect()));
        marks.0.iter().flatten().any(|&m| m)
    }

    /// Whether the word read so far belongs to the language.
    pub fn accepts(&self, marks: &Marks) -> bool {
        (marks.0.is_none() && self.nodes[0].nullable) || self.finals(marks)[0]
    }

    /// Whether `word` (a sequence of element names) belongs to the
    /// language: [`step`](Self::step) over the word, one checkpoint of
    /// `budget` per symbol, stopping at the first symbol no position takes.
    pub fn matches<'w>(
        &self,
        word: impl IntoIterator<Item = &'w str>,
        budget: &Budget,
    ) -> Result<bool, Exhausted> {
        let mut marks = Marks::default();
        for name in word {
            budget.checkpoint("glushkov.match.step")?;
            if !self.step(&mut marks, name) {
                return Ok(false);
            }
        }
        Ok(self.accepts(&marks))
    }

    /// The bottom-up pass: `finals[i]` tells whether node `i` has a
    /// marked position in its `last` set.
    fn finals(&self, marks: &Marks) -> Vec<bool> {
        let mut finals = vec![false; self.nodes.len()];
        for i in (0..self.nodes.len()).rev() {
            finals[i] = match self.nodes[i].re {
                Regex::Elem(_) => marks.0.as_ref().is_some_and(|marked| marked[i]),
                Regex::Seq(_) => self
                    .children(i)
                    .fold(false, |acc, c| finals[c] || (acc && self.nodes[c].nullable)),
                _ => self.children(i).any(|c| finals[c]),
            };
        }
        finals
    }

    /// The top-down pass: `next[i]` tells whether, after the marked
    /// positions (or at the start), the word may go on inside node `i`.
    /// At a position `q`: `q ∈ first(root)` at the start, and
    /// `q ∈ follow(p)` for a marked `p` otherwise.
    fn next(&self, marks: &Marks) -> Vec<bool> {
        let finals = self.finals(marks);
        let mut next = vec![false; self.nodes.len()];
        next[0] = marks.0.is_none();
        for i in 0..self.nodes.len() {
            let mut enter = next[i];
            for c in self.children(i) {
                next[c] = match self.nodes[i].re {
                    Regex::Star(_) | Regex::Plus(_) => enter || finals[c],
                    _ => enter,
                };
                if matches!(self.nodes[i].re, Regex::Seq(_)) {
                    enter = finals[c] || (enter && self.nodes[c].nullable);
                }
            }
        }
        next
    }

    /// Calls `f` on each position of `first(i)`.
    fn first(&self, i: usize, f: &mut impl FnMut(usize)) {
        if let Regex::Elem(_) = self.nodes[i].re {
            f(i);
        }
        for c in self.children(i) {
            self.first(c, f);
            if matches!(self.nodes[i].re, Regex::Seq(_)) && !self.nodes[c].nullable {
                break;
            }
        }
    }

    /// The first position, in position order, that `marks` may go on to
    /// and whose symbol an earlier such position has.
    fn first_repeat(&self, marks: &Marks) -> Option<Ambiguity> {
        let (next, mut seen) = (self.next(marks), vec![false; self.symbols.len()]);
        let q = (0..self.nodes.len()).find(|&q| {
            let symbol = self.nodes[q].symbol as usize;
            next[q] && symbol < seen.len() && std::mem::replace(&mut seen[symbol], true)
        })?;
        let symbol = self.nodes[q].re.to_string();
        Some(Ambiguity { symbol })
    }
}

/// Decides whether `re` is 1-unambiguous, building its position tree
/// without a budget. On failure, names the first repeat, in position
/// order, of the first offending set among `first(root)`, `follow(0)`, …:
/// the visit finds the smallest position `p` whose `ctx(p)` has a repeat,
/// and one top-down pass then reads `follow(p)`.
pub fn check_deterministic(re: &Regex) -> Result<(), Ambiguity> {
    let Ok(tree) = PositionTree::new(re, UNLIMITED) else {
        unreachable!("an unlimited budget cannot exhaust")
    };
    if let Some(ambiguity) = tree.first_repeat(&Marks::default()) {
        return Err(ambiguity);
    }
    let mut ctx = Ctx {
        slot: vec![(0, u32::MAX); tree.symbols.len()],
        ..Ctx::default()
    };
    let Some(p) = tree.visit(0, &mut ctx) else {
        return Ok(());
    };
    let marks = Marks(Some((0..tree.nodes.len()).map(|q| q == p).collect()));
    Err(tree
        .first_repeat(&marks)
        .expect("ctx(p) = follow(p) has a repeat"))
}

/// `ctx` of the node [`PositionTree::visit`] is at.
#[derive(Default)]
struct Ctx {
    /// Symbol → a position of that symbol, and the stamp of the scope that
    /// wrote it: `ctx` is the entries stamped `floor`.
    slot: Vec<(u32, u32)>,
    /// Overwritten entries, restored on leaving a subtree.
    undo: Vec<(u32, (u32, u32))>,
    /// The current scope's stamp, and the last one handed out.
    floor: u32,
    stamps: u32,
    /// The scope in which `ctx` last held two positions of one symbol: the
    /// clash is live while this is `floor`.
    clash: Option<u32>,
}

impl PositionTree<'_> {
    /// Visits the subtree at `i` with `ctx = ctx(i)`; returns its smallest
    /// position `p` whose `ctx(p)` holds two positions of one symbol.
    fn visit(&self, i: usize, ctx: &mut Ctx) -> Option<usize> {
        let saved = (ctx.undo.len(), ctx.floor, ctx.clash);
        let culprit = match self.nodes[i].re {
            Regex::Epsilon => None,
            Regex::Elem(_) => (ctx.clash == Some(ctx.floor)).then_some(i),
            Regex::Alt(_) | Regex::Opt(_) => {
                self.children(i).filter_map(|c| self.visit(c, ctx)).min()
            }
            Regex::Star(_) | Regex::Plus(_) => {
                self.add_first(i + 1, ctx);
                self.visit(i + 1, ctx)
            }
            Regex::Seq(_) => {
                let children: Vec<usize> = self.children(i).collect();
                let mut culprit = children.last().and_then(|&c| self.visit(c, ctx));
                for pair in children.windows(2).rev() {
                    if !self.nodes[pair[1]].nullable {
                        ctx.stamps += 1;
                        ctx.floor = ctx.stamps;
                    }
                    self.add_first(pair[1], ctx);
                    culprit = culprit.into_iter().chain(self.visit(pair[0], ctx)).min();
                }
                culprit
            }
        };
        let (undo, floor, clash) = saved;
        for (symbol, entry) in ctx.undo.drain(undo..).rev() {
            ctx.slot[symbol as usize] = entry;
        }
        (ctx.floor, ctx.clash) = (floor, clash);
        culprit
    }

    /// Adds `first(i)` to `ctx`, noting a clash.
    fn add_first(&self, i: usize, ctx: &mut Ctx) {
        self.first(i, &mut |p| {
            let symbol = self.nodes[p].symbol;
            let (q, stamp) = ctx.slot[symbol as usize];
            if stamp == ctx.floor && q as usize != p {
                ctx.clash = Some(ctx.floor);
            }
            ctx.undo.push((symbol, (q, stamp)));
            ctx.slot[symbol as usize] = (p as u32, ctx.floor);
        });
    }
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::{check_deterministic_by_follow_sets, deterministic_via_derivatives};
    use super::*;
    use crate::parse::parse_content_model;
    use crate::ContentModel;

    /// `re`'s membership test, ungoverned.
    fn m(re: &Regex) -> impl Fn(&[&str]) -> bool + '_ {
        let tree = PositionTree::new(re, UNLIMITED).expect("an unlimited budget");
        move |word| {
            tree.matches(word.iter().copied(), UNLIMITED)
                .expect("unlimited")
        }
    }

    fn a() -> Regex {
        Regex::elem("a")
    }
    fn b() -> Regex {
        Regex::elem("b")
    }
    fn c() -> Regex {
        Regex::elem("c")
    }

    fn re(src: &str) -> Regex {
        match parse_content_model(src).expect("content model parses") {
            ContentModel::Regex(r) => r,
            ContentModel::Text => panic!("not a regex content model"),
        }
    }

    #[test]
    fn epsilon_matches_only_empty() {
        let re = Regex::Epsilon;
        let m = m(&re);
        assert!(m(&[]));
        assert!(!m(&["a"]));
    }

    #[test]
    fn single_letter() {
        let re = a();
        let m = m(&re);
        assert!(m(&["a"]));
        assert!(!m(&[]));
        assert!(!m(&["a", "a"]));
        assert!(!m(&["b"]));
    }

    #[test]
    fn sequence() {
        let re = Regex::seq([a(), b(), c()]);
        let m = m(&re);
        assert!(m(&["a", "b", "c"]));
        assert!(!m(&["a", "b"]));
        assert!(!m(&["a", "c", "b"]));
    }

    #[test]
    fn alternation() {
        let re = Regex::alt([a(), Regex::seq([b(), c()])]);
        let m = m(&re);
        assert!(m(&["a"]));
        assert!(m(&["b", "c"]));
        assert!(!m(&["a", "b", "c"]));
        assert!(!m(&["b"]));
    }

    #[test]
    fn star() {
        let re = a().star();
        let m = m(&re);
        assert!(m(&[]));
        assert!(m(&["a"]));
        assert!(m(&["a", "a", "a", "a"]));
        assert!(!m(&["a", "b"]));
    }

    #[test]
    fn plus_and_opt() {
        let plus = a().plus();
        let m_plus = m(&plus);
        assert!(!m_plus(&[]));
        assert!(m_plus(&["a"]));
        assert!(m_plus(&["a", "a"]));
        let opt = a().opt();
        let m_opt = m(&opt);
        assert!(m_opt(&[]));
        assert!(m_opt(&["a"]));
        assert!(!m_opt(&["a", "a"]));
    }

    #[test]
    fn mixed_content_model() {
        // (a | b)*, c?, d+  — a realistic DTD content model shape.
        let re = Regex::seq([
            Regex::alt([a(), b()]).star(),
            c().opt(),
            Regex::elem("d").plus(),
        ]);
        let m = m(&re);
        assert!(m(&["d"]));
        assert!(m(&["a", "b", "a", "c", "d", "d"]));
        assert!(m(&["b", "d"]));
        assert!(!m(&["c"]));
        assert!(!m(&["a", "c", "c", "d"]));
        assert!(!m(&["d", "a"]));
    }

    #[test]
    fn governed_matching_agrees_with_ungoverned() {
        let re = Regex::seq([Regex::alt([a(), b()]).star(), c().opt()]);
        let tree = PositionTree::new(&re, UNLIMITED).unwrap();
        let generous = Budget::builder().fuel(1_000_000).build();
        for word in [&["a", "b", "c"][..], &["c", "c"][..], &[][..]] {
            assert_eq!(
                tree.matches(word.iter().copied(), &generous).unwrap(),
                tree.matches(word.iter().copied(), UNLIMITED).unwrap(),
            );
        }
    }

    #[test]
    fn governed_matching_exhausts_on_tiny_fuel() {
        let re = a().star();
        let tree = PositionTree::new(&re, UNLIMITED).unwrap();
        let budget = Budget::builder().fuel(3).build();
        let word = ["a"; 16];
        let err = tree.matches(word.iter().copied(), &budget).unwrap_err();
        assert_eq!(err.resource, xnf_govern::Resource::Fuel);
    }

    #[test]
    fn governed_build_respects_memory_cap() {
        let re = Regex::seq((0..64).map(|i| Regex::elem(format!("e{i}"))));
        assert!(PositionTree::new(&re, &Budget::builder().memory(16).build()).is_err());
        let tree = PositionTree::new(&re, &Budget::builder().memory(100_000).build()).unwrap();
        assert_eq!(
            tree.nodes.len(),
            PositionTree::new(&re, UNLIMITED).unwrap().nodes.len()
        );
    }

    #[test]
    fn the_paper_non_simple_example() {
        // <!ELEMENT a (b,b)> from Section 7.
        let re = Regex::seq([b(), b()]);
        let m = m(&re);
        assert!(m(&["b", "b"]));
        assert!(!m(&["b"]));
        assert!(!m(&["b", "b", "b"]));
    }

    #[test]
    fn faq_section_content_model() {
        // <!ELEMENT section (logo*, title, (qna+ | q+ | (p | div | section)+))>
        let re = Regex::seq([
            Regex::elem("logo").star(),
            Regex::elem("title"),
            Regex::alt([
                Regex::elem("qna").plus(),
                Regex::elem("q").plus(),
                Regex::alt([Regex::elem("p"), Regex::elem("div"), Regex::elem("section")]).plus(),
            ]),
        ]);
        let m = m(&re);
        assert!(m(&["title", "qna"]));
        assert!(m(&["logo", "logo", "title", "q", "q"]));
        assert!(m(&["title", "p", "div", "section"]));
        assert!(!m(&["title"]));
        assert!(!m(&["title", "qna", "q"]));
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

    #[test]
    fn the_visit_names_what_the_follow_sets_name() {
        // Clashes out of position order, in nested scopes, and in a
        // sequence whose fresh scope hides an outer clash.
        for src in [
            "((a, b) | (a, c))",
            "((b?, a)+, a)",
            "((c, a?, b?)*, (a | d))",
            "(((a, b?) | c)*, b)",
            "((x, (a | b)?)*, (b, y), a?, a)",
            "(s, e0?, e1?, e2?, e0)",
            "((e0?, e1?, e2?)*)",
            "(((a?, b?)+, c)*, a)",
            "((a | b)*, (c, (a | b))*)",
        ] {
            let r = re(src);
            assert_eq!(
                check_deterministic(&r),
                check_deterministic_by_follow_sets(&r),
                "{src}"
            );
        }
    }
}
