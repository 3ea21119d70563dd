//! Section 7 — classifying content models: trivial and *simple* regular
//! expressions, simple disjunctions, disjunctive DTDs, and the complexity
//! measure `N_D` of Theorem 4.
//!
//! A regular expression is **trivial** if it is `s₁, …, sₙ` where each `sᵢ`
//! is `aᵢ`, `aᵢ?`, `aᵢ*` or `aᵢ⁺` with pairwise-distinct letters. An
//! expression `s` is **simple** if some trivial `s'` has the same language
//! up to permutation of words. Equivalently (and this is how we decide it):
//! the Parikh image of `L(s)` equals a product of per-letter intervals, one
//! of `[1,1]`, `[0,1]`, `[0,∞]`, `[1,∞]`.
//!
//! We compute the Parikh image bottom-up in an *exact-box* domain: each
//! sub-expression either yields its exact Parikh set as a box (product of
//! integer intervals) or `None`. Every rule is exact, so a `Some` answer is
//! always correct. A `None` answer means "not expressible as a box by this
//! syntax-directed analysis"; for unions of three or more boxes that only
//! combine into a box jointly (e.g. `(ε|a|b|ab)`, which no real-world DTD
//! writes instead of `a?, b?`) the analysis is conservative. This matches
//! the paper, which defines simplicity semantically and observes that
//! practical DTDs are written in the simple shape directly.

use crate::dtd::{ContentModel, Dtd};
use crate::regex::Regex;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
use std::fmt;

/// How many times a letter may occur in words of a simple expression — the
/// four per-letter shapes of a trivial regular expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Multiplicity {
    /// Exactly once (`a`).
    One,
    /// At most once (`a?`).
    Opt,
    /// Any number of times (`a*`).
    Star,
    /// At least once (`a⁺`).
    Plus,
}

impl Multiplicity {
    /// Whether a word may contain zero occurrences of the letter.
    pub fn optional(self) -> bool {
        matches!(self, Multiplicity::Opt | Multiplicity::Star)
    }

    /// Whether a word may contain two or more occurrences of the letter.
    pub fn repeatable(self) -> bool {
        matches!(self, Multiplicity::Star | Multiplicity::Plus)
    }
}

impl fmt::Display for Multiplicity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Multiplicity::One => Ok(()),
            Multiplicity::Opt => write!(f, "?"),
            Multiplicity::Star => write!(f, "*"),
            Multiplicity::Plus => write!(f, "+"),
        }
    }
}

/// An integer interval `[lo, hi]` with `hi = None` meaning `∞`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Iv {
    lo: u64,
    hi: Option<u64>,
}

impl Iv {
    const ZERO: Iv = Iv { lo: 0, hi: Some(0) };
    const ONE: Iv = Iv { lo: 1, hi: Some(1) };

    fn add(self, other: Iv) -> Iv {
        Iv {
            lo: self.lo + other.lo,
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            },
        }
    }

    fn contains_iv(self, other: Iv) -> bool {
        self.lo <= other.lo
            && match (self.hi, other.hi) {
                (None, _) => true,
                (Some(_), None) => false,
                (Some(a), Some(b)) => b <= a,
            }
    }

    /// Whether `self ∪ other` is an interval (they overlap or are
    /// adjacent); if so returns the hull.
    fn union_if_interval(self, other: Iv) -> Option<Iv> {
        let lo_first = if self.lo <= other.lo { self } else { other };
        let hi_second = if self.lo <= other.lo { other } else { self };
        let contiguous = match lo_first.hi {
            None => true,
            Some(h) => hi_second.lo <= h + 1,
        };
        if !contiguous {
            return None;
        }
        Some(Iv {
            lo: lo_first.lo,
            hi: match (self.hi, other.hi) {
                (None, _) | (_, None) => None,
                (Some(a), Some(b)) => Some(a.max(b)),
            },
        })
    }

    fn as_multiplicity(self) -> Option<Multiplicity> {
        match (self.lo, self.hi) {
            (1, Some(1)) => Some(Multiplicity::One),
            (0, Some(1)) => Some(Multiplicity::Opt),
            (0, None) => Some(Multiplicity::Star),
            (1, None) => Some(Multiplicity::Plus),
            _ => None,
        }
    }
}

/// An exact Parikh box: `(letter, interval)` pairs sorted by letter, each
/// letter once; absent letters are implicitly `[0,0]`, which no pair
/// holds. The letters borrow the expression's names, so building a box
/// copies no name.
type Box_<'r> = Vec<(&'r str, Iv)>;

/// The box of a concatenation, given its parts' pairs in one run: sorts
/// by letter and adds the intervals of equal letters.
fn box_sum(mut pairs: Box_<'_>) -> Box_<'_> {
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    pairs.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 = kept.1.add(next.1);
        }
        same
    });
    pairs
}

/// Walks two boxes in letter order: each letter of either, with its
/// interval in `a` and in `b`.
fn box_zip<'b, 'r>(
    a: &'b [(&'r str, Iv)],
    b: &'b [(&'r str, Iv)],
) -> impl Iterator<Item = (&'r str, Iv, Iv)> + 'b {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let (ka, kb) = (a.get(i).map(|e| e.0), b.get(j).map(|e| e.0));
        let order = match (ka, kb) {
            (None, None) => return None,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some(x), Some(y)) => x.cmp(y),
        };
        let x = if order.is_le() { a[i].1 } else { Iv::ZERO };
        let y = if order.is_ge() { b[j].1 } else { Iv::ZERO };
        let key = if order.is_le() { a[i].0 } else { b[j].0 };
        i += usize::from(order.is_le());
        j += usize::from(order.is_ge());
        Some((key, x, y))
    })
}

fn box_subset(a: &[(&str, Iv)], b: &[(&str, Iv)]) -> bool {
    box_zip(a, b).all(|(_, x, y)| y.contains_iv(x))
}

/// Exact Parikh box of `re`, or `None` if not (established to be) a box.
fn parikh_box(re: &Regex) -> Option<Box_<'_>> {
    match re {
        Regex::Epsilon => Some(Vec::new()),
        Regex::Elem(name) => Some(vec![(&**name, Iv::ONE)]),
        Regex::Seq(parts) => {
            let mut pairs = Vec::new();
            for p in parts {
                pairs.extend(parikh_box(p)?);
            }
            Some(box_sum(pairs))
        }
        Regex::Alt(parts) => {
            let mut acc = parikh_box(&parts[0])?;
            for p in &parts[1..] {
                acc = box_union(&acc, &parikh_box(p)?)?;
            }
            Some(acc)
        }
        Regex::Star(r) => star_box(r),
        Regex::Opt(r) => box_union(&parikh_box(r)?, &[]),
        Regex::Plus(r) => {
            let mut pairs = parikh_box(r)?;
            pairs.extend(star_box(r)?);
            Some(box_sum(pairs))
        }
    }
}

/// Exact Parikh box of `r*`, or `None` if `Parikh(L(r*))` is not a box.
///
/// `Parikh(L(r*))` is the monoid generated by `Parikh(L(r))`, which equals
/// the full box `∏_{a ∈ alphabet(r)} [0,∞]` iff every unit vector `e_a` is
/// in it — and a *sum* of non-negative vectors equals `e_a` only when `e_a`
/// itself is a generator, i.e. the single-letter word `a` belongs to
/// `L(r)`. That word membership is read off the syntax exactly (see
/// [`one_letter_words`]), so this rule is both sound and complete (e.g. it
/// accepts `(a|b|c)*` and `(a?, b?)*`, and rejects `(a, b)*`).
fn star_box(r: &Regex) -> Option<Box_<'_>> {
    let mut letters = r.alphabet();
    letters.sort_unstable();
    let mut words = Vec::new();
    one_letter_words(r, &mut words);
    words.sort_unstable();
    words.dedup();
    // Every one-letter word is a letter of `r`, so equal lists mean every
    // letter is one.
    (words == letters).then(|| {
        letters
            .into_iter()
            .map(|a| (a, Iv { lo: 0, hi: None }))
            .collect()
    })
}

/// Whether `ε ∈ L(r)`; appends to `words` the letters `a` whose
/// one-letter word `a` is in `L(r)` (possibly repeated), in one pass over
/// the syntax. No sub-expression has an empty language, so a one-letter
/// word of a sequence is one part's one-letter word with every other part
/// empty: all parts' letters when every part is nullable, the one
/// non-nullable part's letters when there is exactly one, and none
/// otherwise.
fn one_letter_words<'r>(r: &'r Regex, words: &mut Vec<&'r str>) -> bool {
    match r {
        Regex::Epsilon => true,
        Regex::Elem(a) => {
            words.push(a);
            false
        }
        Regex::Star(inner) | Regex::Opt(inner) => {
            one_letter_words(inner, words);
            true
        }
        Regex::Plus(inner) => one_letter_words(inner, words),
        Regex::Alt(parts) => {
            let mut nullable = false;
            for p in parts {
                nullable |= one_letter_words(p, words);
            }
            nullable
        }
        Regex::Seq(parts) => {
            let start = words.len();
            // Where the one non-nullable part's words sit, once seen.
            let mut required: Option<(usize, usize)> = None;
            for p in parts {
                let before = words.len();
                if !one_letter_words(p, words) {
                    if required.is_some() {
                        words.truncate(start);
                        return false;
                    }
                    required = Some((before, words.len()));
                }
            }
            match required {
                None => true,
                Some((from, to)) => {
                    words.truncate(to);
                    words.drain(start..from);
                    false
                }
            }
        }
    }
}

/// Conservative per-letter occurrence bounds `[lo, hi]` (`hi = None` = ∞)
/// for **any** regular expression — the interval *hull* of the Parikh
/// image, not the exact set. Sound for both directions: every word has at
/// least `lo` and at most `hi` occurrences of the letter. Used by the
/// implication chase to derive "required child" (`lo ≥ 1`) and
/// "at-most-one child" (`hi ≤ 1`) facts on arbitrary (even non-simple)
/// content models.
pub fn letter_bounds(re: &Regex) -> BTreeMap<Box<str>, (u64, Option<u64>)> {
    fn hull(re: &Regex) -> BTreeMap<Box<str>, (u64, Option<u64>)> {
        match re {
            Regex::Epsilon => BTreeMap::new(),
            Regex::Elem(n) => BTreeMap::from([(n.clone(), (1, Some(1)))]),
            Regex::Seq(parts) => {
                let mut acc: BTreeMap<Box<str>, (u64, Option<u64>)> = BTreeMap::new();
                for p in parts {
                    for (k, (lo, hi)) in hull(p) {
                        let e = acc.entry(k).or_insert((0, Some(0)));
                        e.0 += lo;
                        e.1 = match (e.1, hi) {
                            (Some(a), Some(b)) => Some(a + b),
                            _ => None,
                        };
                    }
                }
                acc
            }
            Regex::Alt(parts) => {
                let mut acc: BTreeMap<Box<str>, (u64, Option<u64>)> = BTreeMap::new();
                for (i, p) in parts.iter().enumerate() {
                    let b = hull(p);
                    // Letters absent from one alternative have lo = 0.
                    for (k, v) in acc.iter_mut() {
                        if !b.contains_key(k) {
                            v.0 = 0;
                        }
                        let _ = k;
                    }
                    for (k, (lo, hi)) in b {
                        match acc.get_mut(&k) {
                            Some(e) => {
                                e.0 = e.0.min(lo);
                                e.1 = match (e.1, hi) {
                                    (Some(a), Some(b)) => Some(a.max(b)),
                                    _ => None,
                                };
                            }
                            None => {
                                acc.insert(k, (if i == 0 { lo } else { 0 }, hi));
                            }
                        }
                    }
                }
                acc
            }
            Regex::Star(r) => hull(r).into_keys().map(|k| (k, (0, None))).collect(),
            Regex::Opt(r) => hull(r)
                .into_iter()
                .map(|(k, (_, hi))| (k, (0, hi)))
                .collect(),
            Regex::Plus(r) => hull(r)
                .into_iter()
                .map(|(k, (lo, hi))| (k, (lo, if hi == Some(0) { hi } else { None })))
                .collect(),
        }
    }
    hull(re)
}

/// Union of two exact boxes, if the union is itself a box.
///
/// `B₁ ∪ B₂` is a box iff one contains the other, or they differ in exactly
/// one letter-dimension whose two intervals union to an interval.
fn box_union<'r>(a: &[(&'r str, Iv)], b: &[(&'r str, Iv)]) -> Option<Box_<'r>> {
    if box_subset(a, b) {
        return Some(b.to_vec());
    }
    if box_subset(b, a) {
        return Some(a.to_vec());
    }
    let mut diff = box_zip(a, b).filter(|&(_, x, y)| x != y);
    let (k, x, y) = diff
        .next()
        .expect("boxes differ (neither contains the other)");
    if diff.next().is_some() {
        return None; // differ in ≥ 2 dimensions
    }
    let merged = x.union_if_interval(y)?;
    Some(
        box_zip(a, b)
            .map(|(key, x, _)| (key, if key == k { merged } else { x }))
            .filter(|&(_, iv)| iv != Iv::ZERO)
            .collect(),
    )
}

/// The classification of one element's content model within a disjunctive
/// DTD: either `#PCDATA`, or a concatenation of factors, each a simple
/// regular expression (letters with multiplicities) or a simple disjunction
/// (exactly one letter from a set, or none if nullable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimpleContent {
    /// `#PCDATA`.
    Text,
    /// A concatenation of disjunctive factors with pairwise-disjoint
    /// alphabets.
    Factors(Vec<Factor>),
}

/// One factor of a disjunctive content model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Factor {
    /// A simple regular expression: each letter occurs independently with
    /// the given multiplicity.
    Simple(BTreeMap<Box<str>, Multiplicity>),
    /// A simple disjunction `(a₁ | a₂ | … | aₖ)` (optionally with an `ε`
    /// alternative): a word is one letter from the set, or empty if
    /// `nullable`.
    Disjunction {
        /// The alternative letters, in syntactic order.
        letters: Vec<Box<str>>,
        /// Whether `ε` is among the alternatives.
        nullable: bool,
    },
}

impl SimpleContent {
    /// All letters of the content model with a conservative multiplicity:
    /// disjunction letters are reported as [`Multiplicity::Opt`] (they
    /// occur at most once, possibly zero times).
    pub fn letter_multiplicities(&self) -> BTreeMap<Box<str>, Multiplicity> {
        let mut out = BTreeMap::new();
        if let SimpleContent::Factors(factors) = self {
            for f in factors {
                match f {
                    Factor::Simple(m) => {
                        out.extend(m.iter().map(|(k, v)| (k.clone(), *v)));
                    }
                    Factor::Disjunction { letters, nullable } => {
                        for l in letters {
                            let m = if letters.len() == 1 && !nullable {
                                Multiplicity::One
                            } else {
                                Multiplicity::Opt
                            };
                            out.insert(l.clone(), m);
                        }
                    }
                }
            }
        }
        out
    }

    /// Whether every factor is a simple regular expression (no unrestricted
    /// disjunction) — i.e. the content model as a whole is *simple*.
    pub fn is_simple(&self) -> bool {
        match self {
            SimpleContent::Text => true,
            SimpleContent::Factors(fs) => fs.iter().all(|f| matches!(f, Factor::Simple(_))),
        }
    }

    /// The per-factor contribution to `N_τ` (Theorem 4): 1 for a simple
    /// factor, number-of-alternatives for a disjunction (`|`-count + 1,
    /// counting the `ε` alternative).
    fn factor_complexities(&self) -> Vec<u128> {
        match self {
            SimpleContent::Text => Vec::new(),
            SimpleContent::Factors(fs) => fs
                .iter()
                .map(|f| match f {
                    Factor::Simple(_) => 1,
                    Factor::Disjunction { letters, nullable } => {
                        letters.len() as u128 + u128::from(*nullable)
                    }
                })
                .collect(),
        }
    }
}

/// If `re` is simple, its per-letter multiplicity map (the trivial
/// expression witnessing simplicity).
pub fn simple_multiplicities(re: &Regex) -> Option<BTreeMap<Box<str>, Multiplicity>> {
    Some(owned_letters(simple_letters(re)?))
}

/// [`simple_multiplicities`] with the letters borrowed from `re`, sorted.
fn simple_letters(re: &Regex) -> Option<Vec<(&str, Multiplicity)>> {
    parikh_box(re)?
        .into_iter()
        .map(|(k, iv)| Some((k, iv.as_multiplicity()?)))
        .collect()
}

/// Copies each letter name once, into the map a [`Factor::Simple`] holds.
fn owned_letters(letters: Vec<(&str, Multiplicity)>) -> BTreeMap<Box<str>, Multiplicity> {
    letters.into_iter().map(|(k, m)| (k.into(), m)).collect()
}

/// Whether `re` is a *trivial* regular expression (syntactically
/// `s₁, …, sₙ` with distinct letters, each `a`, `a?`, `a*` or `a⁺`).
pub fn is_trivial(re: &Regex) -> bool {
    fn factor_letter(r: &Regex) -> Option<&str> {
        match r {
            Regex::Elem(n) => Some(n),
            Regex::Opt(inner) | Regex::Star(inner) | Regex::Plus(inner) => match &**inner {
                Regex::Elem(n) => Some(n),
                _ => None,
            },
            _ => None,
        }
    }
    let factors: Vec<&Regex> = match re {
        Regex::Epsilon => return true,
        Regex::Seq(parts) => parts.iter().collect(),
        other => vec![other],
    };
    let mut seen = Vec::new();
    for f in factors {
        match factor_letter(f) {
            Some(l) if !seen.contains(&l) => seen.push(l),
            _ => return false,
        }
    }
    true
}

/// If `re` is a simple disjunction (`ε`, a letter, or a `|` of simple
/// disjunctions over disjoint alphabets — `?` accepted as an `ε`
/// alternative), returns its flattened letters and nullability.
pub fn as_simple_disjunction(re: &Regex) -> Option<(Vec<Box<str>>, bool)> {
    match re {
        Regex::Epsilon => Some((Vec::new(), true)),
        Regex::Elem(n) => Some((vec![n.clone()], false)),
        Regex::Opt(inner) => {
            let (letters, _) = as_simple_disjunction(inner)?;
            Some((letters, true))
        }
        Regex::Alt(parts) => {
            let mut letters: Vec<Box<str>> = Vec::new();
            let mut nullable = false;
            for p in parts {
                let (ls, n) = as_simple_disjunction(p)?;
                for l in ls {
                    if letters.contains(&l) {
                        return None; // alphabets must be disjoint
                    }
                    letters.push(l);
                }
                nullable |= n;
            }
            Some((letters, nullable))
        }
        _ => None,
    }
}

/// Classifies a content model as disjunctive: a concatenation of factors,
/// each simple or a simple disjunction, over pairwise-disjoint alphabets.
pub fn classify_content(cm: &ContentModel) -> Option<SimpleContent> {
    let re = match cm {
        ContentModel::Text => return Some(SimpleContent::Text),
        ContentModel::Regex(re) => re,
    };
    let parts = match re {
        Regex::Seq(parts) => parts.as_slice(),
        other => std::slice::from_ref(other),
    };
    let mut factors = Vec::with_capacity(parts.len());
    // Factor alphabets must be pairwise disjoint.
    let mut seen: HashSet<&str> = HashSet::new();
    // Greedily merge maximal runs of simple sub-factors; a non-simple part
    // must itself be a simple disjunction.
    for p in parts {
        let factor = if let Some(letters) = simple_letters(p) {
            if !letters.iter().all(|&(l, _)| seen.insert(l)) {
                return None;
            }
            Factor::Simple(owned_letters(letters))
        } else if let Some((letters, nullable)) = as_simple_disjunction(p) {
            // A simple disjunction's leaves are its distinct letters.
            let mut fresh = true;
            p.visit_leaves(&mut |l| fresh &= seen.insert(l));
            if !fresh {
                return None;
            }
            Factor::Disjunction { letters, nullable }
        } else {
            return None;
        };
        factors.push(factor);
    }
    // Coalesce adjacent simple factors into one (their concatenation is
    // simple because alphabets are disjoint).
    let mut merged: Vec<Factor> = Vec::with_capacity(factors.len());
    for f in factors {
        match (merged.last_mut(), f) {
            (Some(Factor::Simple(acc)), Factor::Simple(m)) => acc.extend(m),
            (_, f) => merged.push(f),
        }
    }
    Some(SimpleContent::Factors(merged))
}

/// The class of a DTD in the Section 7 hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DtdClass {
    /// Every content model is simple (Theorem 3: implication in quadratic
    /// time).
    Simple,
    /// Every content model is disjunctive; carries the complexity measure
    /// `N_D` (Theorem 4: polynomial when `N_D ≤ k·log|D|`). Saturates at
    /// `u128::MAX`.
    Disjunctive {
        /// The complexity measure `N_D`.
        nd: u128,
    },
    /// At least one content model is not disjunctive (implication is
    /// coNP-complete in general, Theorem 5).
    General,
}

/// The per-element classification of a whole DTD, cached for the chase.
#[derive(Debug, Clone)]
pub struct DtdShapes {
    /// Index `ElemId → SimpleContent` (or `None` when not disjunctive).
    shapes: Vec<Option<SimpleContent>>,
    class: DtdClass,
}

impl DtdShapes {
    /// Classifies every element of `dtd` and computes the DTD class and
    /// `N_D`.
    ///
    /// `N_D` needs `|{p ∈ paths(D) : last(p) = τ}|`, so for recursive DTDs
    /// (infinite path sets) `N_D` saturates and the class degrades
    /// gracefully; path counts use the supplied `paths` when available.
    pub fn analyze(dtd: &Dtd) -> DtdShapes {
        let shapes: Vec<Option<SimpleContent>> = dtd
            .elements()
            .map(|e| classify_content(dtd.content(e)))
            .collect();
        let all_disjunctive = shapes.iter().all(Option::is_some);
        let all_simple = all_disjunctive && shapes.iter().flatten().all(SimpleContent::is_simple);
        let class = if all_simple {
            DtdClass::Simple
        } else if all_disjunctive {
            let nd = compute_nd(dtd, &shapes);
            DtdClass::Disjunctive { nd }
        } else {
            DtdClass::General
        };
        DtdShapes { shapes, class }
    }

    /// The shape of element `e`'s content model, if disjunctive.
    pub fn shape(&self, e: crate::dtd::ElemId) -> Option<&SimpleContent> {
        self.shapes[e.index()].as_ref()
    }

    /// The DTD class.
    pub fn class(&self) -> &DtdClass {
        &self.class
    }

    /// Whether the whole DTD is simple.
    pub fn is_simple(&self) -> bool {
        matches!(self.class, DtdClass::Simple)
    }

    /// Whether the whole DTD is disjunctive (simple DTDs included).
    pub fn is_disjunctive(&self) -> bool {
        !matches!(self.class, DtdClass::General)
    }
}

/// `N_D = ∏_τ N_τ` (Theorem 4), saturating.
fn compute_nd(dtd: &Dtd, shapes: &[Option<SimpleContent>]) -> u128 {
    // Count paths ending in each element type. For recursive DTDs this is
    // unbounded: saturate.
    let path_counts: Vec<u128> = if dtd.is_recursive() {
        vec![u128::MAX; dtd.num_elements()]
    } else {
        let ps = dtd.paths_bounded(usize::MAX);
        let mut counts = vec![0u128; dtd.num_elements()];
        for p in ps.iter() {
            if let Some(e) = ps.last_elem(p) {
                counts[e.index()] += 1;
            }
        }
        counts
    };
    let mut nd: u128 = 1;
    for e in dtd.elements() {
        let shape = shapes[e.index()].as_ref().expect("disjunctive DTD");
        let n_tau = if shape.is_simple() {
            1
        } else {
            let mut acc: u128 = path_counts[e.index()];
            for c in shape.factor_complexities() {
                acc = acc.saturating_mul(c);
            }
            acc
        };
        nd = nd.saturating_mul(n_tau);
    }
    nd
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::Dtd;
    use crate::parse::parse_content_model;
    use proptest::prelude::*;

    /// An owned-map classification (a `BTreeMap<Box<str>, _>` per
    /// sub-expression, a `BTreeSet` per node), the reference that
    /// `borrowed_boxes_match_the_reference` compares the borrowed boxes
    /// against.
    mod reference {
        use super::super::{as_simple_disjunction, Factor, Iv, Multiplicity, SimpleContent};
        use crate::dtd::ContentModel;
        use crate::regex::Regex;
        use std::collections::{BTreeMap, BTreeSet};

        // An exact Parikh box: letters mapped to intervals; absent letters are
        // implicitly `[0,0]`.
        type Box_ = BTreeMap<Box<str>, Iv>;

        fn box_subset(a: &Box_, b: &Box_) -> bool {
            let get = |m: &Box_, k: &str| m.get(k).copied().unwrap_or(Iv::ZERO);
            a.keys()
                .chain(b.keys())
                .all(|k| get(b, k).contains_iv(get(a, k)))
        }

        // Exact Parikh box of `re`, or `None` if not (established to be) a box.
        fn parikh_box(re: &Regex) -> Option<Box_> {
            match re {
                Regex::Epsilon => Some(Box_::new()),
                Regex::Elem(name) => {
                    let mut m = Box_::new();
                    m.insert(name.clone(), Iv::ONE);
                    Some(m)
                }
                Regex::Seq(parts) => {
                    let mut acc = Box_::new();
                    for p in parts {
                        let b = parikh_box(p)?;
                        for (k, iv) in b {
                            let entry = acc.entry(k).or_insert(Iv::ZERO);
                            *entry = entry.add(iv);
                        }
                    }
                    Some(acc)
                }
                Regex::Alt(parts) => {
                    let mut acc = parikh_box(&parts[0])?;
                    for p in &parts[1..] {
                        let b = parikh_box(p)?;
                        acc = box_union(&acc, &b)?;
                    }
                    Some(acc)
                }
                Regex::Star(r) => star_box(r),
                Regex::Opt(r) => {
                    let b = parikh_box(r)?;
                    box_union(&b, &Box_::new())
                }
                Regex::Plus(r) => {
                    let b = parikh_box(r)?;
                    let starred = star_box(r)?;
                    let mut acc = b;
                    for (k, iv) in starred {
                        let entry = acc.entry(k).or_insert(Iv::ZERO);
                        *entry = entry.add(iv);
                    }
                    Some(acc)
                }
            }
        }

        // Exact Parikh box of `r*`, or `None` if `Parikh(L(r*))` is not a box.
        //
        // `Parikh(L(r*))` is the monoid generated by `Parikh(L(r))`, which equals
        // the full box `∏_{a ∈ alphabet(r)} [0,∞]` iff every unit vector `e_a` is
        // in it — and a *sum* of non-negative vectors equals `e_a` only when `e_a`
        // itself is a generator, i.e. the single-letter word `a` belongs to
        // `L(r)`. That word membership is read off the syntax exactly (see
        // [`one_letter_words`]), so this rule is both sound and complete (e.g. it
        // accepts `(a|b|c)*` and `(a?, b?)*`, and rejects `(a, b)*`).
        fn star_box(r: &Regex) -> Option<Box_> {
            let letters = r.alphabet();
            let (_, words) = one_letter_words(r);
            if letters.iter().all(|a| words.contains(a)) {
                Some(
                    letters
                        .into_iter()
                        .map(|a| (Box::from(a), Iv { lo: 0, hi: None }))
                        .collect(),
                )
            } else {
                None
            }
        }

        // Whether `ε ∈ L(r)`, and the letters `a` whose one-letter word `a` is in
        // `L(r)`, in one pass over the syntax. No sub-expression has an empty
        // language, so a one-letter word of a sequence is one part's one-letter
        // word with every other part empty: all parts' letters when every part is
        // nullable, the one non-nullable part's letters when there is exactly
        // one, and none otherwise.
        fn one_letter_words(r: &Regex) -> (bool, BTreeSet<&str>) {
            match r {
                Regex::Epsilon => (true, BTreeSet::new()),
                Regex::Elem(a) => (false, BTreeSet::from([&**a])),
                Regex::Star(inner) | Regex::Opt(inner) => (true, one_letter_words(inner).1),
                Regex::Plus(inner) => one_letter_words(inner),
                Regex::Alt(parts) => {
                    let mut nullable = false;
                    let mut words = BTreeSet::new();
                    for p in parts {
                        let (n, w) = one_letter_words(p);
                        nullable |= n;
                        words.extend(w);
                    }
                    (nullable, words)
                }
                Regex::Seq(parts) => {
                    let mut nullable_words = BTreeSet::new();
                    let mut required: Option<BTreeSet<&str>> = None;
                    for p in parts {
                        let (n, w) = one_letter_words(p);
                        if n {
                            nullable_words.extend(w);
                        } else if required.is_some() {
                            return (false, BTreeSet::new());
                        } else {
                            required = Some(w);
                        }
                    }
                    match required {
                        None => (true, nullable_words),
                        Some(w) => (false, w),
                    }
                }
            }
        }

        // Union of two exact boxes, if the union is itself a box.
        //
        // `B₁ ∪ B₂` is a box iff one contains the other, or they differ in exactly
        // one letter-dimension whose two intervals union to an interval.
        fn box_union(a: &Box_, b: &Box_) -> Option<Box_> {
            if box_subset(a, b) {
                return Some(b.clone());
            }
            if box_subset(b, a) {
                return Some(a.clone());
            }
            let get = |m: &Box_, k: &str| m.get(k).copied().unwrap_or(Iv::ZERO);
            let mut keys: Vec<&str> = a.keys().chain(b.keys()).map(|k| &**k).collect();
            keys.sort_unstable();
            keys.dedup();
            let mut diff_key: Option<&str> = None;
            for k in &keys {
                if get(a, k) != get(b, k) {
                    if diff_key.is_some() {
                        return None; // differ in ≥ 2 dimensions
                    }
                    diff_key = Some(k);
                }
            }
            let k = diff_key.expect("boxes differ (neither contains the other)");
            let merged = get(a, k).union_if_interval(get(b, k))?;
            let mut out = a.clone();
            if merged == Iv::ZERO {
                out.remove(k);
            } else {
                out.insert(k.into(), merged);
            }
            Some(out)
        }

        // If `re` is simple, its per-letter multiplicity map (the trivial
        // expression witnessing simplicity).
        pub(super) fn simple_multiplicities(
            re: &Regex,
        ) -> Option<BTreeMap<Box<str>, Multiplicity>> {
            let b = parikh_box(re)?;
            let mut out = BTreeMap::new();
            for (k, iv) in b {
                if iv == Iv::ZERO {
                    continue; // letter cannot occur; omit from the trivial form
                }
                out.insert(k, iv.as_multiplicity()?);
            }
            Some(out)
        }

        // Classifies a content model as disjunctive: a concatenation of factors,
        // each simple or a simple disjunction, over pairwise-disjoint alphabets.
        pub(super) fn classify_content(cm: &ContentModel) -> Option<SimpleContent> {
            let re = match cm {
                ContentModel::Text => return Some(SimpleContent::Text),
                ContentModel::Regex(re) => re,
            };
            let parts: Vec<&Regex> = match re {
                Regex::Seq(parts) => parts.iter().collect(),
                other => vec![other],
            };
            let mut factors = Vec::with_capacity(parts.len());
            let mut seen: Vec<Box<str>> = Vec::new();
            // Greedily merge maximal runs of simple sub-factors; a non-simple part
            // must itself be a simple disjunction.
            for p in parts {
                let factor = if let Some(m) = simple_multiplicities(p) {
                    Factor::Simple(m)
                } else if let Some((letters, nullable)) = as_simple_disjunction(p) {
                    Factor::Disjunction { letters, nullable }
                } else {
                    return None;
                };
                let letters: Vec<Box<str>> = match &factor {
                    Factor::Simple(m) => m.keys().cloned().collect(),
                    Factor::Disjunction { letters, .. } => letters.clone(),
                };
                for l in &letters {
                    if seen.contains(l) {
                        return None; // factor alphabets must be pairwise disjoint
                    }
                }
                seen.extend(letters);
                factors.push(factor);
            }
            // Coalesce adjacent simple factors into one (their concatenation is
            // simple because alphabets are disjoint).
            let mut merged: Vec<Factor> = Vec::with_capacity(factors.len());
            for f in factors {
                match (merged.last_mut(), f) {
                    (Some(Factor::Simple(acc)), Factor::Simple(m)) => acc.extend(m),
                    (_, f) => merged.push(f),
                }
            }
            Some(SimpleContent::Factors(merged))
        }
    }

    /// Random content models over a small alphabet, nested a few levels.
    fn arb_regex() -> impl Strategy<Value = Regex> {
        let leaf = prop_oneof![
            Just(Regex::Epsilon),
            prop_oneof![Just("a"), Just("b"), Just("c"), Just("d")].prop_map(Regex::elem),
        ];
        leaf.prop_recursive(4, 32, 4, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 1..5).prop_map(Regex::seq),
                prop::collection::vec(inner.clone(), 2..4).prop_map(Regex::alt),
                inner.clone().prop_map(Regex::star),
                inner.clone().prop_map(Regex::opt),
                inner.prop_map(Regex::plus),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The borrowed-letter boxes classify every content model exactly
        /// as the owned-map reference does.
        #[test]
        fn borrowed_boxes_match_the_reference(re in arb_regex()) {
            prop_assert_eq!(
                simple_multiplicities(&re),
                reference::simple_multiplicities(&re),
                "simple multiplicities of {}", re
            );
            let cm = ContentModel::Regex(re.clone());
            prop_assert_eq!(
                classify_content(&cm),
                reference::classify_content(&cm),
                "classification of {}", re
            );
            if let Regex::Seq(parts) = &re {
                // Sequences of disjunctions exercise the disjoint-alphabet
                // check across factors.
                let alts = Regex::seq(parts.iter().map(|p| {
                    Regex::alt([p.clone(), Regex::elem("e")])
                }));
                let cm = ContentModel::Regex(alts.clone());
                prop_assert_eq!(
                    classify_content(&cm),
                    reference::classify_content(&cm),
                    "classification of {}", alts
                );
            }
        }
    }

    fn re(s: &str) -> Regex {
        match parse_content_model(s).unwrap() {
            ContentModel::Regex(r) => r,
            ContentModel::Text => panic!("expected regex"),
        }
    }

    #[test]
    fn trivial_expressions() {
        assert!(is_trivial(&re("(a, b?, c*, d+)")));
        assert!(is_trivial(&re("(a)")));
        assert!(is_trivial(&Regex::Epsilon));
        assert!(!is_trivial(&re("(a, a)")));
        assert!(!is_trivial(&re("(a | b)")));
        assert!(!is_trivial(&re("((a, b)*)")));
    }

    #[test]
    fn paper_example_alternation_star_is_simple() {
        // "(a|b|c)* is simple: a*, b*, c* is trivial …" (Section 7).
        let m = simple_multiplicities(&re("((a | b | c)*)")).unwrap();
        assert_eq!(m.len(), 3);
        assert!(m.values().all(|&v| v == Multiplicity::Star));
    }

    #[test]
    fn sequence_of_distinct_letters_is_simple() {
        let m = simple_multiplicities(&re("(title, taken_by)")).unwrap();
        assert_eq!(m[&Box::from("title")], Multiplicity::One);
        assert_eq!(m[&Box::from("taken_by")], Multiplicity::One);
    }

    #[test]
    fn paper_non_simple_examples() {
        // (a, b) IS simple (trivial witness: a, b) but (a, a) is not, and a
        // bare disjunction (a | b) is not.
        assert!(simple_multiplicities(&re("(a, b)")).is_some());
        assert!(simple_multiplicities(&re("(a, a)")).is_none());
        assert!(simple_multiplicities(&re("(a | b)")).is_none());
        assert!(simple_multiplicities(&re("((a, b)?)")).is_none());
        assert!(simple_multiplicities(&re("((a, b)*)")).is_none());
        assert!(simple_multiplicities(&re("((a, b)+)")).is_none());
    }

    #[test]
    fn star_of_group_with_optional_letters_is_simple() {
        // (a?, b?)* ≡ permutations of a*, b*.
        assert_eq!(
            simple_multiplicities(&re("((a?, b?)*)"))
                .unwrap()
                .values()
                .copied()
                .collect::<Vec<_>>(),
            vec![Multiplicity::Star, Multiplicity::Star]
        );
        // (a, b?)* is NOT simple: counts are linked (#b ≤ #a).
        assert!(simple_multiplicities(&re("((a, b?)*)")).is_none());
    }

    #[test]
    fn plus_shapes() {
        let m = simple_multiplicities(&re("(a+, b)")).unwrap();
        assert_eq!(m[&Box::from("a")], Multiplicity::Plus);
        assert_eq!(m[&Box::from("b")], Multiplicity::One);
        // (a, a*) ≡ a⁺.
        let m = simple_multiplicities(&re("(a, a*)")).unwrap();
        assert_eq!(m[&Box::from("a")], Multiplicity::Plus);
        // a?, a? has counts [0,2]: not simple.
        assert!(simple_multiplicities(&re("(a?, a?)")).is_none());
    }

    #[test]
    fn simple_disjunction_recognition() {
        assert_eq!(
            as_simple_disjunction(&re("(a | b | c)")).unwrap(),
            (vec![Box::from("a"), Box::from("b"), Box::from("c")], false)
        );
        let (letters, nullable) = as_simple_disjunction(&re("((a | b)?)")).unwrap();
        assert_eq!(letters.len(), 2);
        assert!(nullable);
        // Alphabets must be disjoint.
        assert!(as_simple_disjunction(&re("(a | a)")).is_none());
        // Sequences are not simple disjunctions.
        assert!(as_simple_disjunction(&re("((a, b) | c)")).is_none());
    }

    #[test]
    fn classify_disjunctive_content() {
        let cm = ContentModel::Regex(re("(t, (a | b), c*)"));
        let sc = classify_content(&cm).unwrap();
        assert!(!sc.is_simple());
        match sc {
            SimpleContent::Factors(fs) => {
                assert_eq!(fs.len(), 3);
                assert!(matches!(fs[1], Factor::Disjunction { .. }));
            }
            _ => panic!("expected factors"),
        }
        // Overlapping alphabets across factors: not disjunctive.
        assert!(classify_content(&ContentModel::Regex(re("(a*, (a | b))"))).is_none());
        // The FAQ content model from Section 7 is not disjunctive:
        // (qna+ | q+ | (p | div | section)+) is a disjunction of
        // non-letters.
        assert!(classify_content(&ContentModel::Regex(re(
            "(logo*, title, (qna+ | q+ | (p | div | section)+))"
        )))
        .is_none());
    }

    fn university() -> Dtd {
        crate::parse_dtd(
            "<!ELEMENT courses (course*)>
             <!ELEMENT course (title, taken_by)>
             <!ATTLIST course cno CDATA #REQUIRED>
             <!ELEMENT title (#PCDATA)>
             <!ELEMENT taken_by (student*)>
             <!ELEMENT student (name, grade)>
             <!ATTLIST student sno CDATA #REQUIRED>
             <!ELEMENT name (#PCDATA)>
             <!ELEMENT grade (#PCDATA)>",
        )
        .unwrap()
    }

    #[test]
    fn university_dtd_is_simple() {
        let shapes = DtdShapes::analyze(&university());
        assert!(shapes.is_simple());
        assert_eq!(shapes.class(), &DtdClass::Simple);
    }

    #[test]
    fn disjunctive_dtd_nd() {
        // One unrestricted disjunction (a | b) under the root: N_τ for r is
        // (#paths ending in r = 1) × 2 = 2; every other element simple.
        let d = crate::parse_dtd(
            "<!ELEMENT r (t, (a | b))>
             <!ELEMENT t EMPTY> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>",
        )
        .unwrap();
        let shapes = DtdShapes::analyze(&d);
        assert_eq!(shapes.class(), &DtdClass::Disjunctive { nd: 2 });
        assert!(shapes.is_disjunctive());
        assert!(!shapes.is_simple());
    }

    #[test]
    fn general_dtd_detected() {
        let d = crate::parse_dtd(
            "<!ELEMENT r (a, a)>
             <!ELEMENT a EMPTY>",
        )
        .unwrap();
        let shapes = DtdShapes::analyze(&d);
        assert_eq!(shapes.class(), &DtdClass::General);
        assert!(!shapes.is_disjunctive());
    }

    #[test]
    fn nd_multiplies_across_elements_and_paths() {
        // Element `x` has an unrestricted disjunction and is reachable by
        // two paths (r.x via a and via b? no — two letters referencing x).
        let d = crate::parse_dtd(
            "<!ELEMENT r (a, b)>
             <!ELEMENT a (x)> <!ELEMENT b (x)>
             <!ELEMENT x ((u | v))>
             <!ELEMENT u EMPTY> <!ELEMENT v EMPTY>",
        )
        .unwrap();
        let shapes = DtdShapes::analyze(&d);
        // x is reached by paths r.a.x and r.b.x: N_x = 2 × 2 = 4.
        assert_eq!(shapes.class(), &DtdClass::Disjunctive { nd: 4 });
    }

    #[test]
    fn empty_and_text_are_simple() {
        assert!(classify_content(&ContentModel::Text).unwrap().is_simple());
        assert!(classify_content(&ContentModel::Regex(Regex::Epsilon))
            .unwrap()
            .is_simple());
    }

    #[test]
    fn letter_bounds_hull_on_non_simple_expressions() {
        let b = letter_bounds(&re("(a, a)"));
        assert_eq!(b[&Box::from("a")], (2, Some(2)));
        let b = letter_bounds(&re("(a | b)"));
        assert_eq!(b[&Box::from("a")], (0, Some(1)));
        assert_eq!(b[&Box::from("b")], (0, Some(1)));
        let b = letter_bounds(&re("((a, b)+)"));
        assert_eq!(b[&Box::from("a")], (1, None));
        let b = letter_bounds(&re("(x, (a | b), y*)"));
        assert_eq!(b[&Box::from("x")], (1, Some(1)));
        assert_eq!(b[&Box::from("y")], (0, None));
        // Letter only in the second alternative: lo = 0.
        let b = letter_bounds(&re("(a | (a, b))"));
        assert_eq!(b[&Box::from("a")], (1, Some(1)));
        assert_eq!(b[&Box::from("b")], (0, Some(1)));
    }

    #[test]
    fn letter_multiplicities_merges_factors() {
        let sc = classify_content(&ContentModel::Regex(re("(t, (a | b), c*)"))).unwrap();
        let m = sc.letter_multiplicities();
        assert_eq!(m[&Box::from("t")], Multiplicity::One);
        assert_eq!(m[&Box::from("a")], Multiplicity::Opt);
        assert_eq!(m[&Box::from("b")], Multiplicity::Opt);
        assert_eq!(m[&Box::from("c")], Multiplicity::Star);
    }
}
