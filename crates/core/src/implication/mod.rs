//! The FD implication problem `(D, Σ) ⊢ φ` — Section 7.
//!
//! Two engines are provided:
//!
//! * [`Chase`] — a **two-tuple chase**: a saturation procedure over a
//!   three-valued per-path state describing two hypothetical tree tuples
//!   of a counterexample document. Every derivation rule is sound (doc
//!   comments on each rule carry the argument), so a derived contradiction
//!   proves implication. On simple DTDs saturation alone decides: the
//!   chase never case-splits, so Theorem 3's polynomial bound holds for
//!   the answer itself, and the chase module doc argues completeness
//!   (two implementation steps of that argument are certified by the
//!   suites rather than proven). Disjunctive and general DTDs keep
//!   bounded presence case-splits (Theorems 4–5); there the chase is
//!   empirically complete — validated against the counterexample
//!   constructor on the paper's examples and on randomized corpora (see
//!   the crate tests and `EXPERIMENTS.md`).
//! * [`CounterexampleSearch`] — builds an *actual witness document* from a
//!   non-contradictory chase fixpoint and verifies it end-to-end
//!   (`T ⊨ D`, `T ⊨ Σ`, `T ⊭ φ`), falling back to randomized and
//!   exhaustive disjunction-choice search. The exhaustive mode is the
//!   literal coNP upper bound of Theorem 5 and is what the `exp10` bench
//!   measures.

pub mod cache;
pub mod chase;
pub mod search;

pub use cache::ImplicationCache;
#[cfg(feature = "testing")]
pub use chase::StructuralFacts;
pub use chase::{
    Chase, ChaseConfig, ChaseOutcome, ChaseStats, ChaseStatsSnapshot, PairState, Session, Ternary,
};
pub use search::{Counterexample, CounterexampleSearch};

use crate::fd::ResolvedFd;
use xnf_govern::Exhausted;

/// An FD implication oracle over a fixed `(D, paths(D))`.
pub trait Implication {
    /// Whether `(D, Σ) ⊢ φ`.
    fn implies(&self, sigma: &[ResolvedFd], fd: &ResolvedFd) -> bool;

    /// Budget-aware variant of [`implies`](Implication::implies): returns
    /// [`Exhausted`] instead of an unreliable verdict when the oracle's
    /// resource budget runs out. The default delegates to the infallible
    /// `implies`, so oracles without internal governance never exhaust.
    fn try_implies(&self, sigma: &[ResolvedFd], fd: &ResolvedFd) -> Result<bool, Exhausted> {
        Ok(self.implies(sigma, fd))
    }

    /// Whether `φ` is trivial, i.e. `(D, ∅) ⊢ φ`.
    fn is_trivial(&self, fd: &ResolvedFd) -> bool {
        self.implies(&[], fd)
    }

    /// Budget-aware variant of [`is_trivial`](Implication::is_trivial).
    fn try_is_trivial(&self, fd: &ResolvedFd) -> Result<bool, Exhausted> {
        self.try_implies(&[], fd)
    }
}
