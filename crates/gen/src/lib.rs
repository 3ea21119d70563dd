//! # `xnf-gen` — synthetic workload generators
//!
//! Deterministic (seeded) generators for the families of DTDs, documents
//! and FD sets used by the benches (`crates/bench`) and the cross-crate
//! validation tests:
//!
//! * [`dtd`] — random *simple* DTDs of a given size (Theorem 3 scaling),
//!   random *disjunctive* DTDs with a controlled number of unrestricted
//!   disjunctions (Theorem 4/5 scaling), and layered chain DTDs.
//! * [`doc`] — random conforming documents for any non-recursive DTD, plus
//!   scaled university-style (Example 1.1) and DBLP-style (Example 1.2)
//!   documents that *satisfy* the paper's FDs by construction.
//! * [`fd`] — random FD sets over a DTD's attribute paths.
//! * [`dichotomy`] — simple specs whose implications hinge on an optional
//!   element's presence, with their queries.
//! * [`rel`] — relational schemas with planted BCNF violations and nested
//!   schemas with planted NNF violations (Propositions 4/5 experiments).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod dichotomy;
pub mod doc;
pub mod dtd;
pub mod fd;
pub mod rel;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// A seeded RNG shared by all generators, for reproducible workloads.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}
