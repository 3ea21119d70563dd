//! Every chase run starts from the root closure: the root facts each goal
//! states, saturated once per chase (the chase module doc, "Triggers and
//! the root closure"). This suite checks that start against an empty one.
//!
//! On simple DTDs, random ones and the presence-dichotomy shapes
//! (`xnf_gen::dichotomy`), every query the anomalous-FD candidate search
//! asks (`S → q` and `S → parent(q)` for each FD `S → … q …` of Σ), plus
//! the dichotomy queries, is asked under Σ and under ∅ twice: through
//! `Chase::run`, which copies the closure, and through a fresh
//! `Chase::session()` with `assume_goal`, which starts from nothing.
//! "Implied" must come exactly when that session contradicts; otherwise
//! both states must agree on every path.
//!
//! Disjunctive and general DTDs split on top of the saturation: debug
//! builds certify each saturation's fixpoint, and
//! `tests/implication_validation.rs` certifies their verdicts.
//!
//! CI runs this suite at a raised `PROPTEST_CASES`.

use proptest::prelude::*;
use xnf::core::fd::ResolvedFd;
use xnf::core::implication::{ChaseOutcome, PairState};
use xnf::core::{Chase, XmlFd, XmlFdSet};
use xnf::dtd::Dtd;
use xnf_gen::dichotomy::presence_dichotomy;
use xnf_gen::dtd::{simple_dtd, SimpleDtdParams};
use xnf_gen::fd::{random_fds, FdParams};

fn show(fd: &ResolvedFd, sigma: &[ResolvedFd], dtd: &Dtd) -> String {
    let paths = dtd.paths().unwrap();
    let sigma: Vec<String> = sigma.iter().map(|f| f.to_fd(&paths).to_string()).collect();
    format!("{} under {{{}}}", fd.to_fd(&paths), sigma.join("; "))
}

/// `PairState` has no `PartialEq`: compare its three facts.
fn same(a: &PairState, b: &PairState) -> bool {
    a.n1 == b.n1 && a.n2 == b.n2 && a.eq == b.eq
}

/// The single-path queries the candidate search asks about Σ, plus
/// `extra`'s, each split per right-hand path.
fn queries(dtd: &Dtd, sigma: &[ResolvedFd], extra: &[XmlFd]) -> Vec<ResolvedFd> {
    let paths = dtd.paths().unwrap();
    let mut out = Vec::new();
    for fd in sigma {
        for &q in &fd.rhs {
            out.push(ResolvedFd::from_ids(fd.lhs.iter().copied(), [q]));
            if let Some(parent) = paths.parent(q) {
                out.push(ResolvedFd::from_ids(fd.lhs.iter().copied(), [parent]));
            }
        }
    }
    for fd in extra {
        let fd = fd.resolve(&paths).unwrap();
        for &q in &fd.rhs {
            out.push(ResolvedFd::from_ids(fd.lhs.iter().copied(), [q]));
        }
    }
    out
}

fn compare(dtd: &Dtd, sigma: &XmlFdSet, extra: &[XmlFd]) -> Result<(), TestCaseError> {
    let paths = dtd.paths().unwrap();
    let resolved = sigma.resolve(&paths).unwrap();
    // One chase for every query, so all but the first run reuse the
    // closure the first one kept.
    let chase = Chase::new(dtd, &paths);
    for fd in queries(dtd, &resolved, extra) {
        let q = fd.rhs[0];
        for sigma in [&resolved[..], &[]] {
            let mut empty_start = chase.session();
            let consistent = empty_start.assume_goal(sigma, &fd.lhs, q);
            match chase.run(sigma, &fd) {
                ChaseOutcome::Implied => prop_assert!(
                    !consistent,
                    "the run proved {} but an empty start does not contradict",
                    show(&fd, sigma, dtd)
                ),
                ChaseOutcome::NotImplied(state) => {
                    prop_assert!(
                        consistent,
                        "an empty start contradicts on {} but the run did not",
                        show(&fd, sigma, dtd)
                    );
                    for p in paths.iter() {
                        let (run, empty) = (state[p.index()], empty_start.get(p));
                        prop_assert!(
                            same(&run, &empty),
                            "{}: at {} the run holds {:?}, an empty start {:?}",
                            show(&fd, sigma, dtd),
                            paths.format(p),
                            run,
                            empty
                        );
                    }
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dichotomy_runs_match_an_empty_start(seed in 0u64..1_000_000) {
        let spec = presence_dichotomy(&mut xnf_gen::rng(seed));
        compare(&spec.dtd, &spec.sigma, &spec.queries)?;
    }

    #[test]
    fn simple_runs_match_an_empty_start(seed in 0u64..1_000_000, elements in 3usize..10) {
        let mut rng = xnf_gen::rng(seed);
        let dtd = simple_dtd(
            &mut rng,
            &SimpleDtdParams {
                elements,
                max_children: 3,
                max_attrs: 2,
                text_leaf_prob: 0.4,
            },
        );
        let sigma = random_fds(&dtd, &mut rng, &FdParams { count: 3, max_lhs: 2 });
        let extra: Vec<XmlFd> = random_fds(&dtd, &mut rng, &FdParams { count: 4, max_lhs: 2 })
            .iter()
            .cloned()
            .collect();
        compare(&dtd, &sigma, &extra)?;
    }
}
