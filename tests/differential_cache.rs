//! Differential tests for the memoized implication path.
//!
//! The implication cache is a pure optimization: every verdict must
//! match the raw chase exactly. These tests check that
//! verdict-for-verdict over randomized corpora.

use xnf::core::implication::Implication;
use xnf::core::{Chase, ImplicationCache};
use xnf_gen::dtd::{disjunctive_dtd, simple_dtd, SimpleDtdParams};
use xnf_gen::fd::{random_fds, FdParams};

fn dtd_params(elements: usize) -> SimpleDtdParams {
    SimpleDtdParams {
        elements,
        max_children: 3,
        max_attrs: 2,
        text_leaf_prob: 0.4,
    }
}

fn check_cached_matches_uncached(dtd: &xnf::dtd::Dtd, seed: u64) {
    let mut rng = xnf_gen::rng(seed ^ 0xcac4e);
    let sigma = random_fds(
        dtd,
        &mut rng,
        &FdParams {
            count: 3,
            max_lhs: 2,
        },
    );
    let candidates = random_fds(
        dtd,
        &mut rng,
        &FdParams {
            count: 6,
            max_lhs: 2,
        },
    );
    let paths = dtd.paths().unwrap();
    let resolved = sigma.resolve(&paths).unwrap();
    let chase = Chase::new(dtd, &paths);
    let cache = ImplicationCache::new(&chase, &resolved);
    for fd in candidates.iter() {
        let r = fd.resolve(&paths).unwrap();
        let raw = chase.implies(&resolved, &r);
        let raw_trivial = chase.is_trivial(&r);
        // Ask twice: the first answer is computed (miss), the second is
        // served from the memo (hit); both must equal the raw chase.
        for round in 0..2 {
            assert_eq!(
                cache.implies(&resolved, &r),
                raw,
                "seed {seed}, fd {fd}, round {round}: cached verdict diverged"
            );
            assert_eq!(
                cache.is_trivial(&r),
                raw_trivial,
                "seed {seed}, fd {fd}, round {round}: cached triviality diverged"
            );
        }
    }
    let stats = chase.stats().snapshot();
    assert!(
        stats.get("cache.hits") >= stats.get("cache.misses"),
        "seed {seed}: second round must be all hits"
    );
}

#[test]
fn cached_implies_matches_uncached_simple_corpus() {
    for seed in 0..150u64 {
        for elements in 3..8 {
            let mut rng = xnf_gen::rng(seed);
            let dtd = simple_dtd(&mut rng, &dtd_params(elements));
            check_cached_matches_uncached(&dtd, seed);
        }
    }
}

#[test]
fn cached_implies_matches_uncached_disjunctive_corpus() {
    for seed in 0..100u64 {
        for elements in 3..7 {
            let mut rng = xnf_gen::rng(seed);
            let dtd = disjunctive_dtd(&mut rng, &dtd_params(elements), 2, 2);
            check_cached_matches_uncached(&dtd, seed);
        }
    }
}
