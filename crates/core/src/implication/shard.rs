//! Sharded execution of the implication hot path.
//!
//! The anomalous-FD search — the inner loop of both `is_xnf` and the
//! Figure 4 normalization algorithm — is an embarrassingly parallel sweep
//! over the `(FD, value path)` candidates of Σ: each candidate is an
//! independent pure implication query. This module partitions that
//! candidate space along the DTD's element hierarchy and runs the shards
//! on a small work-stealing pool, with a merge that is *deterministic by
//! construction*: results carry their original enumeration index and are
//! restored to enumeration order before any downstream processing, so the
//! output is byte-identical for every shard count and thread count —
//! including the sequential run.
//!
//! # Why shard by root-child fragment
//!
//! Two candidates whose paths live under different children of the DTD
//! root touch (mostly) disjoint regions of `paths(D)`: the chase states
//! they saturate overlap only near the root. Grouping such candidates
//! into one shard keeps each worker's cache footprint coherent and gives
//! the shards a semantic identity (`chase.shard` spans are labeled with
//! the fragment), which the fault-injection and observability harnesses
//! exploit. Candidates that straddle fragments — an LHS path under one
//! root child, the value path under another, or a path of depth < 2 —
//! go to a single trailing *frontier* shard.
//!
//! Correctness never depends on the partition: any grouping of the index
//! set yields the same merged output, because the queries are independent
//! and the merge restores enumeration order. The partition is purely a
//! locality/scheduling choice, which is what makes `coalesced` safe.

use crate::fd::ResolvedFd;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use xnf_dtd::{PathId, PathSet};
use xnf_govern::{Budget, Exhausted};

/// A partition of candidate indices `0..n` into shards.
///
/// Shards are ordered: element-fragment shards first (by the fragment's
/// [`PathId`], i.e. BFS order), then the frontier shard of cross-fragment
/// candidates. Within a shard, indices stay in enumeration order. The
/// identity `plan.shards().concat().sorted() == 0..n` always holds.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    shards: Vec<Shard>,
}

/// One shard of a [`ShardPlan`]: a label (for spans and reports) plus the
/// candidate indices it owns, in enumeration order.
#[derive(Debug, Clone)]
pub struct Shard {
    /// The root-child fragment anchoring this shard, or `None` for the
    /// frontier shard of cross-fragment candidates.
    pub fragment: Option<PathId>,
    /// Candidate indices (into the caller's enumeration), ascending.
    pub items: Vec<usize>,
}

impl ShardPlan {
    /// Builds the natural plan from per-candidate fragment keys:
    /// `keys[i]` is the root-child fragment of candidate `i`, or `None`
    /// for frontier candidates (see [`candidate_fragment`]).
    pub fn new(keys: &[Option<PathId>]) -> ShardPlan {
        let mut by_fragment: BTreeMap<PathId, Vec<usize>> = BTreeMap::new();
        let mut frontier = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            match key {
                Some(f) => by_fragment.entry(*f).or_default().push(i),
                None => frontier.push(i),
            }
        }
        let mut shards: Vec<Shard> = by_fragment
            .into_iter()
            .map(|(fragment, items)| Shard {
                fragment: Some(fragment),
                items,
            })
            .collect();
        if !frontier.is_empty() {
            shards.push(Shard {
                fragment: None,
                items: frontier,
            });
        }
        ShardPlan { shards }
    }

    /// The shards, in execution order.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Coalesces the plan into at most `n` shards by round-robin
    /// assignment (shard `k` joins bucket `k mod n`), preserving shard
    /// order inside each bucket. Used by the differential suite to pin
    /// shard counts 1/2/4 and by callers that want coarser scheduling
    /// units than the DTD's fragment count. `n == 0` is treated as 1.
    pub fn coalesced(&self, n: usize) -> ShardPlan {
        let n = n.max(1).min(self.shards.len().max(1));
        let mut buckets: Vec<Shard> = (0..n)
            .map(|_| Shard {
                fragment: None,
                items: Vec::new(),
            })
            .collect();
        for (k, shard) in self.shards.iter().enumerate() {
            let b = &mut buckets[k % n];
            if b.items.is_empty() {
                b.fragment = shard.fragment;
            }
            b.items.extend_from_slice(&shard.items);
        }
        buckets.retain(|b| !b.items.is_empty());
        ShardPlan { shards: buckets }
    }
}

/// The root-child fragment of one `(FD, value path)` candidate, the
/// [`ShardPlan::new`] key: `Some(f)` iff the value path `q` *and* every
/// LHS path of `fd` lie under the same root-child element `f`; `None`
/// (frontier) otherwise — including root-level paths, which have no
/// root-child ancestor.
pub fn candidate_fragment(paths: &PathSet, fd: &ResolvedFd, q: PathId) -> Option<PathId> {
    let fragment = paths.ancestor_at(q, 2)?;
    fd.lhs
        .iter()
        .all(|&l| paths.ancestor_at(l, 2) == Some(fragment))
        .then_some(fragment)
}

/// Runs `test` over every candidate of `plan` and returns the hits tagged
/// with their original enumeration index, **in enumeration order**.
///
/// Scheduling: shards are the work units. With `threads <= 1` (or a
/// single shard) they run in order on the calling thread and nothing is
/// spawned; otherwise the calling thread and `threads - 1` scoped
/// helpers pull shard indices from a shared cursor (work stealing — a
/// worker that drew a cheap shard immediately takes the next one, so
/// skewed fragment sizes do not serialize the sweep). `threads == 0`
/// asks [`std::thread::available_parallelism`].
///
/// Determinism: each worker evaluates its shard's candidates in order
/// and records `(index, hit)` pairs; after the helpers join, the merge
/// concatenates per-shard results in shard order and sorts by original
/// index. The schedule therefore cannot influence the output — only the
/// *set* of hits matters, and that is fixed by `test` being pure.
///
/// Governance: every shard start charges `budget` at `chase.shard` and
/// the merge charges `chase.merge`, each under a matching recorder span.
/// On exhaustion the first error in shard order is returned; with a
/// shared cancelling budget the sibling workers wind down at their next
/// checkpoint.
pub fn run_sharded<T, F>(
    plan: &ShardPlan,
    threads: usize,
    budget: &Budget,
    test: F,
) -> Result<Vec<(usize, T)>, Exhausted>
where
    T: Send,
    F: Fn(usize) -> Result<Option<T>, Exhausted> + Sync,
{
    let shards = plan.shards();
    let threads = match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(shards.len().max(1));

    let run_shard = |shard: &Shard| -> Result<Vec<(usize, T)>, Exhausted> {
        budget.checkpoint("chase.shard")?;
        let _span = budget.recorder().span("chase.shard", "implication");
        let mut hits = Vec::new();
        for &i in &shard.items {
            if let Some(hit) = test(i)? {
                hits.push((i, hit));
            }
        }
        Ok(hits)
    };

    let mut per_shard: Vec<Result<Vec<(usize, T)>, Exhausted>> = if threads <= 1 {
        shards.iter().map(run_shard).collect()
    } else {
        let cursor = AtomicUsize::new(0);
        let drain = || {
            let mut mine = Vec::new();
            loop {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(shard) = shards.get(k) else {
                    return mine;
                };
                mine.push((k, run_shard(shard)));
            }
        };
        let mut drawn = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(drain)).collect();
            let mut drawn = drain();
            for h in helpers {
                drawn.extend(h.join().expect("chase shard worker panicked"));
            }
            drawn
        });
        // Every shard index was drawn exactly once: back to shard order.
        drawn.sort_unstable_by_key(|&(k, _)| k);
        drawn.into_iter().map(|(_, r)| r).collect()
    };

    budget.checkpoint("chase.merge")?;
    let _span = budget.recorder().span("chase.merge", "implication");
    let mut out = Vec::new();
    for r in per_shard.drain(..) {
        out.extend(r?);
    }
    // Shards partition the index range but interleave it (the frontier
    // shard collects indices from everywhere), so concatenation in shard
    // order is not enumeration order; the sort restores it. Indices are
    // unique, hence the order is total and schedule-independent.
    out.sort_unstable_by_key(|&(i, _)| i);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::XmlFdSet;
    use crate::fixtures::university_dtd;

    fn university_plan() -> (ShardPlan, usize) {
        let dtd = university_dtd();
        let paths = dtd.paths().unwrap();
        let sigma = XmlFdSet::parse(crate::fd::UNIVERSITY_FDS)
            .unwrap()
            .resolve(&paths)
            .unwrap();
        let paths = &paths;
        let keys: Vec<Option<PathId>> = sigma
            .iter()
            .flat_map(|fd| {
                fd.rhs
                    .iter()
                    .map(move |&q| candidate_fragment(paths, fd, q))
            })
            .collect();
        let n = keys.len();
        (ShardPlan::new(&keys), n)
    }

    #[test]
    fn plan_partitions_the_index_range() {
        let (plan, n) = university_plan();
        for coalesce in [1, 2, 4, usize::MAX] {
            let plan = plan.coalesced(coalesce.min(n.max(1)));
            let mut all: Vec<usize> = plan
                .shards()
                .iter()
                .flat_map(|s| s.items.iter().copied())
                .collect();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>());
            assert!(plan.shards().iter().all(|s| !s.items.is_empty()));
        }
    }

    #[test]
    fn frontier_shard_is_last() {
        let (plan, _) = university_plan();
        let frontier: Vec<usize> = plan
            .shards()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.fragment.is_none())
            .map(|(i, _)| i)
            .collect();
        assert!(frontier.len() <= 1);
        if let Some(&i) = frontier.first() {
            assert_eq!(i, plan.shards().len() - 1);
        }
    }

    #[test]
    fn sharded_run_is_schedule_independent() {
        let (plan, n) = university_plan();
        let test = |i: usize| -> Result<Option<usize>, Exhausted> {
            // An arbitrary pure predicate with a non-trivial hit pattern.
            Ok((i % 3 != 1).then_some(i * i))
        };
        let budget = Budget::unlimited();
        let baseline = run_sharded(&plan.coalesced(1), 1, &budget, test).unwrap();
        assert!(baseline.len() < n.max(1) && !baseline.is_empty());
        for shards in [1, 2, 4] {
            for threads in [1, 2, 4] {
                let got = run_sharded(&plan.coalesced(shards), threads, &budget, test).unwrap();
                assert_eq!(got, baseline, "shards={shards} threads={threads}");
            }
        }
    }

    #[test]
    fn exhaustion_surfaces_from_any_shard() {
        let (plan, _) = university_plan();
        // A budget so small the first shard checkpoint trips it.
        let budget = Budget::builder().fuel(0).build();
        let test = |_i: usize| -> Result<Option<usize>, Exhausted> { Ok(None) };
        for threads in [1, 2] {
            assert!(run_sharded(&plan, threads, &budget, test).is_err());
        }
    }
}
