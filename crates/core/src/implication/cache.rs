//! A memoizing wrapper around the chase-based implication oracle.
//!
//! One normalization run asks the same implication queries many times
//! over: the anomalous-FD search tests `S → parent(q)` for every FD and
//! value path, the guard-materialization pass re-asks exactly those
//! queries, minimization re-tests subsets, and the XNF checker repeats
//! the search verbatim on the final design. [`ImplicationCache`] interns
//! every [`ResolvedFd`] it sees, identifies each Σ by the id sequence of
//! its FDs, and memoizes `(Σ, φ) → bool` verdicts so each distinct query
//! costs exactly one chase run.
//!
//! Correctness rests on the chase being a *pure function* of
//! `(D, Σ, φ)`: verdicts are deterministic, so serving a memoized answer
//! is observationally identical to re-running the chase (the
//! `differential_cache` integration tests check this verdict-for-verdict
//! over randomized corpora). The cache is `Sync` — interior state sits
//! behind a [`Mutex`] — so one instance can serve all workers of the
//! parallel anomalous-FD search.

use super::chase::{Chase, ChaseOutcome};
use super::Implication;
use crate::fd::ResolvedFd;
use crate::UNLIMITED;
use std::collections::HashMap;
use std::sync::Mutex;
use xnf_govern::{Budget, Exhausted};

/// Interned-key memo tables; all lookups are exact (no fingerprint
/// collisions possible).
#[derive(Debug, Default)]
struct Tables {
    /// Each distinct FD (by value) gets a dense id.
    fds: HashMap<ResolvedFd, u32>,
    /// Each distinct Σ, as the sequence of its FDs' ids, gets a dense id.
    sigmas: HashMap<Box<[u32]>, u32>,
    /// Memoized verdicts `(σ-id, φ-id) → (D, Σ) ⊢ φ`.
    verdicts: HashMap<(u32, u32), bool>,
}

impl Tables {
    fn intern_fd(&mut self, fd: &ResolvedFd) -> u32 {
        if let Some(&id) = self.fds.get(fd) {
            return id;
        }
        let id = u32::try_from(self.fds.len()).expect("fewer than 2^32 distinct FDs");
        self.fds.insert(fd.clone(), id);
        id
    }

    fn intern_sigma(&mut self, sigma: &[ResolvedFd]) -> u32 {
        let key: Box<[u32]> = sigma.iter().map(|fd| self.intern_fd(fd)).collect();
        if let Some(&id) = self.sigmas.get(&key) {
            return id;
        }
        let id = u32::try_from(self.sigmas.len()).expect("fewer than 2^32 distinct sigmas");
        self.sigmas.insert(key, id);
        id
    }
}

/// A memoizing, thread-shareable [`Implication`] oracle wrapping a
/// [`Chase`].
///
/// Construct one per `(D, Σ)` working set with [`ImplicationCache::new`],
/// passing the Σ slice the hot loop will query with; that slice is
/// interned once up front and recognized by address afterwards, so the
/// per-call overhead on the hot path is two hash lookups. Queries against
/// *other* Σ slices (notably the empty Σ behind
/// [`Implication::is_trivial`], which is also pre-interned) are still
/// memoized, just keyed by value.
///
/// Cache traffic is reported on the wrapped chase's
/// [`ChaseStats`](super::chase::ChaseStats) (`cache_hits` /
/// `cache_misses`).
#[derive(Debug)]
pub struct ImplicationCache<'a> {
    chase: &'a Chase<'a>,
    /// The working Σ, kept borrowed so its address stays valid for the
    /// fast-path identity check in [`Self::sigma_id`].
    primary: &'a [ResolvedFd],
    primary_id: u32,
    empty_id: u32,
    tables: Mutex<Tables>,
}

impl<'a> ImplicationCache<'a> {
    /// Wraps `chase`, pre-interning `sigma` (the working Σ) and the
    /// empty Σ.
    pub fn new(chase: &'a Chase<'a>, sigma: &'a [ResolvedFd]) -> ImplicationCache<'a> {
        let mut tables = Tables::default();
        let primary_id = tables.intern_sigma(sigma);
        let empty_id = tables.intern_sigma(&[]);
        ImplicationCache {
            chase,
            primary: sigma,
            primary_id,
            empty_id,
            tables: Mutex::new(tables),
        }
    }

    /// The wrapped chase (for its stats or direct queries).
    pub fn chase(&self) -> &'a Chase<'a> {
        self.chase
    }

    /// Number of memoized verdicts so far.
    pub fn len(&self) -> usize {
        self.tables.lock().expect("cache lock").verdicts.len()
    }

    /// Whether no verdict has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn sigma_id(&self, tables: &mut Tables, sigma: &[ResolvedFd]) -> u32 {
        if std::ptr::eq(sigma, self.primary) {
            self.primary_id
        } else if sigma.is_empty() {
            self.empty_id
        } else {
            tables.intern_sigma(sigma)
        }
    }

    /// The memo lookup behind both trait methods. `budget` meters the
    /// lookup and, on a miss, the chase run: [`Implication::implies`]
    /// passes the unlimited budget, whose checkpoints are no-ops.
    fn lookup(
        &self,
        budget: &Budget,
        sigma: &[ResolvedFd],
        fd: &ResolvedFd,
    ) -> Result<bool, Exhausted> {
        budget.checkpoint("cache.lookup")?;
        let key = {
            let mut tables = self.tables.lock().expect("cache lock");
            let sid = self.sigma_id(&mut tables, sigma);
            let fid = tables.intern_fd(fd);
            if let Some(&verdict) = tables.verdicts.get(&(sid, fid)) {
                self.chase.stats().cache_hits.bump();
                return Ok(verdict);
            }
            (sid, fid)
        };
        // Chase outside the lock: concurrent workers may race on the same
        // key, but the chase is deterministic, so both compute the same
        // verdict and the duplicated work is bounded by the worker count.
        self.chase.stats().cache_misses.bump();
        // Only completed verdicts are memoized: an exhausted chase run
        // returns here via `?` without touching the tables, so a rerun
        // with a larger budget starts from trustworthy entries only.
        let outcome = self.chase.run_with(budget, sigma, fd)?;
        let verdict = matches!(outcome, ChaseOutcome::Implied);
        self.tables
            .lock()
            .expect("cache lock")
            .verdicts
            .insert(key, verdict);
        Ok(verdict)
    }
}

impl Implication for ImplicationCache<'_> {
    fn implies(&self, sigma: &[ResolvedFd], fd: &ResolvedFd) -> bool {
        match self.lookup(UNLIMITED, sigma, fd) {
            Ok(verdict) => verdict,
            Err(_) => unreachable!("an unlimited budget cannot exhaust"),
        }
    }

    fn try_implies(&self, sigma: &[ResolvedFd], fd: &ResolvedFd) -> Result<bool, Exhausted> {
        self.lookup(self.chase.budget(), sigma, fd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{XmlFdSet, UNIVERSITY_FDS};
    use crate::fixtures::university_dtd;

    fn is_sync<T: Sync>() {}

    #[test]
    fn cache_is_sync() {
        is_sync::<ImplicationCache<'_>>();
    }

    #[test]
    fn agrees_with_chase_and_counts_traffic() {
        let dtd = university_dtd();
        let paths = dtd.paths().unwrap();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS)
            .unwrap()
            .resolve(&paths)
            .unwrap();
        let chase = Chase::new(&dtd, &paths);
        let cache = ImplicationCache::new(&chase, &sigma);
        for fd in &sigma {
            for &q in &fd.rhs {
                let single = ResolvedFd::from_ids(fd.lhs.iter().copied(), [q]);
                let raw = chase.implies(&sigma, &single);
                // First ask misses, second hits, both agree with the chase.
                assert_eq!(cache.implies(&sigma, &single), raw);
                assert_eq!(cache.implies(&sigma, &single), raw);
                assert_eq!(cache.is_trivial(&single), chase.is_trivial(&single));
            }
        }
        let stats = chase.stats().snapshot();
        assert!(stats.get("cache.hits") > 0, "repeat queries must hit");
        assert!(stats.get("cache.misses") > 0, "first queries must miss");
        assert_eq!(cache.len() as u64, stats.get("cache.misses"));
    }

    #[test]
    fn trivial_and_sigma_verdicts_do_not_collide() {
        // The same φ asked under Σ and under ∅ must occupy distinct cache
        // slots — a regression guard for the Σ-identification scheme.
        let dtd = university_dtd();
        let paths = dtd.paths().unwrap();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS)
            .unwrap()
            .resolve(&paths)
            .unwrap();
        let chase = Chase::new(&dtd, &paths);
        let cache = ImplicationCache::new(&chase, &sigma);
        // FD1: courses.course.@cno -> courses.course is implied under Σ
        // (it is *in* Σ) but not trivial.
        let fd = sigma[0].clone();
        assert!(cache.implies(&sigma, &fd));
        assert!(!cache.is_trivial(&fd));
        assert!(cache.implies(&sigma, &fd), "memo survives the ∅ query");
    }
}
