//! Incremental re-checking of implication verdicts under `(D, Σ)` edits.
//!
//! The normalization workflow repeatedly asks `(D, Σ) ⊢ φ` for slowly
//! drifting specs: an editor tweaks one element declaration, adds one FD,
//! drops another — and the tooling re-validates the whole constraint set.
//! Re-chasing every query from scratch discards the dominant invariant of
//! such edits: most chase runs never *looked at* the part of the spec
//! that changed. [`IncrementalCache`] makes that observation precise and
//! exact, using the [`RunTrace`] footprint recorded by
//! [`Chase::run_traced`].
//!
//! # Exact-transfer argument
//!
//! The chase is deterministic: given the same `paths(D)` (same BFS
//! order), the same Σ in the same order, and the same query, it performs
//! the identical sequence of derivations. A cached verdict therefore
//! transfers to an edited spec iff the edit cannot alter any decision
//! the original run took. The decisions read three kinds of data, each
//! covered by one trace field and one transfer rule:
//!
//! * **Path states.** Every derivation reads per-path ternary facts.
//!   Paths the run never set ([`RunTrace::touched`] false) were read —
//!   if at all — as `Unknown`, and every rule predicate tolerates
//!   `Unknown` conservatively. A DTD edit is summarized at two
//!   granularities (see [`DtdDelta`]): a *changed element set* (added,
//!   removed, content-redeclared or attribute-reordered element types,
//!   plus the root on a root change), which dirties every path walking
//!   through such an element, and a per-element *added/removed attribute
//!   set* for pure attribute-list edits, which dirties only the affected
//!   attribute paths themselves (the element's structure — hence every
//!   other path's existence and relative BFS position — is unchanged,
//!   and an attribute coordinate referenced by no clean query, FD or
//!   touched path only ever receives dead-end structural null-facts).
//!   Dirty paths may appear, disappear, or change BFS
//!   position — but a kept entry's touched paths are all clean, so they
//!   all still exist, and the relative BFS order of clean paths is
//!   preserved (within one level, sibling order comes from the parent's
//!   unchanged declaration; across levels, order is depth-first by the
//!   parents' order, inductively clean). New or dirty paths enter scans
//!   only through `Unknown`-rejecting predicates, so they are skipped
//!   exactly like the old run skipped untouched paths.
//! * **Σ rule applications.** Saturation applies the FDs in canonical
//!   order; the trace marks the ones that ever made progress
//!   ([`RunTrace::fired`]). A never-fired FD was a state-preserving
//!   no-op at every application, so *removing* it leaves the derivation
//!   sequence intact — but only if it also never served as a case-split
//!   pivot ([`RunTrace::pivot_source`]), and only if the surviving FDs
//!   keep their relative canonical order (applying the same no-ops and
//!   firings against *permuted* intermediate states is not a replay; on
//!   an order flip the cache flushes wholesale). An *added* FD whose LHS
//!   paths were all untouched can never fire (the basic, swap and
//!   contrapositive forms each require a known LHS fact), so it is a
//!   saturation no-op too.
//! * **Pivot scans.** `find_blocked_premise` scans a *prefix* of Σ and
//!   may select a pivot from an FD that never fired — an added FD with
//!   untouched LHS can still be chosen (its untouched premises have open
//!   null-status, and zone dischargeability does not require touched
//!   state). [`RunTrace::scan_reach`] bounds every scan: an added FD
//!   whose canonical position lies strictly *after* the deepest examined
//!   old FD is never reached by any replayed scan. When some scan fell
//!   through all of Σ (`scan_reach == usize::MAX`), no insertion
//!   position is safe and any Σ addition invalidates the entry.
//!
//! A kept entry is thus replayed *literally* by the edited spec: same
//! derivations, same split tree, same verdict — which is what the
//! `incremental == from-scratch` differential suite
//! (`tests/differential_incremental.rs`) checks byte-for-byte, and what
//! experiment E21 measures the speedup of.
//!
//! # Monotone-transfer argument
//!
//! The replay argument is trace-based and therefore conservative: a
//! *not-implied* verdict whose refuting run fired (or pivoted on) a
//! removed FD is invalidated even though the verdict provably cannot
//! flip. Implication is monotone in Σ — a counterexample tree for
//! `(D, Σ) ⊬ φ` satisfies every FD of Σ, hence every FD of any
//! Σ′ ⊆ Σ, so it refutes `(D, Σ′) ⊢ φ` too. The same counterexample
//! survives a pure attribute-granularity DTD edit (`changed` empty)
//! when neither φ nor the surviving Σ mentions an edited attribute:
//! removed attribute coordinates are simply projected away, added ones
//! are populated with fresh per-vertex values no FD or query observes.
//! [`IncrementalCache::apply_delta`] therefore keeps every not-implied
//! entry across a removal-only Σ edit combined with an
//! attribute-granularity DTD edit, *regardless of its trace*. Such an
//! entry's trace no longer describes a run under the current spec, so
//! it is marked semantic-only: future edits can keep it through the
//! monotone rule again, but never through trace replay.

use crate::fd::{ResolvedFd, XmlFd, XmlFdSet};
use crate::implication::chase::{Chase, ChaseOutcome, RunTrace};
use crate::Result;
use std::collections::{BTreeMap, BTreeSet};
use xnf_dtd::{Dtd, Path, PathSet, Step};
use xnf_govern::Budget;

/// A DTD edit: the new DTD plus a two-granularity summary of what
/// differs from the old one.
///
/// `changed` names the element types whose *structure* differs — added,
/// removed, content-model redeclared, attribute list *reordered*, plus
/// both root names on a root change. A path through such an element may
/// appear, disappear, or change BFS position, so it dirties everything
/// it prefixes.
///
/// A pure attribute-list edit that only *adds or removes* attributes
/// (surviving attributes keeping their relative order — the shape every
/// move-attribute normalization step has) is recorded per attribute in
/// `attrs_changed` instead: only the added/removed attribute paths
/// themselves are dirty. The element keeps its content model, so its
/// element path, its descendants and its untouched sibling attributes
/// all survive with their relative BFS order intact, and chase runs
/// that never wrote those attribute coordinates replay literally (an
/// unreferenced attribute coordinate only ever receives structural
/// null-facts propagated from its parent, which no surviving read
/// depends on).
#[derive(Debug, Clone)]
pub struct DtdDelta {
    /// The edited DTD.
    pub new: Dtd,
    /// Element type names whose structure differs between old and new.
    pub changed: BTreeSet<Box<str>>,
    /// Per element type: attribute names added or removed by a pure
    /// attribute-list edit (element structure otherwise unchanged).
    pub attrs_changed: BTreeMap<Box<str>, BTreeSet<Box<str>>>,
}

impl DtdDelta {
    /// Diffs two DTDs into a delta carrying `new`.
    pub fn between(old: &Dtd, new: &Dtd) -> DtdDelta {
        let mut changed: BTreeSet<Box<str>> = BTreeSet::new();
        let mut attrs_changed: BTreeMap<Box<str>, BTreeSet<Box<str>>> = BTreeMap::new();
        for dtd in [old, new] {
            for id in dtd.elements() {
                let name = dtd.name(id);
                if changed.contains(name) || attrs_changed.contains_key(name) {
                    continue;
                }
                let (Some(old_id), Some(new_id)) = (old.elem_id(name), new.elem_id(name)) else {
                    changed.insert(name.into());
                    continue;
                };
                if old.content(old_id) != new.content(new_id) {
                    changed.insert(name.into());
                    continue;
                }
                let old_attrs: Vec<&str> = old.attrs(old_id).collect();
                let new_attrs: Vec<&str> = new.attrs(new_id).collect();
                if old_attrs == new_attrs {
                    continue;
                }
                // Pure add/remove keeps the survivors' relative order
                // (each list filtered to the common set must agree);
                // anything else — a reorder — is a structural change.
                let old_set: BTreeSet<&str> = old_attrs.iter().copied().collect();
                let new_set: BTreeSet<&str> = new_attrs.iter().copied().collect();
                let order_kept = old_attrs
                    .iter()
                    .filter(|a| new_set.contains(*a))
                    .eq(new_attrs.iter().filter(|a| old_set.contains(*a)));
                if order_kept {
                    attrs_changed.insert(
                        name.into(),
                        old_set
                            .symmetric_difference(&new_set)
                            .map(|a| Box::from(*a))
                            .collect(),
                    );
                } else {
                    changed.insert(name.into());
                }
            }
        }
        if old.root_name() != new.root_name() {
            changed.insert(old.root_name().into());
            changed.insert(new.root_name().into());
        }
        // A structurally-changed element subsumes its attribute diffs.
        attrs_changed.retain(|name, _| !changed.contains(name));
        DtdDelta {
            new: new.clone(),
            changed,
            attrs_changed,
        }
    }

    /// The identity delta (no declaration changed).
    pub fn unchanged(dtd: &Dtd) -> DtdDelta {
        DtdDelta {
            new: dtd.clone(),
            changed: BTreeSet::new(),
            attrs_changed: BTreeMap::new(),
        }
    }
}

/// A Σ edit: the new FD set plus the FDs added and removed relative to
/// the old one (as written; canonicalization happens at resolution).
#[derive(Debug, Clone)]
pub struct SigmaDelta {
    /// The edited FD set.
    pub new: XmlFdSet,
    /// FDs present in `new` but not in the old set.
    pub added: Vec<XmlFd>,
    /// FDs present in the old set but not in `new`.
    pub removed: Vec<XmlFd>,
}

impl SigmaDelta {
    /// Diffs two FD sets into a delta carrying `new`.
    pub fn between(old: &XmlFdSet, new: &XmlFdSet) -> SigmaDelta {
        let old_set: BTreeSet<&XmlFd> = old.iter().collect();
        let new_set: BTreeSet<&XmlFd> = new.iter().collect();
        SigmaDelta {
            new: new.clone(),
            added: new
                .iter()
                .filter(|f| !old_set.contains(f))
                .cloned()
                .collect(),
            removed: old
                .iter()
                .filter(|f| !new_set.contains(f))
                .cloned()
                .collect(),
        }
    }

    /// The identity delta (same FD set).
    pub fn unchanged(sigma: &XmlFdSet) -> SigmaDelta {
        SigmaDelta {
            new: sigma.clone(),
            added: Vec::new(),
            removed: Vec::new(),
        }
    }
}

/// What [`IncrementalCache::apply_delta`] did to the cached entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvalidationReport {
    /// Entries whose verdict transferred to the new spec (trace replays
    /// and monotone keeps together).
    pub kept: usize,
    /// The subset of `kept` transferred by the monotone rule alone:
    /// their verdict is sound but their trace is stale.
    pub kept_semantic: usize,
    /// Entries invalidated; the next lookup re-chases them.
    pub invalidated: usize,
    /// Canonical Σ entries added by the delta.
    pub sigma_added: usize,
    /// Canonical Σ entries removed by the delta.
    pub sigma_removed: usize,
    /// Element types whose declaration changed.
    pub dtd_changed: usize,
    /// The surviving Σ entries changed relative canonical order, which
    /// voids every trace replay; only monotone keeps survive such an
    /// edit.
    pub order_flush: bool,
}

/// One cached verdict plus the trace justifying its transfer.
#[derive(Debug, Clone)]
struct Entry {
    implied: bool,
    /// Owned paths the run touched — path-*name* keyed (not `PathId`),
    /// so the set survives DTD edits that renumber the BFS interning.
    touched: BTreeSet<Path>,
    /// Per canonical Σ index of the *current* spec.
    fired: Vec<bool>,
    pivot_source: Vec<bool>,
    scan_reach: usize,
    /// The entry was once kept by the monotone rule: its verdict is
    /// sound but its trace no longer replays under the current spec, so
    /// trace-based transfer is off for it permanently.
    semantic_only: bool,
}

/// A memoizing implication oracle that survives `(D, Σ)` edits.
///
/// Verdicts are cached per query FD together with their [`RunTrace`];
/// [`IncrementalCache::apply_delta`] keeps exactly the entries whose
/// recorded footprint is disjoint from the edit (see the module docs for
/// the soundness argument) and invalidates the rest, which re-chase
/// lazily on their next lookup. An edit sequence whose steps touch small
/// parts of the spec therefore re-pays only for the queries that could
/// have changed — the from-scratch baseline re-pays for all of them
/// (experiment E21).
///
/// Unlike [`ImplicationCache`](crate::implication::ImplicationCache)
/// (borrowing, single-spec, `Sync`), this cache *owns* its spec and is
/// single-threaded; the two compose — the sharded search uses the former
/// within one spec, this one carries verdicts across specs.
#[derive(Debug)]
pub struct IncrementalCache {
    dtd: Dtd,
    sigma: XmlFdSet,
    budget: Budget,
    entries: BTreeMap<XmlFd, Entry>,
    /// Canonical `XmlFd` forms of `sigma`, in canonical (resolved)
    /// order — the index space the entries' `fired`/`pivot_source`
    /// vectors live in. Memoized so `apply_delta` only canonicalizes
    /// the *new* side of an edit; `None` until first computed.
    canon: Option<Vec<XmlFd>>,
    /// The enumerated paths of `dtd` and the resolved form of `sigma`,
    /// memoized across `apply_delta` → `implies_all` round trips so an
    /// edit step pays path enumeration and Σ resolution once, not twice.
    prepared: Option<(PathSet, Vec<ResolvedFd>)>,
}

impl IncrementalCache {
    /// An empty cache for `(dtd, sigma)` with an unlimited budget.
    pub fn new(dtd: Dtd, sigma: XmlFdSet) -> IncrementalCache {
        IncrementalCache {
            dtd,
            sigma,
            budget: Budget::unlimited(),
            entries: BTreeMap::new(),
            canon: None,
            prepared: None,
        }
    }

    /// Installs a resource [`Budget`]: lookups charge `cache.lookup` and
    /// delta application charges `cache.invalidate` per entry, surfacing
    /// [`CoreError::Exhausted`](crate::CoreError) instead of partial
    /// state (an erroring `apply_delta` leaves the cache unchanged and
    /// still consistent with the *old* spec).
    pub fn with_budget(mut self, budget: Budget) -> IncrementalCache {
        self.budget = budget;
        self
    }

    /// The current DTD.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// The current FD set.
    pub fn sigma(&self) -> &XmlFdSet {
        &self.sigma
    }

    /// The number of cached verdicts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no verdicts are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `(D, Σ) ⊢ fd`, served from cache when possible.
    pub fn implies(&mut self, fd: &XmlFd) -> Result<bool> {
        Ok(self.implies_all(std::slice::from_ref(fd))?[0])
    }

    /// Batch [`IncrementalCache::implies`]: hits are served without
    /// building a chase engine at all — an all-hit batch (the typical
    /// post-`apply_delta` re-check of an edit that missed everything)
    /// does zero chase work.
    pub fn implies_all(&mut self, fds: &[XmlFd]) -> Result<Vec<bool>> {
        self.budget.checkpoint("cache.lookup")?;
        if fds.iter().any(|f| !self.entries.contains_key(f)) {
            if self.prepared.is_none() {
                let paths = self.dtd.paths()?;
                let resolved = self.sigma.resolve(&paths)?;
                self.prepared = Some((paths, resolved));
            }
            let (paths, sigma) = self.prepared.as_ref().expect("just prepared");
            if self.canon.is_none() {
                self.canon = Some(sigma.iter().map(|r| r.to_fd(paths)).collect());
            }
            let chase = Chase::new(&self.dtd, paths).with_budget(self.budget.clone());
            let mut fresh: Vec<(XmlFd, Entry)> = Vec::new();
            for fd in fds {
                if self.entries.contains_key(fd) || fresh.iter().any(|(k, _)| k == fd) {
                    continue;
                }
                self.budget.checkpoint("cache.lookup")?;
                let resolved = fd.resolve(paths)?;
                // Governed + traced: charge the installed budget for the
                // chase work and drop the batch on exhaustion — `fresh` is
                // only committed below, so a partial batch never pollutes
                // the cache.
                let (outcome, trace) = chase.try_run_traced(sigma, &resolved)?;
                fresh.push((fd.clone(), Entry::from_trace(outcome, trace, paths)));
            }
            for (fd, entry) in fresh {
                self.entries.insert(fd, entry);
            }
        }
        Ok(fds.iter().map(|f| self.entries[f].implied).collect())
    }

    /// Applies a `(D, Σ)` edit: transfers every cached verdict whose
    /// recorded footprint the edit provably cannot have altered,
    /// invalidates the rest, and swaps in the new spec.
    ///
    /// The change sets are recomputed here against the cache's *own*
    /// current spec (the deltas' `changed`/`added`/`removed` fields are
    /// informational), so a stale delta degrades to extra invalidation,
    /// never to a wrong transfer. Queries or FDs of the new Σ that do
    /// not resolve against the new DTD's paths are an error; entries
    /// whose *query* no longer resolves are simply dropped.
    pub fn apply_delta(
        &mut self,
        dtd_delta: &DtdDelta,
        sigma_delta: &SigmaDelta,
    ) -> Result<InvalidationReport> {
        let recomputed = DtdDelta::between(&self.dtd, &dtd_delta.new);
        let (changed, attrs_changed) = (recomputed.changed, recomputed.attrs_changed);
        let new_paths = dtd_delta.new.paths()?;
        let new_resolved = sigma_delta.new.resolve(&new_paths)?;
        // Canonical Σ sequences, keyed by their path-space-independent
        // (hence comparable across the edit) `XmlFd` forms. The old side
        // is usually memoized from the previous edit or fill.
        let computed_old: Vec<XmlFd>;
        let old_fds: &[XmlFd] = match &self.canon {
            Some(c) => c,
            None => {
                let old_paths = self.dtd.paths()?;
                let old_resolved = self.sigma.resolve(&old_paths)?;
                computed_old = old_resolved.iter().map(|r| r.to_fd(&old_paths)).collect();
                &computed_old
            }
        };
        let new_fds: Vec<XmlFd> = new_resolved.iter().map(|r| r.to_fd(&new_paths)).collect();
        let new_index: BTreeMap<&XmlFd, usize> =
            new_fds.iter().enumerate().map(|(i, f)| (f, i)).collect();
        let old_to_new: Vec<Option<usize>> =
            old_fds.iter().map(|f| new_index.get(f).copied()).collect();
        let survivors: Vec<usize> = old_to_new.iter().flatten().copied().collect();
        let order_ok = survivors.windows(2).all(|w| w[0] < w[1]);
        let old_set: BTreeSet<&XmlFd> = old_fds.iter().collect();
        let added: Vec<usize> = new_fds
            .iter()
            .enumerate()
            .filter(|(_, f)| !old_set.contains(f))
            .map(|(i, _)| i)
            .collect();
        // Entry-independent views of the Σ edit, hoisted out of the
        // per-entry decide loop: the removed canonical indices, and
        // whether the canonical sequence is unchanged outright (the
        // common DTD-only edit), in which case the entries' Σ-indexed
        // vectors transfer verbatim.
        let removed_idx: Vec<usize> = old_to_new
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_none())
            .map(|(j, _)| j)
            .collect();
        let sigma_identity = old_fds == new_fds.as_slice();
        let dirty = |p: &Path| {
            let steps = p.steps();
            steps.iter().enumerate().any(|(i, s)| match s {
                Step::Elem(n) => changed.contains(n),
                // An added/removed attribute dirties exactly its own
                // path: `steps[i - 1]` is the owning element (attribute
                // steps only follow element steps).
                Step::Attr(a) => matches!(
                    steps.get(i.wrapping_sub(1)),
                    Some(Step::Elem(n))
                        if attrs_changed.get(n).is_some_and(|d| d.contains(a))
                ),
                _ => false,
            })
        };

        let mut report = InvalidationReport {
            sigma_added: added.len(),
            sigma_removed: old_to_new.iter().filter(|n| n.is_none()).count(),
            dtd_changed: changed.len(),
            order_flush: !order_ok,
            ..InvalidationReport::default()
        };
        // Whether the edit shape admits the monotone rule at all: a
        // removal-only Σ edit (Σ' ⊆ Σ canonically) combined with an
        // attribute-granularity DTD edit. Under such an edit the
        // surviving Σ cannot mention an edited attribute (it resolved
        // against the old paths), so a not-implied verdict whose query
        // still resolves transfers semantically.
        let monotone_edit = changed.is_empty() && added.is_empty();
        #[derive(Clone, Copy)]
        enum Keep {
            Drop,
            Trace,
            Semantic,
        }
        // Decide first (fallible), mutate after: an exhausted budget
        // leaves the cache untouched and consistent with the old spec.
        let mut decisions: Vec<Keep> = Vec::with_capacity(self.entries.len());
        for (query, entry) in &self.entries {
            self.budget.checkpoint("cache.invalidate")?;
            let _span = self
                .budget
                .recorder()
                .span("cache.invalidate", "implication");
            // A query whose every path is clean provably still
            // resolves (each element along it keeps its declaration,
            // so the parent-child chain survives the edit); only dirty
            // queries pay the resolution probe.
            let query_ok = query.lhs().iter().chain(query.rhs()).all(|p| !dirty(p))
                || query.resolve(&new_paths).is_ok();
            let trace_keep = !entry.semantic_only
                && order_ok
                && query_ok
                && entry.touched.iter().all(|p| !dirty(p))
                && removed_idx
                    .iter()
                    .all(|&j| !entry.fired[j] && !entry.pivot_source[j])
                && added.iter().all(|&k| {
                    new_fds[k].lhs().iter().all(|p| !entry.touched.contains(p))
                        && entry.scan_reach != usize::MAX
                        && (entry.scan_reach == 0
                            || matches!(old_to_new[entry.scan_reach - 1], Some(d) if k > d))
                });
            let keep = if trace_keep {
                Keep::Trace
            } else if !entry.implied && monotone_edit && query_ok {
                Keep::Semantic
            } else {
                Keep::Drop
            };
            decisions.push(keep);
        }
        // Infallible from here on. Kept entries move (footprints are
        // reused, not cloned); only their Σ-indexed vectors are rebuilt
        // in the new canonical index space.
        let old_entries = std::mem::take(&mut self.entries);
        for ((query, mut entry), keep) in old_entries.into_iter().zip(decisions) {
            match keep {
                Keep::Drop => {
                    report.invalidated += 1;
                    continue;
                }
                Keep::Semantic => {
                    // The verdict survives; the trace does not. Poison
                    // it so only the monotone rule can keep this entry
                    // in future edits.
                    entry.semantic_only = true;
                    entry.touched.clear();
                    entry.fired = vec![false; new_fds.len()];
                    entry.pivot_source = vec![false; new_fds.len()];
                    entry.scan_reach = usize::MAX;
                    report.kept_semantic += 1;
                }
                Keep::Trace => {
                    if !sigma_identity {
                        let mut fired = vec![false; new_fds.len()];
                        let mut pivot_source = vec![false; new_fds.len()];
                        for (j, &ni) in old_to_new.iter().enumerate() {
                            if let Some(ni) = ni {
                                fired[ni] = entry.fired[j];
                                pivot_source[ni] = entry.pivot_source[j];
                            }
                        }
                        entry.scan_reach = match entry.scan_reach {
                            0 => 0,
                            usize::MAX => usize::MAX,
                            r => match old_to_new[r - 1] {
                                Some(d) => d + 1,
                                None => unreachable!("a removed pivot source invalidates"),
                            },
                        };
                        entry.fired = fired;
                        entry.pivot_source = pivot_source;
                    }
                }
            }
            self.entries.insert(query, entry);
            report.kept += 1;
        }
        self.dtd = dtd_delta.new.clone();
        self.sigma = sigma_delta.new.clone();
        self.canon = Some(new_fds);
        self.prepared = Some((new_paths, new_resolved));
        Ok(report)
    }
}

impl Entry {
    fn from_trace(outcome: ChaseOutcome, trace: RunTrace, paths: &PathSet) -> Entry {
        Entry {
            implied: matches!(outcome, ChaseOutcome::Implied),
            touched: paths
                .iter()
                .filter(|p| trace.touched[p.index()])
                .map(|p| paths.path(p))
                .collect(),
            fired: trace.fired,
            pivot_source: trace.pivot_source,
            scan_reach: trace.scan_reach,
            semantic_only: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{DBLP_FDS, UNIVERSITY_FDS};
    use crate::fixtures::{dblp_dtd, university_dtd};

    /// Every value path of Σ as a `S → parent(q)` query — the shape the
    /// anomalous-FD search asks.
    fn queries(sigma: &XmlFdSet) -> Vec<XmlFd> {
        let mut out = Vec::new();
        for fd in sigma.iter() {
            for q in fd.rhs() {
                out.push(XmlFd::new(fd.lhs().to_vec(), vec![q.clone()]).unwrap());
                if let Some(parent) = q.parent() {
                    out.push(XmlFd::new(fd.lhs().to_vec(), vec![parent]).unwrap());
                }
            }
        }
        out.sort();
        out.dedup();
        out
    }

    fn from_scratch(dtd: &Dtd, sigma: &XmlFdSet, fds: &[XmlFd]) -> Vec<bool> {
        let paths = dtd.paths().unwrap();
        let resolved = sigma.resolve(&paths).unwrap();
        let chase = Chase::new(dtd, &paths);
        fds.iter()
            .map(|f| {
                use crate::implication::Implication;
                chase.implies(&resolved, &f.resolve(&paths).unwrap())
            })
            .collect()
    }

    #[test]
    fn agrees_with_from_scratch_on_first_fill() {
        for (dtd, fds) in [(university_dtd(), UNIVERSITY_FDS), (dblp_dtd(), DBLP_FDS)] {
            let sigma = XmlFdSet::parse(fds).unwrap();
            let qs = queries(&sigma);
            let mut cache = IncrementalCache::new(dtd.clone(), sigma.clone());
            assert_eq!(
                cache.implies_all(&qs).unwrap(),
                from_scratch(&dtd, &sigma, &qs)
            );
            // Second pass is all hits and identical.
            assert_eq!(
                cache.implies_all(&qs).unwrap(),
                from_scratch(&dtd, &sigma, &qs)
            );
        }
    }

    #[test]
    fn sigma_removal_transfers_and_stays_exact() {
        let dtd = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        let qs = queries(&sigma);
        let mut cache = IncrementalCache::new(dtd.clone(), sigma.clone());
        cache.implies_all(&qs).unwrap();
        // Drop the last FD.
        let reduced = XmlFdSet::from_fds(sigma.iter().take(sigma.len() - 1).cloned());
        let report = cache
            .apply_delta(
                &DtdDelta::unchanged(&dtd),
                &SigmaDelta::between(&sigma, &reduced),
            )
            .unwrap();
        assert_eq!(report.kept + report.invalidated, qs.len());
        assert_eq!(
            cache.implies_all(&qs).unwrap(),
            from_scratch(&dtd, &reduced, &qs)
        );
    }

    #[test]
    fn monotone_rule_keeps_refuted_verdicts_across_removal() {
        // Two independent fragments: each fragment's anomaly query
        // (`S → parent`) is refuted by a run that *fires* the other
        // fragment's FD, so trace replay cannot keep it across that
        // FD's removal — but Σ-monotonicity can.
        let (dtd, sigma) = crate::analyze::e22_family(2);
        let qs: Vec<XmlFd> = [
            "root.key01 -> root.val01.item01",
            "root.key02 -> root.val02.item02",
        ]
        .map(|s| XmlFdSet::parse(s).unwrap().iter().next().unwrap().clone())
        .to_vec();
        let mut cache = IncrementalCache::new(dtd.clone(), sigma.clone());
        assert_eq!(cache.implies_all(&qs).unwrap(), vec![false, false]);
        let reduced = XmlFdSet::from_fds(sigma.iter().take(1).cloned());
        let report = cache
            .apply_delta(
                &DtdDelta::unchanged(&dtd),
                &SigmaDelta::between(&sigma, &reduced),
            )
            .unwrap();
        assert!(
            report.kept_semantic > 0,
            "the refuted cross-fragment verdict should transfer semantically: {report:?}"
        );
        assert_eq!(
            cache.implies_all(&qs).unwrap(),
            from_scratch(&dtd, &reduced, &qs)
        );
    }

    #[test]
    fn semantic_entries_invalidate_on_fd_addition() {
        // A semantically-kept refuted verdict must still die when an FD
        // addition could flip it: add exactly the cached query to Σ.
        let (dtd, sigma) = crate::analyze::e22_family(2);
        let query = XmlFdSet::parse("root.key01 -> root.val01.item01")
            .unwrap()
            .iter()
            .next()
            .unwrap()
            .clone();
        let mut cache = IncrementalCache::new(dtd.clone(), sigma.clone());
        assert!(!cache.implies(&query).unwrap());
        // Step 1: removal-only edit keeps the verdict via monotonicity.
        let reduced = XmlFdSet::from_fds(sigma.iter().take(1).cloned());
        let report = cache
            .apply_delta(
                &DtdDelta::unchanged(&dtd),
                &SigmaDelta::between(&sigma, &reduced),
            )
            .unwrap();
        assert!(report.kept_semantic > 0, "{report:?}");
        // Step 2: add the query itself as an FD — the verdict flips.
        let extended = XmlFdSet::from_fds(reduced.iter().cloned().chain([query.clone()]));
        cache
            .apply_delta(
                &DtdDelta::unchanged(&dtd),
                &SigmaDelta::between(&reduced, &extended),
            )
            .unwrap();
        assert!(cache.implies(&query).unwrap());
        assert_eq!(
            cache.implies_all(std::slice::from_ref(&query)).unwrap(),
            from_scratch(&dtd, &extended, std::slice::from_ref(&query))
        );
    }

    #[test]
    fn sigma_addition_transfers_and_stays_exact() {
        let dtd = university_dtd();
        let base = XmlFdSet::parse(
            "courses.course.@cno -> courses.course
             courses.course, courses.course.taken_by.student.@sno -> courses.course.taken_by.student",
        )
        .unwrap();
        let qs = queries(&XmlFdSet::parse(UNIVERSITY_FDS).unwrap());
        let mut cache = IncrementalCache::new(dtd.clone(), base.clone());
        cache.implies_all(&qs).unwrap();
        let extended = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        cache
            .apply_delta(
                &DtdDelta::unchanged(&dtd),
                &SigmaDelta::between(&base, &extended),
            )
            .unwrap();
        assert_eq!(
            cache.implies_all(&qs).unwrap(),
            from_scratch(&dtd, &extended, &qs)
        );
    }

    #[test]
    fn dtd_edit_transfers_and_stays_exact() {
        // Redeclare an element *off* the FDs' fragment: title gains an
        // attribute. Entries whose runs never touched title paths keep.
        let old = university_dtd();
        let new = xnf_dtd::parse_dtd(
            "<!ELEMENT courses (course*)>
             <!ELEMENT course (title, taken_by)>
             <!ATTLIST course cno CDATA #REQUIRED>
             <!ELEMENT title (#PCDATA)>
             <!ATTLIST title lang CDATA #REQUIRED>
             <!ELEMENT taken_by (student*)>
             <!ELEMENT student (name, grade)>
             <!ATTLIST student sno CDATA #REQUIRED>
             <!ELEMENT name (#PCDATA)>
             <!ELEMENT grade (#PCDATA)>",
        )
        .unwrap();
        let sigma = XmlFdSet::parse(
            "courses.course, courses.course.taken_by.student.@sno -> courses.course.taken_by.student",
        )
        .unwrap();
        let qs = queries(&sigma);
        let mut cache = IncrementalCache::new(old.clone(), sigma.clone());
        cache.implies_all(&qs).unwrap();
        let delta = DtdDelta::between(&old, &new);
        // A pure attribute add is recorded at attribute granularity:
        // title's structure is unchanged, only `title.@lang` is dirty.
        assert_eq!(delta.changed, BTreeSet::new());
        assert_eq!(
            delta.attrs_changed,
            BTreeMap::from([("title".into(), BTreeSet::from(["lang".into()]))])
        );
        cache
            .apply_delta(&delta, &SigmaDelta::unchanged(&sigma))
            .unwrap();
        assert_eq!(
            cache.implies_all(&qs).unwrap(),
            from_scratch(&new, &sigma, &qs)
        );
    }

    #[test]
    fn stale_delta_cannot_poison_the_cache() {
        // A delta constructed against the wrong baseline: apply_delta
        // recomputes the change sets itself, so verdicts stay exact.
        let dtd = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        let qs = queries(&sigma);
        let mut cache = IncrementalCache::new(dtd.clone(), sigma.clone());
        cache.implies_all(&qs).unwrap();
        let reduced = XmlFdSet::from_fds(sigma.iter().skip(1).cloned());
        // Lie: claim nothing was added or removed.
        let stale = SigmaDelta {
            new: reduced.clone(),
            added: Vec::new(),
            removed: Vec::new(),
        };
        cache
            .apply_delta(&DtdDelta::unchanged(&dtd), &stale)
            .unwrap();
        assert_eq!(
            cache.implies_all(&qs).unwrap(),
            from_scratch(&dtd, &reduced, &qs)
        );
    }

    #[test]
    fn exhausted_apply_delta_leaves_the_cache_usable() {
        let dtd = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        let qs = queries(&sigma);
        let reduced = XmlFdSet::from_fds(sigma.iter().take(1).cloned());
        let mut starved = IncrementalCache::new(dtd.clone(), sigma.clone());
        starved.implies_all(&qs).unwrap();
        starved.budget = Budget::builder().fuel(0).build();
        assert!(starved
            .apply_delta(
                &DtdDelta::unchanged(&dtd),
                &SigmaDelta::between(&sigma, &reduced)
            )
            .is_err());
        // Old spec still answers exactly.
        starved.budget = Budget::unlimited();
        assert_eq!(
            starved.implies_all(&qs).unwrap(),
            from_scratch(&dtd, &sigma, &qs)
        );
    }
}
