//! The XNF decomposition algorithm — Section 6, Figure 4.
//!
//! Repeatedly eliminates anomalous FDs `S → p.@l` with the paper's two
//! transformations until the specification is in XNF:
//!
//! * **Moving attributes** (step 2): when some element path `q ∈ S`
//!   determines all of `S`, move `@l` from `last(p)` to `last(q)` —
//!   `D[p.@l := q.@m]`. This is the DBLP fix (`@year` moves from
//!   `inproceedings` to `issue`).
//! * **Creating element types** (step 3): for a `(D,Σ)`-minimal anomalous
//!   `{q, p₁.@l₁, …, pₙ.@lₙ} → p.@l`, create a fresh element `τ` under
//!   `last(q)` holding `@l`, with children `τ₁ … τₙ` holding the
//!   left-hand-side attributes — `D[p.@l := q.τ[τ₁.@l₁, …, τₙ.@lₙ, @l]]`.
//!   This is the university fix (the `info`/`number` structure).
//!
//! Preprocessing matches the paper's Section 6 assumptions: right-hand
//! sides are split to single paths, FDs whose paths end in `.S` are
//! rewritten by *folding* the text element into an attribute (the paper's
//! "`p.S` can always be replaced by a path of the form `p.@l`"), left-hand
//! sides with no element path gain the root (always free to add, since
//! `eq(root)` holds for any two tuples of one tree), and extra element
//! paths are eliminated with fresh id attributes, exactly as described in
//! the text.
//!
//! The Σ-transformations follow Proposition 7's formulation (rewriting the
//! *given* Σ plus the construction's new FDs, not the full closure), which
//! the paper proves still terminates in XNF; with
//! [`NormalizeOptions::use_implication`] (the default) step 2 and
//! minimality additionally use the chase-based implication oracle, as in
//! the full algorithm.

use crate::fd::{ResolvedFd, XmlFd, XmlFdSet};
use crate::implication::shard::{candidate_fragment, run_sharded, ShardPlan};
use crate::implication::{Chase, ChaseStatsSnapshot, Implication, ImplicationCache};
use crate::xnf::anomalous_candidate;
use crate::{CoreError, Result};
use std::time::{Duration, Instant};
use xnf_dtd::{ContentModel, Dtd, Path, PathId, PathSet, Regex, Step as PathStep};
use xnf_govern::{Budget, Exhausted};

/// Options controlling the decomposition algorithm.
#[derive(Debug, Clone)]
pub struct NormalizeOptions {
    /// Use the implication oracle for step 2 (moving attributes) and for
    /// `(D,Σ)`-minimality. Disabling yields the simplified algorithm of
    /// Proposition 7 (step 3 only, applied to FDs of Σ as written), which
    /// still terminates in XNF but may produce a coarser design.
    pub use_implication: bool,
    /// Safety cap on the number of transformation steps.
    pub max_steps: usize,
    /// Worker threads for the anomalous-FD candidate search: `1` (the
    /// default) runs sequentially, `0` uses
    /// `std::thread::available_parallelism()`, `n > 1` uses `n` workers.
    /// The output is byte-identical for every setting — candidates are
    /// independent pure implication queries merged deterministically.
    pub threads: usize,
    /// Resource budget (deadline / fuel / memory / cancellation) charged
    /// throughout the run. On exhaustion the algorithm degrades
    /// gracefully: [`normalize`] returns `Ok` with the partial step trace
    /// completed so far and [`NormalizeResult::exhausted`] set — never a
    /// half-applied step, never a design claimed to be in XNF. The
    /// default, [`Budget::unlimited`], is a zero-cost passthrough.
    pub budget: Budget,
}

impl Default for NormalizeOptions {
    fn default() -> Self {
        NormalizeOptions {
            use_implication: true,
            max_steps: 1000,
            threads: 1,
            budget: Budget::unlimited(),
        }
    }
}

/// Instrumentation accumulated over one [`normalize`] run (also see
/// the `--stats` flag of the CLI).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NormalizeStats {
    /// Implication-engine counters (chase runs, rule firings, ternary
    /// flips, cache hits/misses) summed over all main-loop iterations.
    pub chase: ChaseStatsSnapshot,
    /// Main-loop iterations executed (including the final all-clear one).
    pub iterations: u64,
    /// Wall time in the anomalous-FD candidate search.
    pub search_time: Duration,
    /// Wall time deciding the action: the step-2 move checks and the
    /// `(D,Σ)`-minimality search.
    pub decide_time: Duration,
    /// Wall time materializing implied guards `X → parent(q)`.
    pub guard_time: Duration,
    /// Wall time applying transformations and snapshotting stages.
    pub apply_time: Duration,
}

/// One transformation applied by the algorithm, with enough detail to
/// replay it on documents (see [`crate::lossless`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Preprocessing: the text element at `elem_path` (content `#PCDATA`,
    /// multiplicity one) was folded into attribute `@attr` of its parent.
    FoldText {
        /// The element path that was folded (e.g. `….student.name`).
        elem_path: Path,
        /// The attribute added to the parent element (without `@`).
        attr: String,
    },
    /// Preprocessing: a fresh id attribute was added to an element type so
    /// that an FD's extra element path could be replaced by an attribute
    /// path (the `{q, q'} ∪ S → p` elimination of Section 6).
    AddId {
        /// The element path that received the id attribute.
        elem_path: Path,
        /// The fresh attribute name (without `@`).
        attr: String,
    },
    /// Step 2: `D[p.@l := q.@m]` — `@l` moved from `last(p)` to `last(q)`.
    MoveAttribute {
        /// The source attribute path `p.@l`.
        from: Path,
        /// The destination element path `q`.
        to: Path,
        /// The new attribute name `m` (without `@`).
        new_attr: String,
    },
    /// Step 3: `D[p.@l := q.τ[τ₁.@l₁, …, τₙ.@lₙ, @l]]`.
    CreateElement {
        /// The anchor element path `q`.
        q: Path,
        /// The left-hand-side attribute paths `p₁.@l₁ … pₙ.@lₙ`.
        lhs_attrs: Vec<Path>,
        /// The moved value path `p.@l`.
        value_attr: Path,
        /// The fresh element `τ` (child of `last(q)`).
        tau: String,
        /// The fresh children `τ₁ … τₙ`, aligned with `lhs_attrs`.
        tau_children: Vec<String>,
    },
}

/// The output of [`normalize`].
#[derive(Debug, Clone)]
pub struct NormalizeResult {
    /// The revised DTD, in XNF together with `sigma`.
    pub dtd: Dtd,
    /// The revised FD set.
    pub sigma: XmlFdSet,
    /// The transformations applied, in order.
    pub steps: Vec<Step>,
    /// `|AP(D, Σ)|` before each main-loop step and after the last —
    /// strictly decreasing by Proposition 6.
    pub ap_trace: Vec<usize>,
    /// Snapshots of `(D, Σ)` *after* each step in `steps` (parallel
    /// vectors), used to replay the transformations on documents
    /// ([`crate::lossless`]).
    pub stages: Vec<(Dtd, XmlFdSet)>,
    /// Instrumentation: implication-engine counters and per-phase wall
    /// time.
    pub stats: NormalizeStats,
    /// `Some` iff the run's resource budget ran out before the algorithm
    /// finished: the result is **non-final** — `dtd`/`sigma` reflect only
    /// the steps in `steps` (each individually applied in full and
    /// replayable on documents), and the design is *not* certified to be
    /// in XNF. `None` means the run completed normally.
    pub exhausted: Option<Exhausted>,
}

/// One main-loop decision of Figure 4 — what the algorithm will do next,
/// given the current `(D, Σ)`.
enum Action {
    /// No anomalous FD remains: the design is in XNF.
    Done,
    /// Step 2: move the attribute at the first path to the element at the
    /// second (`D[p.@l := q.@m]`).
    Move(PathId, PathId),
    /// Step 3: create a fresh element for the minimal anomalous FD
    /// `lhs → target`.
    Create(Vec<PathId>, PathId),
    /// A chosen CreateElement involves a `.S` path (on the left, or as
    /// the minimized target): fold it first, then re-evaluate.
    Fold(Path),
}

/// The decide phase of one Figure 4 iteration: search for anomalous FDs,
/// push the `|AP|` sample onto `ap_trace`, pick the action (step 2 move /
/// step 3 create / fold / done) and materialize the implied guards.
///
/// Mutates nothing but `stats`/`ap_trace`; the caller owns applying the
/// action. Exhaustion mid-decide leaves a pushed AP sample in `ap_trace`
/// (matching the historical partial-trace shape).
fn decide_iteration<O: Implication + Sync>(
    oracle: &O,
    paths: &PathSet,
    resolved: &[ResolvedFd],
    options: &NormalizeOptions,
    stats: &mut NormalizeStats,
    ap_trace: &mut Vec<usize>,
) -> std::result::Result<(Action, Vec<XmlFd>), Exhausted> {
    let search_start = Instant::now();
    let search_span = options
        .budget
        .recorder()
        .span("normalize.search", "normalize");
    let violations = find_anomalous_fd(oracle, paths, resolved, options.threads, &options.budget);
    drop(search_span);
    stats.search_time += search_start.elapsed();
    let violations = violations?;
    let ap: std::collections::BTreeSet<_> = violations.iter().map(|(_, p)| *p).collect();
    ap_trace.push(ap.len());
    let decide_start = Instant::now();
    let decide_span = options
        .budget
        .recorder()
        .span("normalize.decide", "normalize");
    let action = if violations.is_empty() {
        Action::Done
    } else {
        // Step 2: moving attributes, if some q ∈ S determines S.
        let mut action = None;
        if options.use_implication {
            'outer: for (fd, q_attr) in &violations {
                for &q in &fd.lhs {
                    if !paths.is_element_path(q) {
                        continue;
                    }
                    let q_to_s = crate::fd::ResolvedFd::from_ids([q], fd.lhs.iter().copied());
                    // Also require q → p.@l itself: under the null
                    // semantics of Section 4, q → S and S → p.@l
                    // do *not* compose when S can be ⊥ while p.@l
                    // is not — the moved attribute's value would
                    // then be ill-defined per q-node. (On the
                    // paper's examples, where q lies on p's own
                    // path, the conditions coincide.)
                    let q_to_attr = crate::fd::ResolvedFd::from_ids([q], [*q_attr]);
                    // The move must leave *every* FD of Σ with
                    // this RHS non-anomalous: after
                    // `D[p.@l := q.@m]` each reads `S' → q.@m`,
                    // whose XNF guard is `S' → q`. This covers
                    // both the currently anomalous ones (the
                    // anomaly must not simply follow the
                    // attribute, or |AP| would not shrink —
                    // Proposition 6) and the currently guarded
                    // ones (whose old guard `S' → p` becomes
                    // irrelevant at the new home).
                    let mut resolves_all = true;
                    for other in resolved.iter().filter(|other| other.rhs.contains(q_attr)) {
                        let to_q = crate::fd::ResolvedFd::from_ids(other.lhs.iter().copied(), [q]);
                        if !oracle.try_implies(resolved, &to_q)? {
                            resolves_all = false;
                            break;
                        }
                    }
                    if resolves_all
                        && oracle.try_implies(resolved, &q_to_s)?
                        && oracle.try_implies(resolved, &q_to_attr)?
                    {
                        action = Some(Action::Move(*q_attr, q));
                        break 'outer;
                    }
                }
            }
        }
        match action {
            Some(action) => action,
            None => {
                // Step 3: a (D,Σ)-minimal anomalous FD.
                let (fd, q_attr) = violations[0].clone();
                let minimal = if options.use_implication {
                    minimize(
                        oracle,
                        paths,
                        resolved,
                        fd.lhs.clone(),
                        q_attr,
                        &options.budget,
                    )?
                } else {
                    (fd.lhs.clone(), q_attr)
                };
                // The construction needs attribute paths; fold any
                // remaining `.S` path first.
                let s_path = minimal
                    .0
                    .iter()
                    .copied()
                    .chain([minimal.1])
                    .find(|&p| matches!(paths.step(p), PathStep::Text));
                match s_path {
                    Some(p) => Action::Fold(paths.path(p)),
                    None => Action::Create(minimal.0, minimal.1),
                }
            }
        }
    };
    drop(decide_span);
    stats.decide_time += decide_start.elapsed();
    // Materialize the *guards* of Σ before transforming: for
    // every FD `X → q` with a value-path RHS whose node guard
    // `X → parent(q)` is currently implied, add the guard
    // explicitly. Guards are in `(D,Σ)⁺`, so this never changes
    // the constraint semantics — but it keeps shadow implications
    // alive across the Σ-based step rewriting (the closure-based
    // paper version keeps them implicitly), preserving
    // Proposition 6's strict decrease of the anomalous-path set.
    let guard_start = Instant::now();
    let guard_span = options
        .budget
        .recorder()
        .span("normalize.guards", "normalize");
    let guards = if matches!(action, Action::Done) {
        Vec::new()
    } else {
        let mut guards: Vec<XmlFd> = Vec::new();
        for fd in resolved {
            options.budget.checkpoint("normalize.guard")?;
            for &q in &fd.rhs {
                if paths.is_element_path(q) {
                    continue;
                }
                let parent = paths.parent(q).expect("value paths have parents");
                let guard = crate::fd::ResolvedFd::from_ids(fd.lhs.iter().copied(), [parent]);
                if oracle.try_is_trivial(&guard)? {
                    continue;
                }
                if oracle.try_implies(resolved, &guard)? {
                    guards.push(guard.to_fd(paths));
                }
            }
        }
        guards
    };
    drop(guard_span);
    stats.guard_time += guard_start.elapsed();
    Ok((action, guards))
}

/// Runs the XNF decomposition algorithm of Figure 4.
pub fn normalize(
    dtd: &Dtd,
    sigma: &XmlFdSet,
    options: &NormalizeOptions,
) -> Result<NormalizeResult> {
    if dtd.is_recursive() {
        return Err(CoreError::RecursiveNormalization);
    }
    let mut dtd = dtd.clone();
    let mut steps = Vec::new();
    let mut stages: Vec<(Dtd, XmlFdSet)> = Vec::new();

    // ---------------- Preprocessing ----------------
    // Split right-hand sides.
    let mut fds: Vec<XmlFd> = sigma.iter().flat_map(XmlFd::split_rhs).collect();
    // Fold `.S` paths into attributes.
    {
        let before = steps.len();
        fold_text_paths(&mut dtd, &mut fds, &mut steps)?;
        for _ in before..steps.len() {
            // Preprocessing snapshots all share the post-preprocessing
            // state for Σ; the DTD is exact per step only for the last one,
            // which is all the replay needs (earlier fold steps commute).
            stages.push((dtd.clone(), XmlFdSet::from_fds(fds.clone())));
        }
        let before = steps.len();
        // Ensure each LHS has exactly one element path (add the root;
        // replace extras by fresh id attributes).
        fix_lhs_element_paths(&mut dtd, &mut fds, &mut steps)?;
        for _ in before..steps.len() {
            stages.push((dtd.clone(), XmlFdSet::from_fds(fds.clone())));
        }
    }
    let mut sigma = XmlFdSet::from_fds(fds);

    // ---------------- Main loop (Figure 4) ----------------
    let mut ap_trace = Vec::new();
    let mut stats = NormalizeStats::default();
    let mut exhausted_out: Option<Exhausted> = None;
    for _ in 0..options.max_steps {
        // Graceful degradation: exhaustion anywhere in the decide phase
        // abandons only the *current* (not yet applied) iteration. The
        // `(D, Σ)` pair and the step trace stay at the last fully applied
        // step, so the partial result below is consistent and replayable.
        if let Err(e) = options.budget.checkpoint("normalize.iteration") {
            exhausted_out = Some(e);
            break;
        }
        let _iter_span = options
            .budget
            .recorder()
            .span("normalize.iteration", "normalize");
        let paths = dtd.paths()?;
        stats.iterations += 1;
        // Decide the next action *and* the guards to materialize with the
        // chase borrowing the DTD immutably; apply both afterwards. One
        // chase + one memo serve the whole iteration: the guard pass
        // re-asks exactly the `S → parent(q)` queries of the candidate
        // search, so with the cache those are pure hits instead of fresh
        // chase runs against a rebuilt engine.
        let decided = {
            let chase = Chase::new(&dtd, &paths).with_budget(options.budget.clone());
            let resolved = sigma.resolve(&paths)?;
            let oracle = ImplicationCache::new(&chase, &resolved);
            let decided = decide_iteration(
                &oracle,
                &paths,
                &resolved,
                options,
                &mut stats,
                &mut ap_trace,
            );
            stats.chase += chase.stats().snapshot();
            decided
        };
        let (action, guards) = match decided {
            Ok(decided) => decided,
            Err(e) => {
                exhausted_out = Some(e);
                break;
            }
        };
        // Last checkpoint before the iteration mutates anything: past this
        // point the chosen action and its guards are applied atomically.
        if let Err(e) = options.budget.checkpoint("normalize.apply") {
            exhausted_out = Some(e);
            break;
        }
        for g in guards {
            sigma.push(g);
        }
        let apply_start = Instant::now();
        // One span per applied step, named by its kind, so the trace shows
        // the normalize timeline step by step.
        let _apply_span = options.budget.recorder().span(
            match &action {
                Action::Done => "normalize.done",
                Action::Move(..) => "step.move_attribute",
                Action::Create(..) => "step.create_element",
                Action::Fold(..) => "step.fold_text",
            },
            "normalize",
        );
        match action {
            Action::Done => {
                return Ok(NormalizeResult {
                    dtd,
                    sigma,
                    steps,
                    ap_trace,
                    stages,
                    stats,
                    exhausted: None,
                });
            }
            Action::Move(q_attr, q) => {
                apply_move(&mut dtd, &mut sigma, &paths, q_attr, q, &mut steps)?;
            }
            Action::Create(lhs, target) => {
                apply_create(&mut dtd, &mut sigma, &paths, &lhs, target, &mut steps)?;
            }
            Action::Fold(s_path) => {
                let mut fds: Vec<XmlFd> = sigma.iter().cloned().collect();
                fold_one_text_path(&mut dtd, &mut fds, &s_path, &mut steps)?;
                sigma = XmlFdSet::from_fds(fds);
                // A fold does not resolve a violation; drop the AP sample
                // so the Proposition 6 strict-decrease trace only records
                // real steps.
                ap_trace.pop();
            }
        }
        stages.push((dtd.clone(), sigma.clone()));
        stats.apply_time += apply_start.elapsed();
    }
    if let Some(e) = exhausted_out {
        // Graceful degradation: every step in `steps` was applied in full
        // and `dtd`/`sigma`/`stages` are consistent with it — only the
        // XNF certificate is missing. `exhausted` marks the result
        // non-final; rerunning with a larger budget converges to the
        // ungoverned output (the algorithm is deterministic and each
        // prefix of steps is a valid starting point).
        return Ok(NormalizeResult {
            dtd,
            sigma,
            steps,
            ap_trace,
            stages,
            stats,
            exhausted: Some(e),
        });
    }
    Err(CoreError::TooManySteps)
}

/// The anomalous-FD candidate search driver, shared by the normalization
/// loop above and the XNF checker ([`crate::xnf::anomalous_fds`]).
///
/// Uses the natural shard plan (one shard per root-child fragment plus a
/// frontier shard); see [`find_anomalous_fd_sharded`].
pub(crate) fn find_anomalous_fd<O: Implication + Sync>(
    oracle: &O,
    paths: &PathSet,
    sigma: &[ResolvedFd],
    threads: usize,
    budget: &Budget,
) -> std::result::Result<Vec<(ResolvedFd, PathId)>, Exhausted> {
    find_anomalous_fd_sharded(oracle, paths, sigma, None, threads, budget)
}

/// Sharded anomalous-FD search: enumerates the `(FD, value path)`
/// candidates of Σ, partitions them by root-child fragment
/// ([`candidate_fragment`]), optionally coalesces to `shards` scheduling
/// units, and fans the shards across `threads` work-stealing workers
/// ([`run_sharded`]; `0` = all cores, `<= 1` runs on the calling thread
/// but still through the shard driver, so the `chase.shard`/`chase.merge`
/// checkpoints fire on every configuration).
///
/// The output is **byte-identical** for every `(shards, threads)` pair:
/// each candidate verdict is an independent pure implication query, the
/// driver restores enumeration order before returning, and the final
/// sort (stable, on `(path, lhs)`) + dedup therefore sees the same
/// sequence as the sequential sweep.
pub(crate) fn find_anomalous_fd_sharded<O: Implication + Sync>(
    oracle: &O,
    paths: &PathSet,
    sigma: &[ResolvedFd],
    shards: Option<usize>,
    threads: usize,
    budget: &Budget,
) -> std::result::Result<Vec<(ResolvedFd, PathId)>, Exhausted> {
    let items: Vec<(&ResolvedFd, PathId)> = sigma
        .iter()
        .flat_map(|fd| fd.rhs.iter().map(move |&q| (fd, q)))
        .collect();
    let keys: Vec<Option<PathId>> = items
        .iter()
        .map(|&(fd, q)| candidate_fragment(paths, fd, q))
        .collect();
    let mut plan = ShardPlan::new(&keys);
    if let Some(n) = shards {
        plan = plan.coalesced(n);
    }
    let hits = run_sharded(&plan, threads, budget, |i| {
        let (fd, q) = items[i];
        anomalous_candidate(oracle, paths, sigma, fd, q, budget)
    })?;
    let mut out: Vec<(ResolvedFd, PathId)> = hits.into_iter().map(|(_, hit)| hit).collect();
    out.sort_by(|a, b| (a.1, &a.0.lhs).cmp(&(b.1, &b.0.lhs)));
    out.dedup();
    Ok(out)
}

/// Finds a `(D,Σ)`-minimal anomalous FD, starting from `lhs → target`
/// (Section 6): repeatedly looks for a *smaller* anomalous FD whose
/// left-hand side is drawn from the current FD's paths (at most one
/// element path) and whose right-hand side is one of the attribute paths
/// involved.
fn minimize(
    oracle: &impl Implication,
    paths: &PathSet,
    sigma: &[crate::fd::ResolvedFd],
    mut lhs: Vec<xnf_dtd::PathId>,
    mut target: xnf_dtd::PathId,
    budget: &Budget,
) -> std::result::Result<(Vec<xnf_dtd::PathId>, xnf_dtd::PathId), Exhausted> {
    use xnf_dtd::PathId;
    let _span = budget.recorder().span("normalize.minimize", "normalize");
    // Each round strictly shrinks or rewrites the candidate; the cap
    // guards against pathological ping-pong between same-size FDs.
    for _ in 0..64 {
        budget.checkpoint("normalize.minimize")?;
        let elem_paths: Vec<PathId> = lhs
            .iter()
            .copied()
            .filter(|&p| paths.is_element_path(p))
            .collect();
        let attr_lhs: Vec<PathId> = lhs
            .iter()
            .copied()
            .filter(|&p| !paths.is_element_path(p))
            .collect();
        let n = attr_lhs.len();
        // Base set: element paths, the parents of the LHS attributes, and
        // all attribute paths including the target.
        let mut base: Vec<PathId> = Vec::new();
        base.extend(elem_paths.iter().copied());
        for &a in &attr_lhs {
            if let Some(parent) = paths.parent(a) {
                if paths.is_element_path(parent) && !base.contains(&parent) {
                    base.push(parent);
                }
            }
        }
        let mut attr_pool: Vec<PathId> = attr_lhs.clone();
        attr_pool.push(target);
        // Search candidate smaller FDs S' → a with |S'| ≤ n, at most one
        // element path in S'.
        let mut found: Option<(Vec<PathId>, PathId)> = None;
        'search: for &a in &attr_pool {
            let elem_options: Vec<Option<PathId>> = std::iter::once(None)
                .chain(base.iter().copied().map(Some))
                .collect();
            let others: Vec<PathId> = attr_pool.iter().copied().filter(|&x| x != a).collect();
            let m = others.len();
            for elem in &elem_options {
                for mask in 0u32..(1u32 << m) {
                    let mut cand: Vec<PathId> = Vec::new();
                    if let Some(e) = elem {
                        cand.push(*e);
                    }
                    for (bit, &o) in others.iter().enumerate() {
                        if mask & (1 << bit) != 0 {
                            cand.push(o);
                        }
                    }
                    if cand.is_empty() || cand.len() > n {
                        continue;
                    }
                    // Skip the FD we started from.
                    let mut c_sorted = cand.clone();
                    c_sorted.sort();
                    let mut cur_sorted = lhs.clone();
                    cur_sorted.sort();
                    if c_sorted == cur_sorted && a == target {
                        continue;
                    }
                    let fd = crate::fd::ResolvedFd::from_ids(cand.clone(), [a]);
                    if oracle.try_is_trivial(&fd)? || !oracle.try_implies(sigma, &fd)? {
                        continue;
                    }
                    let parent = paths.parent(a).expect("attribute paths have parents");
                    let node_fd = crate::fd::ResolvedFd::from_ids(cand.clone(), [parent]);
                    if oracle.try_implies(sigma, &node_fd)? {
                        continue; // not anomalous
                    }
                    found = Some((cand, a));
                    break 'search;
                }
            }
        }
        match found {
            Some((cand, a)) => {
                lhs = cand;
                target = a;
            }
            None => return Ok((lhs, target)),
        }
    }
    Ok((lhs, target))
}

/// Applies `D[p.@l := q.@m]` and rewrites Σ.
fn apply_move(
    dtd: &mut Dtd,
    sigma: &mut XmlFdSet,
    paths: &PathSet,
    p_attr: xnf_dtd::PathId,
    q: xnf_dtd::PathId,
    steps: &mut Vec<Step>,
) -> Result<()> {
    let attr_name = match paths.step(p_attr) {
        PathStep::Attr(a) => a.to_string(),
        _ => unreachable!("anomalous paths are attribute paths after preprocessing"),
    };
    let p = paths.parent(p_attr).expect("attribute path has a parent");
    let p_elem = paths.last_elem(p).expect("parent is an element path");
    let q_elem = paths.last_elem(q).expect("q is an element path");
    let new_attr = dtd.fresh_attr_name(q_elem, &attr_name);
    dtd.remove_attribute(p_elem, &attr_name);
    dtd.add_attribute(q_elem, &new_attr)?;

    let from = paths.path(p_attr);
    let to = paths.path(q);
    let new_path = to.child_attr(new_attr.as_str());
    // Rewrite every occurrence of p.@l to q.@m; drop FDs that became
    // trivial q → q.@m.
    let rewritten: Vec<XmlFd> = sigma
        .iter()
        .filter_map(|fd| {
            let map = |side: &[Path]| -> Vec<Path> {
                side.iter()
                    .map(|pp| {
                        if *pp == from {
                            new_path.clone()
                        } else {
                            pp.clone()
                        }
                    })
                    .collect()
            };
            let lhs = map(fd.lhs());
            let rhs = map(fd.rhs());
            if lhs == vec![to.clone()] && rhs == vec![new_path.clone()] {
                return None; // the now-trivial q → q.@m
            }
            Some(XmlFd::new(lhs, rhs).expect("sides stay non-empty"))
        })
        .collect();
    *sigma = XmlFdSet::from_fds(rewritten);
    steps.push(Step::MoveAttribute { from, to, new_attr });
    Ok(())
}

/// Applies `D[p.@l := q.τ[τ₁.@l₁, …, τₙ.@lₙ, @l]]` and builds Σ'.
fn apply_create(
    dtd: &mut Dtd,
    sigma: &mut XmlFdSet,
    paths: &PathSet,
    lhs: &[xnf_dtd::PathId],
    p_attr: xnf_dtd::PathId,
    steps: &mut Vec<Step>,
) -> Result<()> {
    use xnf_dtd::PathId;
    // Decompose the left-hand side into q (element path; default the
    // root) and attribute paths.
    let q = lhs
        .iter()
        .copied()
        .find(|&p| paths.is_element_path(p))
        .unwrap_or_else(|| paths.root());
    let attrs: Vec<PathId> = lhs
        .iter()
        .copied()
        .filter(|&p| !paths.is_element_path(p))
        .collect();

    let value_attr_name = match paths.step(p_attr) {
        PathStep::Attr(a) => a.to_string(),
        _ => unreachable!("anomalous paths are attribute paths after preprocessing"),
    };
    let p = paths.parent(p_attr).expect("attribute path has a parent");
    let p_elem = paths.last_elem(p).expect("parent is an element path");
    let q_elem = paths.last_elem(q).expect("q is an element path");

    // Fresh names: τ and τ₁…τₙ.
    let tau = dtd.fresh_element_name("info");
    // Declare τᵢ leaves first (content EMPTY, attribute @lᵢ).
    let mut tau_children: Vec<String> = Vec::new();
    let mut attr_names: Vec<String> = Vec::new();
    for &a in &attrs {
        let l_i = match paths.step(a) {
            PathStep::Attr(n) => n.to_string(),
            _ => unreachable!("filtered to attribute paths"),
        };
        let tau_i = dtd.fresh_element_name(&format!("{l_i}_ref"));
        dtd.declare_element(&tau_i, ContentModel::Regex(Regex::Epsilon), [l_i.clone()])?;
        tau_children.push(tau_i);
        attr_names.push(l_i);
    }
    // Declare τ with P(τ) = τ₁*, …, τₙ* and attribute @l.
    let tau_content = Regex::seq(tau_children.iter().map(|t| Regex::elem(t.as_str()).star()));
    dtd.declare_element(
        &tau,
        ContentModel::Regex(tau_content),
        [value_attr_name.clone()],
    )?;
    // P'(last(q)) = P(last(q)), τ*.
    let q_content = match dtd.content(q_elem) {
        ContentModel::Regex(re) => re.clone(),
        ContentModel::Text => {
            return Err(CoreError::BadFdPath(format!(
                "anchor element `{}` has #PCDATA content and cannot gain children",
                dtd.name(q_elem)
            )))
        }
    };
    dtd.set_content(
        q_elem,
        ContentModel::Regex(Regex::seq([q_content, Regex::elem(tau.as_str()).star()])),
    )?;
    // Remove @l from last(p).
    dtd.remove_attribute(p_elem, &value_attr_name);

    // ---- Σ' ----
    let q_path = paths.path(q);
    let tau_path = q_path.child_elem(tau.as_str());
    let value_path = paths.path(p_attr);
    let new_value_path = tau_path.child_attr(value_attr_name.as_str());
    let old_attr_paths: Vec<Path> = attrs.iter().map(|&a| paths.path(a)).collect();
    let old_parent_paths: Vec<Path> = attrs
        .iter()
        .map(|&a| paths.path(paths.parent(a).expect("attrs have parents")))
        .collect();
    let new_child_paths: Vec<Path> = tau_children
        .iter()
        .map(|t| tau_path.child_elem(t.as_str()))
        .collect();
    let new_attr_paths: Vec<Path> = new_child_paths
        .iter()
        .zip(&attr_names)
        .map(|(c, a)| c.child_attr(a.as_str()))
        .collect();

    // The transfer map of the construction's rule 2.
    let transfer = |pp: &Path| -> Option<Path> {
        if *pp == value_path {
            return Some(new_value_path.clone());
        }
        for (i, old) in old_attr_paths.iter().enumerate() {
            if pp == old {
                return Some(new_attr_paths[i].clone());
            }
        }
        for (i, old) in old_parent_paths.iter().enumerate() {
            if pp == old {
                return Some(new_child_paths[i].clone());
            }
        }
        if *pp == q_path {
            return Some(q_path.clone());
        }
        None
    };

    let mut fds: Vec<XmlFd> = Vec::new();
    let p_parent_path = value_path.parent().expect("attribute paths have parents");
    let determinant: Vec<Path> = {
        // The anomalous FD's LHS (q and the attribute paths): it
        // determines p.@l, so it can stand in for the removed attribute.
        let mut d = vec![q_path.clone()];
        d.extend(old_attr_paths.iter().cloned());
        d
    };
    for fd in sigma.iter() {
        let mentions_value = fd.lhs().contains(&value_path) || fd.rhs().contains(&value_path);
        // Rule 1 (Σ-based): FDs whose paths all survive in D'.
        if !mentions_value {
            fds.push(fd.clone());
        }
        // Closure completion: an FD `X → Y` with the removed `p.@l` on its
        // left is re-expressed as `(X \ {p.@l}) ∪ S → Y`, where `S` is the
        // anomalous FD's determinant. Sound whenever some other LHS path
        // passes through `last(p)`: that path non-null forces the node
        // `p` — and hence its required attribute `@l` — non-null, so
        // `S → p.@l` fires and the original FD applies. (This is how the
        // paper's closure-based Σ[…] keeps keys alive, e.g.
        // `{@A,@K,@C} → db.G` after `@B` moves out in Example 5.3's
        // decomposition.)
        if fd.lhs().contains(&value_path)
            && !fd.rhs().contains(&value_path)
            && fd
                .lhs()
                .iter()
                .any(|x| *x != value_path && p_parent_path.is_prefix_of(x))
        {
            let mut new_lhs: Vec<Path> = fd
                .lhs()
                .iter()
                .filter(|x| **x != value_path)
                .cloned()
                .collect();
            new_lhs.extend(determinant.iter().cloned());
            fds.push(XmlFd::new(new_lhs, fd.rhs().to_vec()).expect("non-empty sides"));
        }
        // Rule 2: FDs entirely over {q, pᵢ, pᵢ.@lᵢ, p.@l} transfer to τ.
        let all_transferable = fd
            .lhs()
            .iter()
            .chain(fd.rhs())
            .all(|pp| transfer(pp).is_some());
        if all_transferable {
            let map_side = |side: &[Path]| -> Vec<Path> {
                side.iter()
                    .map(|pp| transfer(pp).expect("checked"))
                    .collect()
            };
            let lhs2 = map_side(fd.lhs());
            let rhs2 = map_side(fd.rhs());
            if lhs2 != fd.lhs() || rhs2 != fd.rhs() {
                fds.push(XmlFd::new(lhs2, rhs2).expect("non-empty sides"));
            }
        }
    }
    // The anomalous FD itself, transferred: {q, new attrs} → q.τ.@l.
    let mut key_lhs: Vec<Path> = vec![q_path.clone()];
    key_lhs.extend(new_attr_paths.iter().cloned());
    fds.push(XmlFd::new(key_lhs.clone(), [new_value_path.clone()]).expect("non-empty"));
    // Rule 3: {q, q.τ.τ₁.@l₁, …} → q.τ and {q.τ, q.τ.τᵢ.@lᵢ} → q.τ.τᵢ.
    fds.push(XmlFd::new(key_lhs, [tau_path.clone()]).expect("non-empty"));
    for (child, attr) in new_child_paths.iter().zip(&new_attr_paths) {
        fds.push(XmlFd::new([tau_path.clone(), attr.clone()], [child.clone()]).expect("non-empty"));
    }
    *sigma = XmlFdSet::from_fds(fds);
    steps.push(Step::CreateElement {
        q: q_path,
        lhs_attrs: old_attr_paths,
        value_attr: value_path,
        tau,
        tau_children,
    });
    Ok(())
}

/// Renames an element type in both the DTD and the FD paths of Σ —
/// presentation-only (e.g. to match a published figure's names). The
/// rename also needs to be applied to any [`Step`] replay, so use it only
/// on final results.
pub fn rename_element(dtd: &mut Dtd, sigma: &mut XmlFdSet, old: &str, new: &str) -> Result<()> {
    dtd.rename_element(old, new)?;
    let renamed: Vec<XmlFd> = sigma
        .iter()
        .map(|fd| {
            let map = |side: &[Path]| -> Vec<Path> {
                side.iter()
                    .map(|p| {
                        let steps: Vec<PathStep> = p
                            .steps()
                            .iter()
                            .map(|s| match s {
                                PathStep::Elem(n) if &**n == old => PathStep::elem(new),
                                other => other.clone(),
                            })
                            .collect();
                        Path::new(steps)
                    })
                    .collect()
            };
            XmlFd::new(map(fd.lhs()), map(fd.rhs())).expect("non-empty sides")
        })
        .collect();
    *sigma = XmlFdSet::from_fds(renamed);
    Ok(())
}

/// Folds one `p.τ.S` path into an attribute `@τ` of `last(p)`, rewriting
/// the DTD and the FDs (Section 6: "`p.S` can always be replaced by a
/// path of the form `p.@l`").
fn fold_one_text_path(
    dtd: &mut Dtd,
    fds: &mut [XmlFd],
    s_path: &Path,
    steps: &mut Vec<Step>,
) -> Result<()> {
    let elem_path = s_path.parent().expect("S paths have parents");
    let parent_path = elem_path
        .parent()
        .ok_or_else(|| CoreError::BadFdPath(format!("cannot fold the root's text ({s_path})")))?;
    let elem_name = match elem_path.last() {
        PathStep::Elem(n) => n.clone(),
        _ => unreachable!("parent of S is an element"),
    };
    // Resolve element types.
    let paths = dtd.paths()?;
    let parent_id = paths
        .resolve(&parent_path)
        .and_then(|p| paths.last_elem(p))
        .ok_or_else(|| CoreError::BadFdPath(format!("no such path {parent_path}")))?;
    let elem_id = dtd
        .elem_id(&elem_name)
        .ok_or_else(|| CoreError::BadFdPath(format!("no such element {elem_name}")))?;
    if !dtd.content(elem_id).is_text() || dtd.attrs(elem_id).next().is_some() {
        return Err(CoreError::BadFdPath(format!(
            "cannot fold `{elem_path}`: not a plain #PCDATA element"
        )));
    }
    // The folded element must occur exactly once in the parent's content
    // model.
    let parent_re = match dtd.content(parent_id) {
        ContentModel::Regex(re) => re.clone(),
        ContentModel::Text => unreachable!("parent of an element is not #PCDATA"),
    };
    let new_re = remove_single_occurrence(&parent_re, &elem_name).ok_or_else(|| {
        CoreError::BadFdPath(format!(
            "cannot fold `{elem_path}`: `{elem_name}` does not occur exactly once \
             (multiplicity one) in P({})",
            dtd.name(parent_id)
        ))
    })?;
    // Any FD mentioning the element path itself (not its text) would lose
    // meaning.
    if fds
        .iter()
        .flat_map(|fd| fd.lhs().iter().chain(fd.rhs()))
        .any(|p| *p == elem_path)
    {
        return Err(CoreError::BadFdPath(format!(
            "cannot fold `{elem_path}`: Σ also mentions the element node itself"
        )));
    }
    let attr = dtd.fresh_attr_name(parent_id, &elem_name);
    dtd.set_content(parent_id, ContentModel::Regex(new_re))?;
    dtd.add_attribute(parent_id, &attr)?;
    let new_path = parent_path.child_attr(attr.as_str());
    for fd in fds.iter_mut() {
        let map = |side: &[Path]| -> Vec<Path> {
            side.iter()
                .map(|p| {
                    if p == s_path {
                        new_path.clone()
                    } else {
                        p.clone()
                    }
                })
                .collect()
        };
        *fd = XmlFd::new(map(fd.lhs()), map(fd.rhs())).expect("non-empty sides");
    }
    steps.push(Step::FoldText { elem_path, attr });
    Ok(())
}

/// Folds every right-hand-side `.S` path of Σ (see
/// [`fold_one_text_path`]).
pub(crate) fn fold_text_paths(
    dtd: &mut Dtd,
    fds: &mut [XmlFd],
    steps: &mut Vec<Step>,
) -> Result<()> {
    loop {
        // Find an FD path ending in `.S` on a *right-hand side* (the
        // positions the transformations operate on). Left-hand `.S`
        // paths are folded lazily, only if a CreateElement step needs
        // them (see the main loop) — this keeps e.g. the DBLP `title.S`
        // key untouched, as in the paper's Example 5.2. Candidates are
        // folded in structural (BFS) order, not the name-sorted Σ order:
        // fold order fixes the relative position of the minted attributes,
        // so it must be rename-equivariant.
        let paths_now = dtd.paths()?;
        let target: Option<Path> = fds
            .iter()
            .flat_map(|fd| fd.rhs().iter())
            .filter(|p| matches!(p.last(), PathStep::Text))
            .min_by_key(|p| paths_now.resolve(p).map_or(usize::MAX, PathId::index))
            .cloned();
        let Some(s_path) = target else {
            return Ok(());
        };
        fold_one_text_path(dtd, fds, &s_path, steps)?;
    }
}

/// Removes the unique multiplicity-one occurrence of `name` from a
/// concatenation; `None` if `name` occurs elsewhere than as a plain letter
/// at top level of a sequence.
fn remove_single_occurrence(re: &Regex, name: &str) -> Option<Regex> {
    let parts: Vec<Regex> = match re {
        Regex::Seq(parts) => parts.clone(),
        other => vec![other.clone()],
    };
    let mut hits = 0usize;
    let mut out: Vec<Regex> = Vec::new();
    for p in parts {
        if p == Regex::elem(name) {
            hits += 1;
            continue;
        }
        if p.mentions(name) {
            return None; // occurs under a quantifier or disjunction
        }
        out.push(p);
    }
    if hits != 1 {
        return None;
    }
    Some(Regex::seq(out))
}

/// Ensures every FD's left-hand side has exactly one element path: adds
/// the root when there is none (free: any two tuples share the root) and
/// replaces extras by fresh id attributes, per Section 6.
pub(crate) fn fix_lhs_element_paths(
    dtd: &mut Dtd,
    fds: &mut Vec<XmlFd>,
    steps: &mut Vec<Step>,
) -> Result<()> {
    let root_path = Path::root(dtd.root_name());
    let mut i = 0;
    while i < fds.len() {
        let fd = fds[i].clone();
        let elem_paths: Vec<Path> = fd
            .lhs()
            .iter()
            .filter(|p| p.is_element_path())
            .cloned()
            .collect();
        if elem_paths.is_empty() {
            let mut lhs: Vec<Path> = fd.lhs().to_vec();
            lhs.push(root_path.clone());
            fds[i] = XmlFd::new(lhs, fd.rhs().to_vec())?;
            i += 1;
            continue;
        }
        if elem_paths.len() == 1 {
            i += 1;
            continue;
        }
        // Keep the deepest element path as q; replace each other q' by a
        // fresh id attribute q'.@id, adding q'.@id → q'. Depth ties break
        // on the structural (BFS) position, which is rename-equivariant —
        // breaking them on the name-sorted LHS order would make the kept
        // path, and everything downstream, depend on element spellings.
        let paths_now = dtd.paths()?;
        let q = elem_paths
            .iter()
            .max_by_key(|p| {
                let pos = paths_now.resolve(p).map_or(usize::MAX, PathId::index);
                (p.len(), std::cmp::Reverse(pos))
            })
            .expect("non-empty")
            .clone();
        let mut lhs: Vec<Path> = fd
            .lhs()
            .iter()
            .filter(|p| !p.is_element_path() || **p == q)
            .cloned()
            .collect();
        for q_prime in elem_paths.iter().filter(|p| **p != q) {
            let paths = dtd.paths()?;
            let q_elem = paths
                .resolve(q_prime)
                .and_then(|p| paths.last_elem(p))
                .ok_or_else(|| CoreError::BadFdPath(format!("no such path {q_prime}")))?;
            let attr = dtd.fresh_attr_name(q_elem, "id");
            dtd.add_attribute(q_elem, &attr)?;
            let id_path = q_prime.child_attr(attr.as_str());
            lhs.push(id_path.clone());
            fds.push(XmlFd::new([id_path], [q_prime.clone()])?);
            steps.push(Step::AddId {
                elem_path: q_prime.clone(),
                attr,
            });
        }
        fds[i] = XmlFd::new(lhs, fd.rhs().to_vec())?;
        i += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{XmlFdSet, DBLP_FDS, UNIVERSITY_FDS};
    use crate::fixtures::{dblp_dtd, university_dtd};
    use crate::xnf::is_xnf;

    #[test]
    fn parallel_search_matches_sequential() {
        for (dtd, fds) in [(university_dtd(), UNIVERSITY_FDS), (dblp_dtd(), DBLP_FDS)] {
            let sigma = XmlFdSet::parse(fds).unwrap();
            let paths = dtd.paths().unwrap();
            let resolved = sigma.resolve(&paths).unwrap();
            let chase = Chase::new(&dtd, &paths);
            let unlimited = Budget::unlimited();
            let seq = find_anomalous_fd(&chase, &paths, &resolved, 1, &unlimited).unwrap();
            for threads in [0, 2, 3, 8] {
                assert_eq!(
                    find_anomalous_fd(&chase, &paths, &resolved, threads, &unlimited).unwrap(),
                    seq,
                    "threads={threads} must match sequential"
                );
            }
            // The cache-wrapped oracle must not change the answer either,
            // even when shared by concurrent workers.
            let cache = ImplicationCache::new(&chase, &resolved);
            assert_eq!(
                find_anomalous_fd(&cache, &paths, &resolved, 4, &unlimited).unwrap(),
                seq
            );
            assert_eq!(
                find_anomalous_fd(&cache, &paths, &resolved, 1, &unlimited).unwrap(),
                seq
            );
            assert!(chase.stats().snapshot().get("cache.hits") > 0);
        }
    }

    #[test]
    fn stats_are_populated() {
        let r = run(&university_dtd(), UNIVERSITY_FDS);
        assert!(r.stats.iterations >= 1);
        assert!(r.stats.chase.get("chase.runs") > 0, "implication ran");
        assert!(
            r.stats.chase.get("cache.misses") > 0,
            "each distinct query costs one miss"
        );
        assert!(
            r.stats.chase.get("cache.hits") > 0,
            "guard pass repeats search queries, so hits are guaranteed"
        );
    }

    fn run(dtd: &Dtd, sigma_text: &str) -> NormalizeResult {
        let sigma = XmlFdSet::parse(sigma_text).unwrap();
        normalize(dtd, &sigma, &NormalizeOptions::default()).unwrap()
    }

    #[test]
    fn dblp_normalization_moves_year_to_issue() {
        // Example 1.2 / 5.2: the algorithm must move @year from
        // inproceedings to issue — exactly the paper's revision.
        let r = run(&dblp_dtd(), DBLP_FDS);
        assert!(is_xnf(&r.dtd, &r.sigma).unwrap());
        assert_eq!(
            r.steps,
            vec![Step::MoveAttribute {
                from: "db.conf.issue.inproceedings.@year".parse().unwrap(),
                to: "db.conf.issue".parse().unwrap(),
                new_attr: "year".to_string(),
            }]
        );
        let issue = r.dtd.elem_id("issue").unwrap();
        assert!(r.dtd.has_attr(issue, "year"));
        let inproc = r.dtd.elem_id("inproceedings").unwrap();
        assert!(!r.dtd.has_attr(inproc, "year"));
        assert_eq!(
            r.dtd.attrs(inproc).collect::<Vec<_>>(),
            vec!["key", "pages"]
        );
        // FD4 survives (preprocessing adds the root path to its LHS,
        // which is semantically free: any two tuples share the root).
        assert!(r
            .sigma
            .iter()
            .any(|fd| fd.to_string() == "db, db.conf.title.S -> db.conf"));
    }

    #[test]
    fn university_normalization_creates_info_structure() {
        // Example 1.1 / 5.1: name.S folds into @name on student, then the
        // anomalous {sno → name} FD triggers element creation under the
        // root.
        let r = run(&university_dtd(), UNIVERSITY_FDS);
        assert!(is_xnf(&r.dtd, &r.sigma).unwrap());
        // The student element lost `name` (folded) and the new @name
        // attribute (moved into the info structure): it keeps grade + sno.
        let student = r.dtd.elem_id("student").unwrap();
        assert_eq!(r.dtd.attrs(student).collect::<Vec<_>>(), vec!["sno"]);
        let student_content = r.dtd.content(student).as_regex().unwrap().to_string();
        assert_eq!(student_content, "grade");
        // A fresh info element under the root holds @name with sno-holding
        // children.
        let info = r.dtd.elem_id("info").expect("info element created");
        assert_eq!(r.dtd.attrs(info).collect::<Vec<_>>(), vec!["name"]);
        let courses = r.dtd.elem_id("courses").unwrap();
        let content = r.dtd.content(courses).as_regex().unwrap().to_string();
        assert_eq!(content, "course*, info*");
        // The info child holds @sno.
        let child_name = &r
            .steps
            .iter()
            .find_map(|s| match s {
                Step::CreateElement { tau_children, .. } => Some(tau_children[0].clone()),
                _ => None,
            })
            .expect("create step present");
        let tau1 = r.dtd.elem_id(child_name).unwrap();
        assert_eq!(r.dtd.attrs(tau1).collect::<Vec<_>>(), vec!["sno"]);
        // Steps: fold, then create.
        assert!(matches!(r.steps[0], Step::FoldText { .. }));
        assert!(matches!(r.steps[1], Step::CreateElement { .. }));
        assert_eq!(r.steps.len(), 2);
    }

    #[test]
    fn ap_strictly_decreases() {
        for (dtd, sigma) in [(university_dtd(), UNIVERSITY_FDS), (dblp_dtd(), DBLP_FDS)] {
            let r = run(&dtd, sigma);
            for w in r.ap_trace.windows(2) {
                assert!(w[1] < w[0], "AP did not decrease: {:?}", r.ap_trace);
            }
            assert_eq!(*r.ap_trace.last().unwrap(), 0);
        }
    }

    #[test]
    fn xnf_input_is_returned_unchanged() {
        let d = university_dtd();
        let sigma = XmlFdSet::parse("courses.course.@cno -> courses.course").unwrap();
        let r = normalize(&d, &sigma, &NormalizeOptions::default()).unwrap();
        assert!(r.steps.is_empty());
        assert_eq!(r.dtd, d);
        assert_eq!(r.ap_trace, vec![0]);
    }

    #[test]
    fn sigma_only_variant_also_reaches_xnf() {
        // Proposition 7: without the implication oracle the algorithm
        // still terminates in XNF.
        let opts = NormalizeOptions {
            use_implication: false,
            ..NormalizeOptions::default()
        };
        for (dtd, sigma) in [(university_dtd(), UNIVERSITY_FDS), (dblp_dtd(), DBLP_FDS)] {
            let sigma = XmlFdSet::parse(sigma).unwrap();
            let r = normalize(&dtd, &sigma, &opts).unwrap();
            assert!(is_xnf(&r.dtd, &r.sigma).unwrap());
        }
    }

    #[test]
    fn sigma_only_dblp_creates_element_instead_of_moving() {
        // Without implication, step 2 is unavailable: the DBLP anomaly is
        // fixed by element creation — in XNF but coarser than the paper's
        // fix (the cost of skipping implication, cf. Proposition 7).
        let opts = NormalizeOptions {
            use_implication: false,
            ..NormalizeOptions::default()
        };
        let sigma = XmlFdSet::parse(DBLP_FDS).unwrap();
        let r = normalize(&dblp_dtd(), &sigma, &opts).unwrap();
        assert!(is_xnf(&r.dtd, &r.sigma).unwrap());
        assert!(r
            .steps
            .iter()
            .any(|s| matches!(s, Step::CreateElement { .. })));
    }

    #[test]
    fn recursive_dtd_rejected() {
        let d = xnf_dtd::parse_dtd(
            "<!ELEMENT r (part)>
             <!ELEMENT part (part*)>",
        )
        .unwrap();
        assert!(matches!(
            normalize(&d, &XmlFdSet::new(), &NormalizeOptions::default()),
            Err(CoreError::RecursiveNormalization)
        ));
    }

    #[test]
    fn lhs_with_no_element_path_gains_root() {
        // sno → grade-ish anomaly with a pure-attribute LHS still works.
        let d = university_dtd();
        let sigma = XmlFdSet::parse(
            "courses.course.taken_by.student.@sno -> courses.course.taken_by.student.grade.S",
        )
        .unwrap();
        let r = normalize(&d, &sigma, &NormalizeOptions::default()).unwrap();
        assert!(is_xnf(&r.dtd, &r.sigma).unwrap());
    }

    #[test]
    fn rename_element_rewrites_sigma_paths() {
        let mut dtd = university_dtd();
        let mut sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        rename_element(&mut dtd, &mut sigma, "student", "pupil").unwrap();
        assert!(dtd.elem_id("pupil").is_some());
        for fd in sigma.iter() {
            let text = fd.to_string();
            assert!(!text.contains("student"), "{text}");
        }
        // Σ still resolves against the renamed DTD, and satisfaction is
        // preserved on a renamed document.
        let paths = dtd.paths().unwrap();
        assert!(sigma.resolve(&paths).is_ok());
    }

    #[test]
    fn multi_element_lhs_is_eliminated_with_ids() {
        let d = university_dtd();
        // {course, taken_by} → … has two element paths; preprocessing must
        // replace the shallower one by an id attribute.
        let sigma =
            XmlFdSet::parse("courses.course, courses.course.taken_by -> courses.course.title.S")
                .unwrap();
        let r = normalize(&d, &sigma, &NormalizeOptions::default()).unwrap();
        assert!(is_xnf(&r.dtd, &r.sigma).unwrap());
        assert!(r.steps.iter().any(|s| matches!(s, Step::AddId { .. })));
    }

    #[test]
    fn unlimited_budget_output_is_identical() {
        // Budget::unlimited() (the default) must be a pure passthrough:
        // the revised design, step trace and AP trace are identical.
        for (dtd, fds) in [(university_dtd(), UNIVERSITY_FDS), (dblp_dtd(), DBLP_FDS)] {
            let sigma = XmlFdSet::parse(fds).unwrap();
            let plain = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
            let governed = normalize(
                &dtd,
                &sigma,
                &NormalizeOptions {
                    budget: Budget::unlimited(),
                    ..NormalizeOptions::default()
                },
            )
            .unwrap();
            assert_eq!(format!("{}", plain.dtd), format!("{}", governed.dtd));
            assert_eq!(plain.sigma.to_string(), governed.sigma.to_string());
            assert_eq!(plain.steps, governed.steps);
            assert_eq!(plain.ap_trace, governed.ap_trace);
            assert!(governed.exhausted.is_none());
        }
    }

    #[test]
    fn exhausted_normalize_degrades_gracefully() {
        // Starve the run at every fuel level: the result is either the
        // full ungoverned answer or a partial-but-consistent prefix marked
        // non-final — never an error, never a half-applied step.
        let dtd = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        let full = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
        let mut saw_partial = false;
        for fuel in [1, 10, 100, 1_000, 10_000] {
            let opts = NormalizeOptions {
                budget: Budget::builder().fuel(fuel).build(),
                ..NormalizeOptions::default()
            };
            let r = normalize(&dtd, &sigma, &opts).unwrap();
            match &r.exhausted {
                Some(_) => {
                    saw_partial = true;
                    assert!(r.steps.len() <= full.steps.len());
                    assert_eq!(r.steps[..], full.steps[..r.steps.len()]);
                    // Stages stay parallel to steps, so the partial trace
                    // is replayable on documents.
                    assert_eq!(r.stages.len(), r.steps.len());
                }
                None => {
                    assert_eq!(r.steps, full.steps);
                    assert_eq!(format!("{}", r.dtd), format!("{}", full.dtd));
                }
            }
        }
        assert!(saw_partial, "tiny budgets must exhaust");
    }

    #[test]
    fn rerun_with_larger_budget_converges() {
        // Resuming after Exhausted = rerunning with a larger budget; the
        // algorithm is deterministic, so once the budget suffices the
        // output is byte-identical to the ungoverned run.
        let dtd = dblp_dtd();
        let sigma = XmlFdSet::parse(DBLP_FDS).unwrap();
        let full = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
        let mut fuel = 1u64;
        loop {
            let opts = NormalizeOptions {
                budget: Budget::builder().fuel(fuel).build(),
                ..NormalizeOptions::default()
            };
            let r = normalize(&dtd, &sigma, &opts).unwrap();
            if r.exhausted.is_none() {
                assert_eq!(format!("{}", r.dtd), format!("{}", full.dtd));
                assert_eq!(r.sigma.to_string(), full.sigma.to_string());
                assert_eq!(r.steps, full.steps);
                break;
            }
            fuel *= 4;
            assert!(fuel < 1 << 40, "never converged");
        }
    }
}
