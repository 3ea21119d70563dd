//! The two-tuple chase for XML FD implication.
//!
//! To decide `(D, Σ) ⊢ S → q` we reason about a hypothetical
//! counterexample: a tree `T ⊨ D`, `T ⊨ Σ` with two tuples
//! `t₁, t₂ ∈ tuples_D(T)` such that `t₁.S = t₂.S ≠ ⊥` and `t₁.q ≠ t₂.q`.
//! For every path `p` we track three ternary facts:
//!
//! * `n₁(p)`, `n₂(p)` — is `tᵢ.p` null?
//! * `eq(p)` — are the two values equal (`⊥ = ⊥` counts as equal; for
//!   element paths equality means *the same vertex*)?
//!
//! and saturate under structural rules derived from Definition 3
//! conformance plus the FDs of `Σ`. Deriving a contradiction (some fact
//! both true and false) proves that no counterexample exists, i.e. the
//! implication holds. Each rule's soundness argument is given inline.
//!
//! The per-letter structural facts (required / at-most-one / exclusive
//! disjunction groups) come from the Section 7 classification for
//! disjunctive content models and from conservative interval hulls
//! ([`xnf_dtd::classify::letter_bounds`]) otherwise, so the chase is sound
//! on **every** DTD and sharpest on simple/disjunctive ones — mirroring
//! Theorems 3–5.

use crate::fd::ResolvedFd;
use crate::implication::Implication;
use crate::UNLIMITED;
use std::collections::VecDeque;
use xnf_dtd::classify::{classify_content, letter_bounds, Factor, SimpleContent};
use xnf_dtd::{ContentModel, Dtd, PathId, PathSet, Step};
use xnf_govern::{Budget, Exhausted};
use xnf_obs::{Counter, CounterSnapshot};

/// Instrumentation counters for the implication machinery, named for
/// export (`chase.runs`, `cache.hits`, …).
///
/// The counters live on the [`Chase`] (and are shared by any
/// [`ImplicationCache`](crate::implication::ImplicationCache) wrapping
/// it), are [`xnf_obs::Counter`]s — relaxed atomics, so a `&Chase` can
/// be queried from the parallel anomalous-FD search workers — and are
/// purely observational: no verdict depends on them. A snapshot of the
/// totals publishes into an [`xnf_obs::Recorder`] via `Recorder::merge`.
#[derive(Debug)]
pub struct ChaseStats {
    /// Single-RHS chase runs started (one per `run_single`).
    pub runs: Counter,
    /// FD-rule firings that derived at least one new fact.
    pub rule_firings: Counter,
    /// Ternary-state flips: `Unknown → True/False` transitions of an
    /// `n₁`/`n₂`/`eq` fact.
    pub ternary_flips: Counter,
    /// Memoized verdicts served by a wrapping `ImplicationCache`.
    pub cache_hits: Counter,
    /// Cache misses (each one cost a real chase run).
    pub cache_misses: Counter,
}

/// A plain-integer copy of [`ChaseStats`] at one instant, keyed by the
/// counters' export names (`chase.runs`, `cache.hits`, …). Snapshots
/// accumulate with `+=` and publish via `xnf_obs::Recorder::merge`.
pub type ChaseStatsSnapshot = CounterSnapshot;

impl Default for ChaseStats {
    fn default() -> ChaseStats {
        ChaseStats {
            runs: Counter::new("chase.runs"),
            rule_firings: Counter::new("chase.rule_firings"),
            ternary_flips: Counter::new("chase.ternary_flips"),
            cache_hits: Counter::new("cache.hits"),
            cache_misses: Counter::new("cache.misses"),
        }
    }
}

impl ChaseStats {
    /// Reads all counters (relaxed; exact once the workers are joined).
    pub fn snapshot(&self) -> ChaseStatsSnapshot {
        CounterSnapshot::of([
            &self.runs,
            &self.rule_firings,
            &self.ternary_flips,
            &self.cache_hits,
            &self.cache_misses,
        ])
    }
}

/// A three-valued truth value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ternary {
    /// Known true.
    True,
    /// Known false.
    False,
    /// Unknown.
    Unknown,
}

impl Ternary {
    fn known(self) -> bool {
        self != Ternary::Unknown
    }
}

/// The chase state for one path.
#[derive(Debug, Clone, Copy)]
pub struct PairState {
    /// Is `t₁.p` null?
    pub n1: Ternary,
    /// Is `t₂.p` null?
    pub n2: Ternary,
    /// Is `t₁.p = t₂.p` (with `⊥ = ⊥`)?
    pub eq: Ternary,
}

impl PairState {
    const UNKNOWN: PairState = PairState {
        n1: Ternary::Unknown,
        n2: Ternary::Unknown,
        eq: Ternary::Unknown,
    };

    /// `n₁` or `n₂` by side index (0 or 1).
    pub fn n(&self, i: usize) -> Ternary {
        if i == 0 {
            self.n1
        } else {
            self.n2
        }
    }
}

/// Structural facts about one path, derived from its parent's content
/// model.
#[derive(Debug, Clone, Copy, Default)]
struct PathFacts {
    /// If the parent is non-null, this path is non-null (attributes, `S`,
    /// letters with `lo ≥ 1`).
    required: bool,
    /// The parent node determines this path's value: at most one child
    /// with this label per node (attributes, `S`, letters with `hi ≤ 1`).
    at_most_one: bool,
    /// Exclusive-disjunction group (per parent element), if any: at most
    /// one member of the group is non-null per tuple.
    group: Option<u32>,
}

#[derive(Debug, Clone)]
struct Group {
    members: Vec<PathId>,
    /// Whether the group's disjunction admits `ε` (no member present).
    nullable: bool,
}

/// Which facts changed for a path — the worklist token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FactKind {
    Null(usize),
    Eq,
}

/// Tuning knobs for the chase — each switch disables one of the
/// completeness-improving rules, for the ablation experiments (exp13 in
/// `EXPERIMENTS.md`). All rules are *sound*; disabling them only makes
/// the chase answer "not implied" more often.
#[derive(Debug, Clone, Copy)]
pub struct ChaseConfig {
    /// The swap form of the FD rule (cross-tuple realignment through a
    /// free branch point).
    pub swap_rule: bool,
    /// The contrapositive unit rule (a blocked premise must be null when
    /// the conclusion is known to differ).
    pub contrapositive_rule: bool,
    /// Budget for presence case-splits on blocked premises (0 disables
    /// splitting).
    pub split_budget: usize,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            swap_rule: true,
            contrapositive_rule: true,
            split_budget: 64,
        }
    }
}

/// The chase engine for one `(D, paths(D))`.
#[derive(Debug)]
pub struct Chase<'a> {
    paths: &'a PathSet,
    facts: Vec<PathFacts>,
    groups: Vec<Group>,
    config: ChaseConfig,
    stats: ChaseStats,
    /// Resource budget consulted by [`Chase::try_run`] (and every governed
    /// caller above it). `run`/`implies` ignore it by contract. The handle
    /// is an `Arc` clone, so cancellation reaches all workers sharing this
    /// engine.
    budget: Budget,
}

/// The outcome of one chase run.
#[derive(Debug, Clone)]
pub enum ChaseOutcome {
    /// A contradiction was derived: the implication holds.
    Implied,
    /// A consistent fixpoint: the implication was not derived; the final
    /// state (indexed by `PathId`) describes a candidate counterexample.
    NotImplied(Vec<PairState>),
}

impl<'a> Chase<'a> {
    /// Builds the structural-fact tables for the DTD with the default
    /// (full-strength) configuration.
    pub fn new(dtd: &'a Dtd, paths: &'a PathSet) -> Chase<'a> {
        Chase::with_config(dtd, paths, ChaseConfig::default())
    }

    /// Builds the chase with an explicit [`ChaseConfig`] (ablations).
    pub fn with_config(dtd: &'a Dtd, paths: &'a PathSet, config: ChaseConfig) -> Chase<'a> {
        let mut facts = vec![PathFacts::default(); paths.len()];
        let mut groups: Vec<Group> = Vec::new();
        for p in paths.iter() {
            let Some(elem) = paths.last_elem(p) else {
                continue;
            };
            // Attributes and S children are required and functional.
            for &cp in paths.children_of(p) {
                match paths.step(cp) {
                    Step::Attr(_) | Step::Text => {
                        facts[cp.index()] = PathFacts {
                            required: true,
                            at_most_one: true,
                            group: None,
                        };
                    }
                    Step::Elem(_) => {}
                }
            }
            let content = dtd.content(elem);
            let ContentModel::Regex(re) = content else {
                continue;
            };
            let child_of = |name: &str| -> Option<PathId> {
                paths
                    .children_of(p)
                    .iter()
                    .copied()
                    .find(|&cp| matches!(paths.step(cp), Step::Elem(n) if &**n == name))
            };
            match classify_content(content) {
                Some(SimpleContent::Factors(factors)) => {
                    for f in &factors {
                        match f {
                            Factor::Simple(letters) => {
                                for (name, m) in letters {
                                    if let Some(cp) = child_of(name) {
                                        facts[cp.index()] = PathFacts {
                                            required: !m.optional(),
                                            at_most_one: !m.repeatable(),
                                            group: None,
                                        };
                                    }
                                }
                            }
                            Factor::Disjunction { letters, nullable } => {
                                let members: Vec<PathId> =
                                    letters.iter().filter_map(|l| child_of(l)).collect();
                                let gid = groups.len() as u32;
                                let single = members.len() == 1;
                                for &cp in &members {
                                    facts[cp.index()] = PathFacts {
                                        required: single && !nullable,
                                        at_most_one: true,
                                        group: (!single).then_some(gid),
                                    };
                                }
                                if !single {
                                    groups.push(Group {
                                        members,
                                        nullable: *nullable,
                                    });
                                }
                            }
                        }
                    }
                }
                Some(SimpleContent::Text) => unreachable!("regex content"),
                None => {
                    // Conservative interval hulls: sound on any content
                    // model, no exclusivity information.
                    for (name, (lo, hi)) in letter_bounds(re) {
                        if let Some(cp) = child_of(&name) {
                            facts[cp.index()] = PathFacts {
                                required: lo >= 1,
                                at_most_one: hi == Some(1) || hi == Some(0),
                                group: None,
                            };
                        }
                    }
                }
            }
        }
        Chase {
            paths,
            facts,
            groups,
            config,
            stats: ChaseStats::default(),
            budget: Budget::unlimited(),
        }
    }

    /// Installs a resource [`Budget`] consulted by [`Chase::try_run`] and
    /// [`Implication::try_implies`]; the infallible `run`/`implies` stay
    /// ungoverned regardless.
    pub fn with_budget(mut self, budget: Budget) -> Chase<'a> {
        self.budget = budget;
        self
    }

    /// The installed resource budget (unlimited unless
    /// [`Chase::with_budget`] was used).
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The instrumentation counters of this engine (shared with any
    /// wrapping cache).
    pub fn stats(&self) -> &ChaseStats {
        &self.stats
    }

    /// Runs the chase for `(Σ, S → q)` and returns the outcome.
    ///
    /// Multi-path right-hand sides are handled by conjunction: `S → S₂`
    /// is implied iff `S → q` is implied for every `q ∈ S₂`.
    pub fn run(&self, sigma: &[ResolvedFd], fd: &ResolvedFd) -> ChaseOutcome {
        match self.run_with(UNLIMITED, sigma, fd) {
            Ok(outcome) => outcome,
            Err(_) => unreachable!("an unlimited budget cannot exhaust"),
        }
    }

    /// Budget-governed [`Chase::run`]: charges the installed [`Budget`]
    /// (see [`Chase::with_budget`]) per chase run, per saturation step and
    /// per case-split, returning [`Exhausted`] instead of an unreliable
    /// outcome when it runs out.
    pub fn try_run(
        &self,
        sigma: &[ResolvedFd],
        fd: &ResolvedFd,
    ) -> Result<ChaseOutcome, Exhausted> {
        self.run_with(&self.budget, sigma, fd)
    }

    pub(super) fn run_with(
        &self,
        budget: &Budget,
        sigma: &[ResolvedFd],
        fd: &ResolvedFd,
    ) -> Result<ChaseOutcome, Exhausted> {
        let mut last_state = None;
        for &q in &fd.rhs {
            match self.run_single(sigma, &fd.lhs, q, budget)? {
                ChaseOutcome::Implied => {}
                not_implied => {
                    last_state = Some(not_implied);
                    break;
                }
            }
        }
        Ok(last_state.unwrap_or(ChaseOutcome::Implied))
    }

    fn run_single(
        &self,
        sigma: &[ResolvedFd],
        lhs: &[PathId],
        q: PathId,
        budget: &Budget,
    ) -> Result<ChaseOutcome, Exhausted> {
        self.stats.runs.bump();
        budget.checkpoint("chase.run")?;
        let _span = budget.recorder().span("chase.run", "implication");
        let mut session = self.session_with(budget);
        if !session.assume_goal(sigma, lhs, q) {
            session.check_exhausted()?;
            return Ok(ChaseOutcome::Implied);
        }
        // Bounded case-splitting on *blocked premises*: an FD whose LHS
        // is entirely `eq = True` but whose null-status is open can fire
        // or not depending on presence; both branches are explored. If
        // every completion contradicts, the implication holds (a sound
        // conclusion); if the budget runs out, the current consistent
        // state is returned (leaning "not implied", which the verified
        // counterexample pipeline treats as merely "unproven").
        let mut splits = self.config.split_budget;
        Ok(match Self::split_search(session, sigma, &mut splits)? {
            Some(state) => ChaseOutcome::NotImplied(state),
            None => ChaseOutcome::Implied,
        })
    }

    /// DFS over presence case-splits; returns a consistent completed
    /// state or `None` when every branch contradicts.
    fn split_search(
        session: Session<'_, 'a>,
        sigma: &[ResolvedFd],
        splits: &mut usize,
    ) -> Result<Option<Vec<PairState>>, Exhausted> {
        session.check_exhausted()?;
        let Some(pivot) = session.find_blocked_premise(sigma) else {
            return Ok(Some(session.into_state()));
        };
        if *splits == 0 {
            return Ok(Some(session.into_state()));
        }
        *splits -= 1;
        session.budget.checkpoint("chase.split")?;
        for null in [false, true] {
            let mut branch = session.clone();
            if branch.assume_null(sigma, 0, pivot, null) {
                // Exhaustion mid-saturation leaves the branch looking
                // consistent; the recursive call's entry check surfaces it.
                if let Some(state) = Self::split_search(branch, sigma, splits)? {
                    return Ok(Some(state));
                }
            } else {
                branch.check_exhausted()?;
            }
        }
        Ok(None)
    }

    /// Opens an incremental chase session with an empty state. Used by
    /// the counterexample constructor, which interleaves its inclusion
    /// decisions with rule saturation so that every consequence of a
    /// decision (e.g. an FD firing because an optional subtree was
    /// materialized) is propagated before values are assigned.
    pub fn session(&self) -> Session<'_, 'a> {
        self.session_with(UNLIMITED)
    }

    fn session_with<'c>(&'c self, budget: &'c Budget) -> Session<'c, 'a> {
        Session {
            chase: self,
            state: vec![PairState::UNKNOWN; self.paths.len()],
            queue: VecDeque::new(),
            contradiction: false,
            budget,
            exhausted: None,
        }
    }

    /// The exclusive-disjunction group of `p` (used by the
    /// counterexample constructor).
    pub(crate) fn path_group(&self, p: PathId) -> Option<&[PathId]> {
        self.facts[p.index()]
            .group
            .map(|g| self.groups[g as usize].members.as_slice())
    }

    /// Whether `p` occurs exactly once under each parent node (required
    /// and at-most-one). The shredder keys singleton-text inlining on
    /// this — reusing the chase's structural facts keeps the relational
    /// dictionary and the implication engine on one source of truth.
    pub(crate) fn is_singleton_child(&self, p: PathId) -> bool {
        let f = &self.facts[p.index()];
        f.required && f.at_most_one
    }

    /// Snapshot of the derived per-path structural facts — `testing`-only
    /// introspection for external harnesses (the `xnf-oracle` crate checks
    /// these against a document-level enumeration). Not a stable API.
    #[cfg(feature = "testing")]
    pub fn structural_facts(&self, p: PathId) -> StructuralFacts {
        let f = &self.facts[p.index()];
        StructuralFacts {
            required: f.required,
            at_most_one: f.at_most_one,
            group: self.path_group(p).map(|g| g.to_vec()),
        }
    }
}

/// A `testing`-feature copy of the chase's per-path structural facts (see
/// [`Chase::structural_facts`]).
#[cfg(feature = "testing")]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructuralFacts {
    /// If the parent is non-null, this path is non-null.
    pub required: bool,
    /// At most one child with this label per parent node.
    pub at_most_one: bool,
    /// Members of this path's exclusive-disjunction group, if any.
    pub group: Option<Vec<PathId>>,
}

/// An incremental chase run: facts can be assumed one by one, each
/// followed by full saturation under the structural rules and Σ.
#[derive(Debug, Clone)]
pub struct Session<'c, 'a> {
    chase: &'c Chase<'a>,
    state: Vec<PairState>,
    queue: VecDeque<(PathId, FactKind)>,
    contradiction: bool,
    budget: &'c Budget,
    exhausted: Option<Exhausted>,
}

impl<'c, 'a> Session<'c, 'a> {
    /// Whether a contradiction has been derived.
    pub fn contradiction(&self) -> bool {
        self.contradiction
    }

    /// Propagates budget exhaustion recorded during saturation. Saturation
    /// stops on the spot when the budget runs out, so `contradiction` is
    /// never set on an exhausted session — an apparently consistent state
    /// must not be trusted until this has been checked.
    pub fn check_exhausted(&self) -> Result<(), Exhausted> {
        match &self.exhausted {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// The state of path `p`.
    pub fn get(&self, p: PathId) -> PairState {
        self.state[p.index()]
    }

    /// Consumes the session, returning the per-path state.
    pub fn into_state(self) -> Vec<PairState> {
        self.state
    }

    /// Installs the standard refutation goal (Section 4 semantics): the
    /// shared non-null root, `eq` + non-null on the premise paths, and
    /// disequality on `q`; saturates. Returns `false` on contradiction
    /// (the implication holds).
    pub fn assume_goal(&mut self, sigma: &[ResolvedFd], lhs: &[PathId], q: PathId) -> bool {
        let root = self.chase.paths.root();
        self.set_eq(root, Ternary::True);
        self.set_null(0, root, Ternary::False);
        self.set_null(1, root, Ternary::False);
        for &p in lhs {
            self.set_eq(p, Ternary::True);
            self.set_null(0, p, Ternary::False);
        }
        self.set_eq(q, Ternary::False);
        self.saturate(sigma);
        !self.contradiction
    }

    /// Assumes `t₁.p = t₂.p` is `v` and saturates; `false` on
    /// contradiction.
    pub fn assume_eq(&mut self, sigma: &[ResolvedFd], p: PathId, v: bool) -> bool {
        self.set_eq(p, if v { Ternary::True } else { Ternary::False });
        self.saturate(sigma);
        !self.contradiction
    }

    /// Assumes `tᵢ.p` null-status is `v` and saturates; `false` on
    /// contradiction.
    pub fn assume_null(&mut self, sigma: &[ResolvedFd], side: usize, p: PathId, v: bool) -> bool {
        self.set_null(side, p, if v { Ternary::True } else { Ternary::False });
        self.saturate(sigma);
        !self.contradiction
    }

    /// A case-split pivot:
    ///
    /// * a *blocked premise* — some FD has its whole LHS known equal, some
    ///   RHS not yet known equal, and an LHS path of open null-status; or
    /// * an *equal element path of open presence* — `eq = True` on an
    ///   element path is the disjunction "same vertex ∨ both ⊥", and both
    ///   disjuncts have strong structural consequences (parents shared /
    ///   subtree null), so its null-status is worth splitting on.
    fn find_blocked_premise(&self, sigma: &[ResolvedFd]) -> Option<PathId> {
        for fd in sigma {
            // Every LHS path must be *potentially dischargeable*: known
            // equal, or alignable by a zone swap. What blocks the firing
            // is then only an open null-status, which is exactly what a
            // presence split resolves.
            if !fd
                .lhs
                .iter()
                .all(|&l| self.state[l.index()].eq == Ternary::True || self.zone_root(l).is_some())
            {
                continue;
            }
            if !fd
                .rhs
                .iter()
                .any(|&r| self.state[r.index()].eq != Ternary::True)
            {
                continue;
            }
            if let Some(&b) = fd
                .lhs
                .iter()
                .find(|&&l| self.state[l.index()].n1 == Ternary::Unknown)
            {
                return Some(b);
            }
        }
        self.chase.paths.iter().find(|&p| {
            self.chase.paths.is_element_path(p)
                && self.state[p.index()].eq == Ternary::True
                && self.state[p.index()].n1 == Ternary::Unknown
        })
    }
}

impl Session<'_, '_> {
    fn set_null(&mut self, i: usize, p: PathId, v: Ternary) {
        debug_assert!(v.known());
        let slot = if i == 0 {
            &mut self.state[p.index()].n1
        } else {
            &mut self.state[p.index()].n2
        };
        if *slot == v {
            return;
        }
        if slot.known() {
            self.contradiction = true;
            return;
        }
        *slot = v;
        self.chase.stats.ternary_flips.bump();
        self.queue.push_back((p, FactKind::Null(i)));
    }

    fn set_eq(&mut self, p: PathId, v: Ternary) {
        debug_assert!(v.known());
        let slot = &mut self.state[p.index()].eq;
        if *slot == v {
            return;
        }
        if slot.known() {
            self.contradiction = true;
            return;
        }
        *slot = v;
        self.chase.stats.ternary_flips.bump();
        self.queue.push_back((p, FactKind::Eq));
    }

    fn saturate(&mut self, sigma: &[ResolvedFd]) {
        // FD rule needs re-checking when any of its LHS paths change;
        // rather than indexing, re-scan Σ whenever progress was made —
        // each FD fires at most once per RHS path, so the total work stays
        // polynomial.
        if self.exhausted.is_some() {
            return;
        }
        loop {
            while let Some((p, kind)) = self.queue.pop_front() {
                if self.contradiction {
                    return;
                }
                if let Err(e) = self.budget.checkpoint("chase.saturate.queue") {
                    self.exhausted = Some(e);
                    return;
                }
                self.apply_structural(p, kind);
            }
            if self.contradiction {
                return;
            }
            let mut progressed = false;
            for fd in sigma {
                if let Err(e) = self.budget.checkpoint("chase.saturate.fd") {
                    self.exhausted = Some(e);
                    return;
                }
                progressed |= self.apply_fd(fd);
                if self.contradiction {
                    return;
                }
            }
            if !progressed && self.queue.is_empty() {
                return;
            }
        }
    }

    /// The FD rule, in its strengthened *swap* form.
    ///
    /// Basic form — if every LHS path is known equal and non-null between
    /// `t₁` and `t₂`, then `T ⊨ Σ` forces the RHS values equal.
    ///
    /// Swap form — a premise path `l` that is *not* known equal can still
    /// be discharged: let `a` be its shallowest ancestor-or-self with
    /// `eq(a) ≠ True` (its *zone root*). `a`'s parent is a shared non-null
    /// node, and at a saturated state `a` is necessarily a repeatable
    /// letter (functional children of shared nodes get `eq = True`), so
    /// picking a child at `a` is a free choice of the maximal tuples.
    /// Define `t₃` as `t₁` with its choices inside all zones replaced by
    /// `t₂`'s. Then `t₃ ∈ tuples_D(T)`, `t₃ = t₂` on every zone and
    /// `t₃ = t₁` elsewhere; if additionally `t₂.l ≠ ⊥` for the zone
    /// premises, the FD applies to the pair `(t₃, t₂)` and forces
    /// `t₃.r = t₂.r` for the RHS. For any `r` *outside* all zones,
    /// `t₃.r = t₁.r`, hence `eq(r) = True` for the tracked pair — the
    /// cross-tuple inference a naive two-tuple chase misses (e.g.
    /// `{a.S, b} → a` with `b` a required sibling branch: pick `t₂`'s
    /// `b`).
    ///
    /// Both swap directions are tried (copying `t₂`'s zones into `t₁`
    /// needs `n₂ = False` on the zone premises, and symmetrically).
    fn apply_fd(&mut self, fd: &ResolvedFd) -> bool {
        let mut progressed = false;
        'directions: for copy_from in [1usize, 0] {
            let mut zones: Vec<PathId> = Vec::new();
            for &l in &fd.lhs {
                let s = self.state[l.index()];
                let nonnull = s.n1 == Ternary::False || s.n2 == Ternary::False;
                if s.eq == Ternary::True && nonnull {
                    continue; // directly discharged
                }
                // Swap-discharged: needs the copied side non-null and a
                // zone root strictly below the root.
                if !self.chase.config.swap_rule || s.n(copy_from) != Ternary::False {
                    continue 'directions;
                }
                let Some(zone) = self.zone_root(l) else {
                    continue 'directions;
                };
                if !zones.contains(&zone) {
                    zones.push(zone);
                }
            }
            for &r in &fd.rhs {
                if zones.iter().any(|&z| self.chase.paths.is_prefix(z, r)) {
                    continue; // conclusion lives inside a swapped zone
                }
                if self.state[r.index()].eq != Ternary::True {
                    self.set_eq(r, Ternary::True);
                    progressed = true;
                }
            }
            if zones.is_empty() {
                break; // the basic rule fired; directions coincide
            }
        }
        // Contrapositive unit rule: if every LHS path is known *equal*,
        // all but one are known non-null, and some RHS value is known to
        // *differ*, then the remaining LHS path must be null on both
        // sides — were it non-null (equal values are non-null together),
        // the FD would make the RHS equal, a contradiction.
        if self.chase.config.contrapositive_rule
            && fd
                .rhs
                .iter()
                .any(|&r| self.state[r.index()].eq == Ternary::False)
            && fd
                .lhs
                .iter()
                .all(|&l| self.state[l.index()].eq == Ternary::True)
        {
            let mut undecided = fd.lhs.iter().copied().filter(|&l| {
                let s = self.state[l.index()];
                s.n1 != Ternary::False && s.n2 != Ternary::False
            });
            match (undecided.next(), undecided.next()) {
                (Some(b), None) => {
                    if self.state[b.index()].n1 != Ternary::True {
                        self.set_null(0, b, Ternary::True);
                        progressed = true;
                    }
                    if self.state[b.index()].n2 != Ternary::True {
                        self.set_null(1, b, Ternary::True);
                        progressed = true;
                    }
                }
                // Fully non-null equal premise with a differing RHS:
                // direct contradiction.
                (None, _) => self.contradiction = true,
                (Some(_), Some(_)) => {}
            }
        }
        if progressed {
            self.chase.stats.rule_firings.bump();
        }
        progressed
    }

    /// The shallowest ancestor-or-self of `l` whose `eq` is not known
    /// `True`, provided it is not the root (a swap needs a shared parent
    /// to re-choose under). `None` when every ancestor is shared (then
    /// the value is functionally tied to shared nodes and cannot be
    /// aligned by re-choosing).
    fn zone_root(&self, l: PathId) -> Option<PathId> {
        let paths = self.chase.paths;
        // Walk l … root; the last non-True path seen is the shallowest.
        let mut zone = None;
        let mut cur = Some(l);
        while let Some(c) = cur {
            if self.state[c.index()].eq != Ternary::True {
                zone = Some(c);
            }
            cur = paths.parent(c);
        }
        zone.filter(|&a| a != paths.root())
    }

    fn apply_structural(&mut self, p: PathId, kind: FactKind) {
        let paths = self.chase.paths;
        let facts = &self.chase.facts[p.index()];
        let s = self.state[p.index()];
        match kind {
            FactKind::Null(i) => {
                match s.n(i) {
                    Ternary::False => {
                        // Non-null propagates up: t.p ≠ ⊥ requires every
                        // prefix non-null (Definition 4, condition 4).
                        if let Some(parent) = paths.parent(p) {
                            self.set_null(i, parent, Ternary::False);
                        }
                        // Exclusive group: a node's children word contains
                        // at most one letter of the group, so the other
                        // members are null in the same tuple.
                        if let Some(members) = self.chase.path_group(p) {
                            for &m in members {
                                if m != p {
                                    self.set_null(i, m, Ternary::True);
                                }
                            }
                        }
                        // Required children of a non-null element path are
                        // non-null: conformance puts ≥1 such child (or the
                        // attribute/string) on the node, and maximal
                        // tuples always pick one.
                        for &cp in paths.children_of(p) {
                            if self.chase.facts[cp.index()].required {
                                self.set_null(i, cp, Ternary::False);
                            }
                        }
                    }
                    Ternary::True => {
                        // Nulls propagate down (Definition 4).
                        for &cp in paths.children_of(p) {
                            self.set_null(i, cp, Ternary::True);
                        }
                        // A required child is present whenever its parent
                        // is; contrapositive: child null ⇒ parent null.
                        if facts.required {
                            if let Some(parent) = paths.parent(p) {
                                self.set_null(i, parent, Ternary::True);
                            }
                        }
                        // Non-nullable group with all members null forces
                        // the parent null; unit-propagate the last member.
                        if let Some(gid) = facts.group {
                            self.check_group(gid, i);
                        }
                        // ⊥ = ⊥: if both tuples are null here, the values
                        // are equal.
                        if s.n(1 - i) == Ternary::True {
                            self.set_eq(p, Ternary::True);
                        }
                        // eq = false needs at least one non-null side.
                        if s.eq == Ternary::False {
                            self.set_null(1 - i, p, Ternary::False);
                        }
                    }
                    Ternary::Unknown => unreachable!("queued facts are known"),
                }
                // Equality transfers null-status: equal values are either
                // both null or both non-null.
                if s.eq == Ternary::True {
                    if let Ternary::True | Ternary::False = self.state[p.index()].n(i) {
                        let v = self.state[p.index()].n(i);
                        self.set_null(1 - i, p, v);
                    }
                }
                // Same parent value ⇒ same child-presence: if the parent
                // values are equal (one shared node, or both ⊥), tᵢ.p and
                // tⱼ.p are null together (a maximal tuple picks a child
                // iff the node has one).
                if let Some(parent) = paths.parent(p) {
                    let ps = self.state[parent.index()];
                    if ps.eq == Ternary::True {
                        let v = self.state[p.index()].n(i);
                        if v.known() {
                            self.set_null(1 - i, p, v);
                        }
                    }
                }
                // Both null now? Then eq (⊥ = ⊥).
                let s2 = self.state[p.index()];
                if s2.n1 == Ternary::True && s2.n2 == Ternary::True {
                    self.set_eq(p, Ternary::True);
                }
                // Shared non-null element node: propagate downward
                // equality facts that were waiting on the null-status.
                self.try_eq_down(p);
                if let Some(parent) = paths.parent(p) {
                    self.try_eq_down(parent);
                }
                self.try_eq_up(p);
            }
            FactKind::Eq => {
                match s.eq {
                    Ternary::True => {
                        // Equal values: null statuses coincide.
                        for i in 0..2 {
                            let v = self.state[p.index()].n(i);
                            if v.known() {
                                self.set_null(1 - i, p, v);
                            }
                        }
                        self.try_eq_down(p);
                        self.try_eq_up(p);
                        // Equal *vertices* force equal parents; so an
                        // equal element path under a differing parent can
                        // only be ⊥ on both sides.
                        if paths.is_element_path(p) {
                            if let Some(parent) = paths.parent(p) {
                                if self.state[parent.index()].eq == Ternary::False {
                                    self.set_null(0, p, Ternary::True);
                                    self.set_null(1, p, Ternary::True);
                                }
                            }
                        }
                    }
                    Ternary::False => {
                        // Different values: not both null.
                        let s = self.state[p.index()];
                        if s.n1 == Ternary::True {
                            self.set_null(1, p, Ternary::False);
                        }
                        if s.n2 == Ternary::True {
                            self.set_null(0, p, Ternary::False);
                        }
                        // The mirror of the rule above: element children
                        // already known equal must be ⊥ on both sides.
                        for &cp in paths.children_of(p) {
                            if paths.is_element_path(cp)
                                && self.state[cp.index()].eq == Ternary::True
                            {
                                self.set_null(0, cp, Ternary::True);
                                self.set_null(1, cp, Ternary::True);
                            }
                        }
                        // Under an equal-valued parent the two sides are
                        // null together, so "different" forces both
                        // non-null (see `try_eq_down`).
                        if let Some(parent) = self.chase.paths.parent(p) {
                            if self.state[parent.index()].eq == Ternary::True {
                                self.set_null(0, p, Ternary::False);
                                self.set_null(1, p, Ternary::False);
                            }
                        }
                    }
                    Ternary::Unknown => unreachable!("queued facts are known"),
                }
            }
        }
    }

    /// Equal element-path values ⇒ their functional children coincide.
    ///
    /// Sound unconditionally: `eq(p) = True` on an element path means the
    /// two values are either both `⊥` (then every extension is `⊥ = ⊥`) or
    /// *the same vertex* — whose attributes and string content are unique,
    /// and whose unique child for a letter with `hi ≤ 1` is what any
    /// maximal tuple picks; so `t₁.p.c = t₂.p.c` (or both ⊥). Likewise,
    /// child presence is a property of the shared value, so null statuses
    /// transfer between the tuples for *every* child.
    fn try_eq_down(&mut self, p: PathId) {
        let s = self.state[p.index()];
        if !(self.chase.paths.is_element_path(p) && s.eq == Ternary::True) {
            return;
        }
        let paths = self.chase.paths;
        for &cp in paths.children_of(p) {
            if self.chase.facts[cp.index()].at_most_one {
                self.set_eq(cp, Ternary::True);
            }
            // Child presence is a property of the shared node.
            for i in 0..2 {
                let v = self.state[cp.index()].n(i);
                if v.known() {
                    self.set_null(1 - i, cp, v);
                }
            }
            // Case split resolved: with equal parent values, the children
            // are null together; a child known to *differ* therefore
            // cannot be null on either side (both-⊥ would be equal), and
            // the shared parent is non-null (a ⊥ parent nulls both
            // children).
            if self.state[cp.index()].eq == Ternary::False {
                self.set_null(0, cp, Ternary::False);
                self.set_null(1, cp, Ternary::False);
            }
        }
    }

    /// Equal non-null vertices have equal parents.
    ///
    /// Sound because a vertex occurs at one position in the tree: if
    /// `t₁.p` and `t₂.p` are the same vertex, their parent vertices (the
    /// values at the parent path) coincide and are non-null.
    fn try_eq_up(&mut self, p: PathId) {
        let s = self.state[p.index()];
        if !(self.chase.paths.is_element_path(p)
            && s.eq == Ternary::True
            && (s.n1 == Ternary::False || s.n2 == Ternary::False))
        {
            return;
        }
        if let Some(parent) = self.chase.paths.parent(p) {
            self.set_eq(parent, Ternary::True);
            self.set_null(0, parent, Ternary::False);
            self.set_null(1, parent, Ternary::False);
        }
    }

    /// Unit propagation for exclusive disjunction groups: with the parent
    /// non-null and a non-nullable group, exactly one member is non-null.
    fn check_group(&mut self, gid: u32, i: usize) {
        let chase = self.chase;
        let group = &chase.groups[gid as usize];
        if group.nullable {
            return;
        }
        let parent = chase
            .paths
            .parent(group.members[0])
            .expect("group members have parents");
        if self.state[parent.index()].n(i) != Ternary::False {
            return;
        }
        let n = |m: PathId| self.state[m.index()].n(i);
        if group.members.iter().any(|&m| n(m) == Ternary::False) {
            return; // already satisfied
        }
        let mut unknown = group
            .members
            .iter()
            .copied()
            .filter(|&m| n(m) == Ternary::Unknown);
        match (unknown.next(), unknown.next()) {
            (None, _) => self.contradiction = true, // all null, but one is required
            (Some(m), None) => self.set_null(i, m, Ternary::False),
            (Some(_), Some(_)) => {}
        }
    }
}

impl Implication for Chase<'_> {
    fn implies(&self, sigma: &[ResolvedFd], fd: &ResolvedFd) -> bool {
        matches!(self.run(sigma, fd), ChaseOutcome::Implied)
    }

    fn try_implies(&self, sigma: &[ResolvedFd], fd: &ResolvedFd) -> Result<bool, Exhausted> {
        Ok(matches!(self.try_run(sigma, fd)?, ChaseOutcome::Implied))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{XmlFd, XmlFdSet, DBLP_FDS, UNIVERSITY_FDS};
    use crate::fixtures::{dblp_dtd, university_dtd};

    fn implies(dtd: &Dtd, sigma_text: &str, fd_text: &str) -> bool {
        let paths = dtd.paths().unwrap();
        let sigma = XmlFdSet::parse(sigma_text)
            .unwrap()
            .resolve(&paths)
            .unwrap();
        let fd = XmlFd::parse(fd_text).unwrap().resolve(&paths).unwrap();
        let chase = Chase::new(dtd, &paths);
        chase.implies(&sigma, &fd)
    }

    #[test]
    fn trivial_prefix_fds() {
        // (D, ∅) ⊢ p → p' for element paths and their prefixes.
        let d = university_dtd();
        assert!(implies(
            &d,
            "",
            "courses.course.taken_by.student -> courses.course"
        ));
        assert!(implies(
            &d,
            "",
            "courses.course.taken_by.student -> courses"
        ));
        assert!(implies(&d, "", "courses.course -> courses.course"));
    }

    #[test]
    fn trivial_attribute_fds() {
        // (D, ∅) ⊢ p → p.@l.
        let d = university_dtd();
        assert!(implies(&d, "", "courses.course -> courses.course.@cno"));
        assert!(implies(
            &d,
            "",
            "courses.course.taken_by.student -> courses.course.taken_by.student.@sno"
        ));
        // …and p → p.c.S through a functional (multiplicity-one) child.
        assert!(implies(&d, "", "courses.course -> courses.course.title.S"));
    }

    #[test]
    fn attribute_does_not_determine_node_without_fds() {
        let d = university_dtd();
        assert!(!implies(&d, "", "courses.course.@cno -> courses.course"));
        assert!(!implies(
            &d,
            "",
            "courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S"
        ));
    }

    #[test]
    fn example_5_1_xnf_violation() {
        // With Σ = {FD1, FD2, FD3}: FD3 is in Σ⁺, but sno → student is NOT
        // implied — the XNF violation of Example 5.1.
        let d = university_dtd();
        assert!(implies(
            &d,
            UNIVERSITY_FDS,
            "courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S"
        ));
        assert!(!implies(
            &d,
            UNIVERSITY_FDS,
            "courses.course.taken_by.student.@sno -> courses.course.taken_by.student"
        ));
        // FD2's combination *does* determine the student node, and hence
        // the name element and its text.
        assert!(implies(
            &d,
            UNIVERSITY_FDS,
            "courses.course, courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name"
        ));
        // Via FD1, cno can replace the course node on the left.
        assert!(implies(
            &d,
            UNIVERSITY_FDS,
            "courses.course.@cno, courses.course.taken_by.student.@sno -> courses.course.taken_by.student.grade.S"
        ));
    }

    #[test]
    fn example_5_2_dblp() {
        let d = dblp_dtd();
        // FD5 ∈ Σ⁺ but issue → inproceedings is not implied: the XNF
        // violation.
        assert!(implies(
            &d,
            DBLP_FDS,
            "db.conf.issue -> db.conf.issue.inproceedings.@year"
        ));
        assert!(!implies(
            &d,
            DBLP_FDS,
            "db.conf.issue -> db.conf.issue.inproceedings"
        ));
        // FD4: title.S determines the conf node, hence the conf's title
        // node too.
        assert!(implies(&d, DBLP_FDS, "db.conf.title.S -> db.conf.title"));
    }

    #[test]
    fn transitivity_through_node_equality() {
        // cno → course and course → title.S compose.
        let d = university_dtd();
        assert!(implies(
            &d,
            "courses.course.@cno -> courses.course",
            "courses.course.@cno -> courses.course.title.S"
        ));
    }

    #[test]
    fn augmentation_on_the_left() {
        let d = university_dtd();
        assert!(implies(
            &d,
            "courses.course.@cno -> courses.course.title.S",
            "courses.course.@cno, courses.course.taken_by.student.@sno -> courses.course.title.S"
        ));
    }

    #[test]
    fn root_level_content_is_fully_determined() {
        // With P(r) = (a | b) directly under the root, any two tuples
        // share the single root node, so its functional children coincide
        // in every tuple pair: *everything* is implied from nothing.
        let d = xnf_dtd::parse_dtd(
            "<!ELEMENT r (a | b)>
             <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>
             <!ATTLIST a x CDATA #REQUIRED>
             <!ATTLIST b y CDATA #REQUIRED>",
        )
        .unwrap();
        assert!(implies(&d, "", "r -> r.a"));
        assert!(implies(&d, "", "r -> r.a.@x"));
        assert!(implies(&d, "", "r.a.@x -> r.a"));
        assert!(implies(&d, "", "r.a -> r.b"));
    }

    #[test]
    fn exclusive_disjunction_under_starred_parent() {
        // P(e) = (a | b) under e*, so distinct e nodes choose
        // independently.
        let d = xnf_dtd::parse_dtd(
            "<!ELEMENT r (e*)>
             <!ELEMENT e (a | b)>
             <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>
             <!ATTLIST a x CDATA #REQUIRED>
             <!ATTLIST b y CDATA #REQUIRED>",
        )
        .unwrap();
        // Node equality on a forces the same e, whose single choice
        // excludes b: vacuously implied.
        assert!(implies(&d, "", "r.e.a -> r.e.b"));
        assert!(implies(&d, "", "r.e.a -> r.e.b.@y"));
        // Same a-node ⇒ same e-node (upward).
        assert!(implies(&d, "", "r.e.a -> r.e"));
        // But equal a-*values* on different e's imply nothing.
        assert!(!implies(&d, "", "r.e.a.@x -> r.e.a"));
        assert!(!implies(&d, "", "r.e.a.@x -> r.e"));
        // If @x is declared a key for e, the exclusion composes.
        assert!(implies(&d, "r.e.a.@x -> r.e", "r.e.a.@x -> r.e.b.@y"));
    }

    #[test]
    fn root_determines_its_functional_subtree() {
        // P(r) = (a?, b) with an attribute: r → r.b and r → r.@x are
        // trivial; r → r.a is NOT (a may be picked or absent? no — at most
        // one a child per node and one root: r → r.a IS implied since both
        // tuples share the root node).
        let d = xnf_dtd::parse_dtd(
            "<!ELEMENT r (a?, b)>
             <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>",
        )
        .unwrap();
        assert!(implies(&d, "", "r -> r.b"));
        assert!(implies(&d, "", "r -> r.a"));
    }

    #[test]
    fn starred_children_are_not_functional() {
        let d = university_dtd();
        assert!(!implies(&d, "", "courses -> courses.course"));
        assert!(!implies(
            &d,
            "",
            "courses.course.taken_by -> courses.course.taken_by.student"
        ));
    }

    #[test]
    fn multi_path_rhs_is_conjunction() {
        let d = university_dtd();
        assert!(implies(
            &d,
            "",
            "courses.course -> courses.course.@cno, courses.course.title"
        ));
        assert!(!implies(
            &d,
            "",
            "courses.course -> courses.course.@cno, courses.course.taken_by.student"
        ));
    }

    /// The three completeness rules are individually load-bearing: each
    /// case below is *implied* (verified semantically during development)
    /// and is only proven by the full chase, not by the ablated one.
    #[test]
    fn ablation_rules_are_load_bearing() {
        use crate::implication::ChaseConfig;
        let ablated = |d: &Dtd, cfg: ChaseConfig, sigma: &str, fd: &str| {
            let paths = d.paths().unwrap();
            let sigma = XmlFdSet::parse(sigma).unwrap().resolve(&paths).unwrap();
            let fd = XmlFd::parse(fd).unwrap().resolve(&paths).unwrap();
            Chase::with_config(d, &paths, cfg).implies(&sigma, &fd)
        };

        // (a) swap rule: {e2, @a0_0} → e1 under e0 = (e1*, e2+): every
        // tuple can realign its e2 choice, so @a0_0 → e1 is implied.
        let d = xnf_dtd::parse_dtd(
            "<!ELEMENT e0 (e1*, e2+)>
             <!ATTLIST e0 a0_0 CDATA #REQUIRED>
             <!ELEMENT e1 (#PCDATA)> <!ELEMENT e2 (#PCDATA)>",
        )
        .unwrap();
        let sigma = "e0.e2, e0.@a0_0 -> e0.e1";
        let fd = "e0.@a0_0 -> e0.e1";
        assert!(ablated(&d, ChaseConfig::default(), sigma, fd));
        assert!(!ablated(
            &d,
            ChaseConfig {
                swap_rule: false,
                ..ChaseConfig::default()
            },
            sigma,
            fd
        ));

        // (b) contrapositive rule: under e0=(e1); e1=(e2+); e2=(e3?);
        // e3=(e4+); e4=#PCDATA with Σ as below, @a2_0 → e4 is implied
        // because every completion of the null-status of e4.S
        // contradicts.
        let d = xnf_dtd::parse_dtd(
            "<!ELEMENT e0 (e1)>
             <!ELEMENT e1 (e2+)>
             <!ELEMENT e2 (e3?)>
             <!ATTLIST e2 a2_0 CDATA #REQUIRED>
             <!ELEMENT e3 (e4+)>
             <!ELEMENT e4 (#PCDATA)>",
        )
        .unwrap();
        let sigma = "e0.e1, e0.e1.e2.@a2_0 -> e0.e1.e2.e3.e4.S
                     e0.e1.e2.e3.e4.S -> e0.e1.e2.e3.e4";
        let fd = "e0.e1.e2.@a2_0 -> e0.e1.e2.e3.e4";
        assert!(ablated(&d, ChaseConfig::default(), sigma, fd));
        assert!(!ablated(
            &d,
            ChaseConfig {
                contrapositive_rule: false,
                split_budget: 0,
                ..ChaseConfig::default()
            },
            sigma,
            fd
        ));

        // (c) case splitting: e0=(e1?); e1=(e2?, e4*) with e1 → e1.e4:
        // @a0_0 → e4.@a4_0 is implied (e1 present ⇒ e4 functional via the
        // FD; e1 absent ⇒ both ⊥), but only a presence split sees it.
        let d = xnf_dtd::parse_dtd(
            "<!ELEMENT e0 (e1?)>
             <!ATTLIST e0 a0_0 CDATA #REQUIRED>
             <!ELEMENT e1 (e4*)>
             <!ELEMENT e4 EMPTY>
             <!ATTLIST e4 a4_0 CDATA #REQUIRED>",
        )
        .unwrap();
        let sigma = "e0.e1 -> e0.e1.e4";
        let fd = "e0.@a0_0 -> e0.e1.e4.@a4_0";
        assert!(ablated(&d, ChaseConfig::default(), sigma, fd));
        assert!(!ablated(
            &d,
            ChaseConfig {
                split_budget: 0,
                contrapositive_rule: false,
                ..ChaseConfig::default()
            },
            sigma,
            fd
        ));
    }

    #[test]
    fn non_simple_content_models_are_handled_conservatively() {
        // (a, a): the chase must not treat `a` as functional.
        let d = xnf_dtd::parse_dtd(
            "<!ELEMENT r (a, a)>
             <!ELEMENT a EMPTY>
             <!ATTLIST a v CDATA #REQUIRED>",
        )
        .unwrap();
        assert!(!implies(&d, "", "r -> r.a"));
        // But `a` is required: r.a is non-null whenever r is, so r → r.a
        // would need node equality, which two a-children refute; the
        // vacuous direction a → r still holds upward.
        assert!(implies(&d, "", "r.a -> r"));
    }

    #[test]
    fn governed_chase_agrees_with_ungoverned() {
        // A generous finite budget must not perturb a single verdict.
        for (dtd, fds) in [(university_dtd(), UNIVERSITY_FDS), (dblp_dtd(), DBLP_FDS)] {
            let paths = dtd.paths().unwrap();
            let sigma = XmlFdSet::parse(fds).unwrap().resolve(&paths).unwrap();
            let plain = Chase::new(&dtd, &paths);
            let governed =
                Chase::new(&dtd, &paths).with_budget(Budget::builder().fuel(10_000_000).build());
            for fd in &sigma {
                assert_eq!(
                    governed.try_implies(&sigma, fd).unwrap(),
                    plain.implies(&sigma, fd)
                );
                assert_eq!(governed.try_is_trivial(fd).unwrap(), plain.is_trivial(fd));
            }
        }
    }

    #[test]
    fn governed_chase_exhausts_on_tiny_fuel() {
        let dtd = university_dtd();
        let paths = dtd.paths().unwrap();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS)
            .unwrap()
            .resolve(&paths)
            .unwrap();
        let chase = Chase::new(&dtd, &paths).with_budget(Budget::builder().fuel(3).build());
        let err = chase.try_implies(&sigma, &sigma[0]).unwrap_err();
        assert_eq!(err.resource, xnf_govern::Resource::Fuel);
        // The infallible entry point stays ungoverned by contract.
        assert!(chase.implies(&sigma, &sigma[0]));
    }

    #[test]
    fn governed_chase_observes_cancellation() {
        let dtd = university_dtd();
        let paths = dtd.paths().unwrap();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS)
            .unwrap()
            .resolve(&paths)
            .unwrap();
        let budget = Budget::builder().fuel(u64::MAX).build();
        budget.cancel();
        let chase = Chase::new(&dtd, &paths).with_budget(budget);
        let err = chase.try_implies(&sigma, &sigma[0]).unwrap_err();
        assert_eq!(err.resource, xnf_govern::Resource::Cancelled);
    }
}
