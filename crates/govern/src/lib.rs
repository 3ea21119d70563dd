//! # `xnf-govern` — resource governance for the XNF engine
//!
//! The implication problem the engine solves is coNP-complete for general
//! DTDs (Theorem 5 of Arenas & Libkin), so every hot path — the chase,
//! the normalize loop, automaton construction and matching, document
//! parsing and conformance — accepts a [`Budget`]: a cheap, cloneable
//! handle carrying a wall-clock deadline, a step-fuel allowance, a memory
//! cap (in caller-defined units), and a cooperative cancellation flag.
//!
//! Code under governance calls [`Budget::checkpoint`] at loop heads and
//! recursion sites (and [`Budget::charge`] where it allocates) and
//! propagates the structured [`Exhausted`] error instead of doing
//! unbounded work. [`Budget::unlimited`] is a no-allocation handle whose
//! checkpoints compile to a single `Option` test, so governed code run
//! ungoverned stays on the pre-governance fast path.
//!
//! Budgets are shared by cloning: all clones see the same counters, so a
//! deadline or [`Budget::cancel`] call observed by one worker thread stops
//! the others at their next checkpoint.
//!
//! With the `fault-injection` feature (test-only) a deterministic
//! `FaultPlan` can trip a synthetic exhaustion at the Nth checkpoint,
//! and budgets record the distinct checkpoint site labels they visit —
//! the substrate for the property tests asserting every injection site
//! surfaces a clean error and never a wrong verdict.
//!
//! A governed budget can additionally carry an `xnf-obs` [`Recorder`]
//! ([`BudgetBuilder::recorder`]): every checkpoint site visit is then
//! forwarded to [`Recorder::count_site`], and governed code reaches the
//! recorder through [`Budget::recorder`] to bracket its phases with
//! spans — no extra parameters anywhere. An ungoverned budget (and a
//! governed one without a recorder) keeps the disabled recorder, whose
//! probes are a single `Option` test.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use xnf_obs::Recorder;

/// How often (in checkpoints) the wall-clock deadline is consulted.
/// `Instant::now` costs tens of nanoseconds; amortizing it keeps the
/// per-checkpoint overhead of a governed run within the <3% target.
const DEADLINE_STRIDE: u64 = 64;

/// The resource whose budget ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The wall-clock deadline passed.
    Deadline,
    /// The step-fuel allowance was spent.
    Fuel,
    /// The memory cap (in caller-defined units) was exceeded.
    Memory,
    /// The budget was cooperatively cancelled.
    Cancelled,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Resource::Deadline => "wall-clock deadline",
            Resource::Fuel => "step fuel",
            Resource::Memory => "memory cap",
            Resource::Cancelled => "cancellation",
        })
    }
}

/// A budget ran out: the structured error every governed path returns
/// instead of doing unbounded work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exhausted {
    /// Which resource ran out.
    pub resource: Resource,
    /// Where governed execution stopped (checkpoint site label and
    /// ordinal) — enough to see how far the computation got.
    pub progress: String,
}

impl fmt::Display for Exhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "resource budget exhausted ({}) {}",
            self.resource, self.progress
        )
    }
}

impl std::error::Error for Exhausted {}

/// A deterministic failure plan: trips a synthetic [`Exhausted`] of the
/// given [`Resource`] at exactly the `trip_at`-th checkpoint (1-based).
///
/// Test-only (`fault-injection` feature): sweeping `trip_at` over the
/// checkpoint ordinals of a computation exercises every injection site.
#[cfg(feature = "fault-injection")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// 1-based checkpoint ordinal at which to trip.
    pub trip_at: u64,
    /// The resource the synthetic exhaustion reports.
    pub resource: Resource,
}

#[cfg(feature = "fault-injection")]
impl FaultPlan {
    /// Derives a plan from a seed: `trip_at ∈ 1..=max_ordinal` and a
    /// resource, both via a splitmix64 step so plans are reproducible
    /// without an RNG dependency.
    pub fn seeded(seed: u64, max_ordinal: u64) -> FaultPlan {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let trip_at = 1 + z % max_ordinal.max(1);
        let resource = match (z >> 33) % 4 {
            0 => Resource::Deadline,
            1 => Resource::Fuel,
            2 => Resource::Memory,
            _ => Resource::Cancelled,
        };
        FaultPlan { trip_at, resource }
    }
}

#[derive(Debug)]
struct Inner {
    deadline: Option<Instant>,
    /// Remaining fuel; `u64::MAX` means unmetered.
    fuel: AtomicU64,
    fuel_metered: bool,
    memory_cap: Option<u64>,
    memory_used: AtomicU64,
    cancelled: AtomicBool,
    /// Total checkpoints observed (drives deadline amortization and the
    /// fault plan's ordinals).
    ticks: AtomicU64,
    /// Observability sink; the disabled recorder unless the builder
    /// installed one, so the default governed path pays one `Option`
    /// test per checkpoint for it.
    recorder: Recorder,
    #[cfg(feature = "fault-injection")]
    fault: Option<FaultPlan>,
    /// Site label → ordinal of its first visit (1-based): both the
    /// coverage ledger and the targeting table for fault sweeps.
    #[cfg(feature = "fault-injection")]
    sites: std::sync::Mutex<std::collections::BTreeMap<&'static str, u64>>,
}

impl Inner {
    fn exhausted(&self, resource: Resource, site: &'static str, ordinal: u64) -> Exhausted {
        Exhausted {
            resource,
            progress: format!("at `{site}` after {ordinal} checkpoints"),
        }
    }

    fn tick(&self, site: &'static str, memory_units: u64) -> Result<(), Exhausted> {
        let ordinal = self.ticks.fetch_add(1, Ordering::Relaxed) + 1;
        self.recorder.count_site(site, memory_units);
        #[cfg(feature = "fault-injection")]
        {
            if let Ok(mut sites) = self.sites.lock() {
                sites.entry(site).or_insert(ordinal);
            }
            if let Some(plan) = self.fault {
                if ordinal == plan.trip_at {
                    return Err(self.exhausted(plan.resource, site, ordinal));
                }
            }
        }
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(self.exhausted(Resource::Cancelled, site, ordinal));
        }
        if self.fuel_metered {
            let mut cur = self.fuel.load(Ordering::Relaxed);
            loop {
                if cur == 0 {
                    return Err(self.exhausted(Resource::Fuel, site, ordinal));
                }
                match self.fuel.compare_exchange_weak(
                    cur,
                    cur - 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => cur = seen,
                }
            }
        }
        if memory_units > 0 {
            if let Some(cap) = self.memory_cap {
                let used =
                    self.memory_used.fetch_add(memory_units, Ordering::Relaxed) + memory_units;
                if used > cap {
                    return Err(self.exhausted(Resource::Memory, site, ordinal));
                }
            }
        }
        if let Some(deadline) = self.deadline {
            if (ordinal == 1 || ordinal.is_multiple_of(DEADLINE_STRIDE))
                && Instant::now() >= deadline
            {
                return Err(self.exhausted(Resource::Deadline, site, ordinal));
            }
        }
        Ok(())
    }
}

/// Configures and builds a governed [`Budget`]; see [`Budget::builder`].
///
/// Every budget a builder produces is *governed* (it owns shared
/// counters, so it is cancellable) even when no limit is set; the
/// zero-overhead ungoverned handle is [`Budget::unlimited`].
#[derive(Debug, Default)]
pub struct BudgetBuilder {
    deadline: Option<Duration>,
    deadline_at: Option<Instant>,
    fuel: Option<u64>,
    memory: Option<u64>,
    recorder: Recorder,
    #[cfg(feature = "fault-injection")]
    fault: Option<FaultPlan>,
}

impl BudgetBuilder {
    /// Sets a wall-clock deadline `d` from now.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Sets an *absolute* wall-clock deadline. A service propagating one
    /// request deadline through several pipeline stages uses this so the
    /// clock is not restarted per stage; if both this and
    /// [`BudgetBuilder::deadline`] are given, the earlier instant wins.
    pub fn deadline_at(mut self, at: Instant) -> Self {
        self.deadline_at = Some(at);
        self
    }

    /// Sets the step-fuel allowance: each checkpoint consumes one unit.
    pub fn fuel(mut self, units: u64) -> Self {
        self.fuel = Some(units);
        self
    }

    /// Sets the memory cap, in the units governed code passes to
    /// [`Budget::charge`] (this library does not prescribe bytes).
    pub fn memory(mut self, units: u64) -> Self {
        self.memory = Some(units);
        self
    }

    /// Installs an observability [`Recorder`]: every checkpoint site
    /// visit is forwarded to it, and governed code reaches it through
    /// [`Budget::recorder`] to emit phase spans. The handle is a cheap
    /// shared clone, so the caller keeps its copy for export.
    pub fn recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Installs a deterministic [`FaultPlan`] (test-only).
    #[cfg(feature = "fault-injection")]
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Builds the budget, starting the deadline clock now.
    pub fn build(self) -> Budget {
        let relative = self.deadline.map(|d| Instant::now() + d);
        let deadline = match (relative, self.deadline_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Budget {
            inner: Some(Arc::new(Inner {
                deadline,
                fuel: AtomicU64::new(self.fuel.unwrap_or(u64::MAX)),
                fuel_metered: self.fuel.is_some(),
                memory_cap: self.memory,
                memory_used: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
                ticks: AtomicU64::new(0),
                recorder: self.recorder,
                #[cfg(feature = "fault-injection")]
                fault: self.fault,
                #[cfg(feature = "fault-injection")]
                sites: std::sync::Mutex::new(std::collections::BTreeMap::new()),
            })),
        }
    }
}

/// A shared resource budget. Clones share the same counters.
///
/// The two construction paths:
///
/// * [`Budget::unlimited`] (also [`Default`]) — ungoverned: checkpoints
///   are a single pointer test, nothing can exhaust, [`Budget::cancel`]
///   is a no-op. Exactly the pre-governance behavior.
/// * [`Budget::builder`] — governed: deadline, fuel, and memory limits
///   are each optional, and the handle is cooperatively cancellable.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    inner: Option<Arc<Inner>>,
}

/// What a budget has consumed at one moment, from [`Budget::usage`]:
/// the per-request "tick snapshot" a service stamps into its access log
/// and flight-recorder records after the op finishes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetUsage {
    /// Checkpoints observed (0 for an ungoverned budget).
    pub ticks: u64,
    /// Remaining fuel, if fuel is metered.
    pub remaining_fuel: Option<u64>,
    /// Memory units charged (0 for an ungoverned budget).
    pub memory_used: u64,
}

impl Budget {
    /// The ungoverned budget: nothing is metered, nothing can exhaust.
    pub const fn unlimited() -> Budget {
        Budget { inner: None }
    }

    /// Starts configuring a governed budget.
    pub fn builder() -> BudgetBuilder {
        BudgetBuilder::default()
    }

    /// Whether this handle meters anything (false for [`unlimited`]).
    ///
    /// [`unlimited`]: Budget::unlimited
    pub fn is_governed(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one unit of work at the named site; errors once any
    /// resource is exhausted. Call this at loop heads and recursion
    /// sites of governed code.
    #[inline]
    pub fn checkpoint(&self, site: &'static str) -> Result<(), Exhausted> {
        match &self.inner {
            None => Ok(()),
            Some(inner) => inner.tick(site, 0),
        }
    }

    /// Like [`checkpoint`], additionally charging `units` against the
    /// memory cap. Units are caller-defined (nodes, states, tuples …).
    ///
    /// [`checkpoint`]: Budget::checkpoint
    #[inline]
    pub fn charge(&self, site: &'static str, units: u64) -> Result<(), Exhausted> {
        match &self.inner {
            None => Ok(()),
            Some(inner) => inner.tick(site, units),
        }
    }

    /// The budget's observability [`Recorder`] — the disabled recorder
    /// unless [`BudgetBuilder::recorder`] installed one (an ungoverned
    /// budget always reports the disabled recorder). Governed code uses
    /// this to bracket phases: `let _span = budget.recorder().span(…)`.
    pub fn recorder(&self) -> &Recorder {
        static DISABLED: Recorder = Recorder::disabled();
        match &self.inner {
            None => &DISABLED,
            Some(inner) => &inner.recorder,
        }
    }

    /// Cooperatively cancels every clone of this budget: the next
    /// checkpoint anywhere returns [`Resource::Cancelled`]. No-op on an
    /// ungoverned budget.
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.cancelled.store(true, Ordering::Relaxed);
        }
    }

    /// Whether [`cancel`] has been called on any clone.
    ///
    /// [`cancel`]: Budget::cancel
    pub fn is_cancelled(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|i| i.cancelled.load(Ordering::Relaxed))
    }

    /// Total checkpoints observed so far (0 for an ungoverned budget).
    pub fn ticks(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.ticks.load(Ordering::Relaxed))
    }

    /// Remaining fuel, if fuel is metered.
    pub fn remaining_fuel(&self) -> Option<u64> {
        self.inner
            .as_ref()
            .filter(|i| i.fuel_metered)
            .map(|i| i.fuel.load(Ordering::Relaxed))
    }

    /// The absolute wall-clock deadline, if one is set. A service layer
    /// uses this to compute the time still available for a nested stage
    /// (or a `Retry-After` hint) without threading the original
    /// `Duration` alongside the budget.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.as_ref().and_then(|i| i.deadline)
    }

    /// Memory units charged so far (0 for an ungoverned budget).
    pub fn memory_used(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.memory_used.load(Ordering::Relaxed))
    }

    /// A point-in-time [`BudgetUsage`] snapshot — what this budget has
    /// consumed so far. A service layer takes one per finished request
    /// to stamp fuel ticks into its access log and flight records
    /// without holding onto the budget itself.
    pub fn usage(&self) -> BudgetUsage {
        BudgetUsage {
            ticks: self.ticks(),
            remaining_fuel: self.remaining_fuel(),
            memory_used: self.memory_used(),
        }
    }

    /// The distinct checkpoint site labels this budget has visited, in
    /// sorted order (test-only; the fault-injection property tests assert
    /// coverage of the injection surface with this).
    #[cfg(feature = "fault-injection")]
    pub fn sites(&self) -> Vec<&'static str> {
        self.inner
            .as_ref()
            .and_then(|i| i.sites.lock().ok().map(|s| s.keys().copied().collect()))
            .unwrap_or_default()
    }

    /// Each visited site with the 1-based ordinal of its *first* visit
    /// (test-only). On a deterministic workload these ordinals are the
    /// targeting table for a fault sweep: installing a [`FaultPlan`] that
    /// trips at a site's first-visit ordinal injects precisely there.
    #[cfg(feature = "fault-injection")]
    pub fn site_ordinals(&self) -> Vec<(&'static str, u64)> {
        self.inner
            .as_ref()
            .and_then(|i| {
                i.sites
                    .lock()
                    .ok()
                    .map(|s| s.iter().map(|(&k, &v)| (k, v)).collect())
            })
            .unwrap_or_default()
    }
}

/// A thread-safe token bucket: the per-tenant admission quota primitive
/// of `xnf-serve`. Capacity `burst` tokens, refilled continuously at
/// `per_sec` tokens per second; [`TokenBucket::try_take`] either debits
/// the cost or reports how long until enough tokens accumulate (the
/// `Retry-After` hint).
///
/// Time is injected by the caller ([`Instant`]s), so tests drive the
/// bucket deterministically without sleeping.
#[derive(Debug)]
pub struct TokenBucket {
    burst: f64,
    per_sec: f64,
    state: std::sync::Mutex<BucketState>,
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket holding at most `burst` tokens, refilled at `per_sec`
    /// tokens per second, starting full at `now`.
    pub fn new(burst: f64, per_sec: f64, now: Instant) -> TokenBucket {
        TokenBucket {
            burst: burst.max(0.0),
            per_sec: per_sec.max(0.0),
            state: std::sync::Mutex::new(BucketState {
                tokens: burst.max(0.0),
                last: now,
            }),
        }
    }

    /// Attempts to debit `cost` tokens at time `now`. On refusal,
    /// returns the duration after which the debit would succeed —
    /// `None` if it never can (cost exceeds the burst capacity, with a
    /// zero refill rate).
    #[allow(clippy::missing_errors_doc)]
    pub fn try_take(&self, cost: f64, now: Instant) -> Result<(), Option<Duration>> {
        // A poisoned bucket fails closed: refuse with a short retry
        // hint rather than admit unmetered load.
        let Ok(mut s) = self.state.lock() else {
            return Err(Some(Duration::from_secs(1)));
        };
        let elapsed = now.saturating_duration_since(s.last).as_secs_f64();
        s.tokens = (s.tokens + elapsed * self.per_sec).min(self.burst);
        s.last = now;
        if s.tokens >= cost {
            s.tokens -= cost;
            return Ok(());
        }
        // A full bucket could never cover it, or nothing refills: no
        // amount of waiting helps.
        if cost > self.burst || self.per_sec == 0.0 {
            return Err(None);
        }
        let deficit = cost - s.tokens;
        Err(Some(Duration::from_secs_f64(deficit / self.per_sec)))
    }

    /// Tokens currently available at time `now` (refill applied, no
    /// debit).
    pub fn available(&self, now: Instant) -> f64 {
        match self.state.lock() {
            Ok(s) => {
                let elapsed = now.saturating_duration_since(s.last).as_secs_f64();
                (s.tokens + elapsed * self.per_sec).min(self.burst)
            }
            Err(_) => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_snapshots_ticks_fuel_and_memory() {
        assert_eq!(Budget::unlimited().usage(), BudgetUsage::default());
        let b = Budget::builder().fuel(100).memory(1 << 20).build();
        b.checkpoint("test.site").unwrap();
        b.charge("test.site", 64).unwrap();
        let usage = b.usage();
        assert_eq!(usage.ticks, 2);
        assert_eq!(usage.remaining_fuel, Some(98));
        assert_eq!(usage.memory_used, 64);
    }

    #[test]
    fn unlimited_never_exhausts() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.checkpoint("test.site").unwrap();
            b.charge("test.site", 1 << 40).unwrap();
        }
        assert!(!b.is_governed());
        assert_eq!(b.ticks(), 0);
        b.cancel();
        b.checkpoint("test.site").unwrap();
    }

    #[test]
    fn fuel_exhausts_after_exactly_n_checkpoints() {
        let b = Budget::builder().fuel(5).build();
        for _ in 0..5 {
            b.checkpoint("test.fuel").unwrap();
        }
        let err = b.checkpoint("test.fuel").unwrap_err();
        assert_eq!(err.resource, Resource::Fuel);
        assert!(err.progress.contains("test.fuel"), "{}", err.progress);
        // Exhaustion is sticky: fuel stays at zero.
        assert_eq!(b.remaining_fuel(), Some(0));
        assert!(b.checkpoint("test.fuel").is_err());
    }

    #[test]
    fn memory_cap_trips_on_the_overflowing_charge() {
        let b = Budget::builder().memory(10).build();
        b.charge("test.mem", 6).unwrap();
        let err = b.charge("test.mem", 6).unwrap_err();
        assert_eq!(err.resource, Resource::Memory);
        assert!(b.memory_used() >= 10);
    }

    #[test]
    fn expired_deadline_trips_on_the_first_checkpoint() {
        let b = Budget::builder().deadline(Duration::ZERO).build();
        let err = b.checkpoint("test.deadline").unwrap_err();
        assert_eq!(err.resource, Resource::Deadline);
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let b = Budget::builder()
            .deadline(Duration::from_secs(3600))
            .build();
        for _ in 0..1000 {
            b.checkpoint("test.deadline").unwrap();
        }
    }

    #[test]
    fn cancellation_is_seen_by_clones() {
        let b = Budget::builder().build();
        let clone = b.clone();
        clone.checkpoint("test.cancel").unwrap();
        b.cancel();
        let err = clone.checkpoint("test.cancel").unwrap_err();
        assert_eq!(err.resource, Resource::Cancelled);
        assert!(b.is_cancelled() && clone.is_cancelled());
    }

    #[test]
    fn absolute_deadline_is_honored_and_readable() {
        let at = Instant::now() + Duration::from_secs(3600);
        let b = Budget::builder().deadline_at(at).build();
        assert_eq!(b.deadline(), Some(at));
        b.checkpoint("test.abs").unwrap();
        // When both forms are given, the earlier instant wins.
        let past = Instant::now();
        let b = Budget::builder()
            .deadline(Duration::from_secs(3600))
            .deadline_at(past)
            .build();
        assert_eq!(b.deadline(), Some(past));
        let err = b.checkpoint("test.abs").unwrap_err();
        assert_eq!(err.resource, Resource::Deadline);
        // Unlimited and plain governed budgets expose no deadline.
        assert_eq!(Budget::unlimited().deadline(), None);
        assert_eq!(Budget::builder().build().deadline(), None);
    }

    #[test]
    fn token_bucket_debits_refuses_and_refills() {
        let t0 = Instant::now();
        let bucket = TokenBucket::new(2.0, 1.0, t0);
        assert!(bucket.try_take(1.0, t0).is_ok());
        assert!(bucket.try_take(1.0, t0).is_ok());
        // Empty: refusal carries the refill wait for the missing token.
        let wait = bucket.try_take(1.0, t0).unwrap_err();
        let wait = wait.expect("refill makes the debit reachable");
        assert!(wait <= Duration::from_secs(1), "{wait:?}");
        // 1.5 simulated seconds later one token has accumulated.
        let t1 = t0 + Duration::from_millis(1500);
        assert!(bucket.available(t1) >= 1.0);
        assert!(bucket.try_take(1.0, t1).is_ok());
        // A cost above burst capacity is unreachable forever.
        assert_eq!(bucket.try_take(5.0, t1), Err(None));
        // Zero refill rate: exhaustion is permanent.
        let frozen = TokenBucket::new(1.0, 0.0, t0);
        assert!(frozen.try_take(1.0, t0).is_ok());
        assert_eq!(
            frozen.try_take(1.0, t0 + Duration::from_secs(60)),
            Err(None)
        );
    }

    #[test]
    fn display_is_informative() {
        let b = Budget::builder().fuel(0).build();
        let err = b.checkpoint("chase.saturate.queue").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("step fuel"), "{msg}");
        assert!(msg.contains("chase.saturate.queue"), "{msg}");
    }

    #[test]
    fn recorder_sees_checkpoint_sites_and_units() {
        let rec = Recorder::enabled();
        let b = Budget::builder().recorder(rec.clone()).build();
        b.checkpoint("test.site").unwrap();
        b.checkpoint("test.site").unwrap();
        b.charge("test.charge", 5).unwrap();
        assert!(b.recorder().is_enabled());
        let sites = rec.sites();
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].0, "test.charge");
        assert_eq!(sites[0].1.visits, 1);
        assert_eq!(sites[0].1.units, 5);
        assert_eq!(sites[1].0, "test.site");
        assert_eq!(sites[1].1.visits, 2);
    }

    #[test]
    fn ungoverned_budget_reports_the_disabled_recorder() {
        let b = Budget::unlimited();
        assert!(!b.recorder().is_enabled());
        // Probes through it are inert but safe.
        let _span = b.recorder().span("phase", "cat");
        b.recorder().bump("nothing");
        // A governed budget without an explicit recorder is also dark.
        assert!(!Budget::builder().build().recorder().is_enabled());
    }

    #[test]
    fn exhausting_checkpoint_is_still_counted() {
        let rec = Recorder::enabled();
        let b = Budget::builder().fuel(1).recorder(rec.clone()).build();
        b.checkpoint("test.fuel").unwrap();
        assert!(b.checkpoint("test.fuel").is_err());
        assert_eq!(rec.sites()[0].1.visits, 2);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn fault_plan_trips_at_exactly_the_nth_checkpoint() {
        let plan = FaultPlan {
            trip_at: 3,
            resource: Resource::Memory,
        };
        let b = Budget::builder().fault(plan).build();
        b.checkpoint("a").unwrap();
        b.checkpoint("b").unwrap();
        let err = b.checkpoint("c").unwrap_err();
        assert_eq!(err.resource, Resource::Memory);
        assert_eq!(b.sites(), vec!["a", "b", "c"]);
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn seeded_plans_are_deterministic_and_in_range() {
        for seed in 0..200 {
            let a = FaultPlan::seeded(seed, 50);
            let b = FaultPlan::seeded(seed, 50);
            assert_eq!(a, b);
            assert!((1..=50).contains(&a.trip_at));
        }
    }
}
