//! # `xnf-obs` — observability for the XNF engine
//!
//! Structured spans, counters, and histograms behind a single cheap
//! handle, mirroring the design of `xnf-govern`'s `Budget`: a
//! [`Recorder`] is an `Option<Arc<…>>`, so the disabled recorder
//! ([`Recorder::disabled`]) costs exactly one `Option` test per probe —
//! the same price the ungoverned budget already pays at its checkpoints —
//! and an enabled recorder ([`Recorder::enabled`]) accumulates events in
//! memory until one of the exporters renders them:
//!
//! * [`Recorder::chrome_trace`] — Chrome trace event format (the JSON
//!   `chrome://tracing` and [Perfetto](https://ui.perfetto.dev) load),
//! * [`Recorder::jsonl`] — one JSON object per line, for ad-hoc `jq`
//!   pipelines and log shipping,
//! * [`Recorder::prometheus`] — Prometheus text exposition format for
//!   counters, checkpoint-site tallies, and span-duration histograms.
//!
//! The engine reports through two channels. Checkpoint piggybacking:
//! `xnf-govern` forwards every `Budget::checkpoint`/`charge` site visit
//! to [`Recorder::count_site`], so the ~20 labeled sites the governance
//! layer already threads through the hot paths become counters with no
//! new instrumentation. Phase spans: code brackets coarse phases (DTD
//! parse, Glushkov build, chase runs, normalize iterations and steps,
//! XNF candidate tests, lint tiers, oracle stages) with the RAII
//! [`Span`] guard from [`Recorder::span`], which records a Chrome
//! complete event (`ph:"X"`) on drop.
//!
//! The [`Counter`]/[`CounterSnapshot`] pair is the shared primitive for
//! engine-side statistics (the chase's run/firing/cache tallies): cheap
//! relaxed atomics while work is in flight, mergeable snapshots after,
//! and [`Recorder::merge`] to publish the totals into the export
//! pipeline.
//!
//! [`json`] is the workspace's one JSON codec — the parser the service
//! decodes requests with and the string-escaping table every JSON
//! writer (the exporters here included) shares. It lives in this
//! dependency-free leaf crate so every other crate can reach it.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod counter;
mod export;
mod flight;
pub mod json;

pub use counter::{Counter, CounterSnapshot};
pub use export::{chrome_trace_events, escape_label, ObsFormat};
pub use flight::{
    mint_request_id, FlightRecorder, LabeledHistograms, RequestRecord, RequestSummary,
};

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A completed span: one Chrome "complete" (`ph:"X"`) event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (e.g. `"chase.run"`).
    pub name: &'static str,
    /// Category lane (e.g. `"implication"`), Chrome's `cat` field.
    pub cat: &'static str,
    /// Start time in nanoseconds since the recorder's epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Small per-thread integer id; spans on one `tid` nest by time
    /// containment, which is how Perfetto reconstructs the call tree.
    pub tid: u64,
}

/// Per-checkpoint-site tally accumulated via [`Recorder::count_site`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteTally {
    /// Number of visits (checkpoints observed at this site).
    pub visits: u64,
    /// Total memory units charged at this site.
    pub units: u64,
}

/// A power-of-two-bucketed histogram (`le = 2^k − 1` upper bounds):
/// coarse, allocation-free, and enough to see where a distribution sits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Observation count.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// `buckets[k]` counts observations with `value < 2^k` (non-cumulative
    /// storage; exporters render the cumulative Prometheus form).
    pub buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        let k = 64 - u64::leading_zeros(value) as usize;
        self.buckets[k] += 1;
    }

    /// Adds every observation of `other` into `self` (bucket-wise sum).
    pub fn merge_from(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// Index of the highest non-empty bucket, if any observation exists.
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &c)| c > 0)
            .map(|(k, _)| k)
    }

    /// Approximate `p`-quantile (`0.0 ≤ p ≤ 1.0`): the upper bound
    /// (`2^k − 1`) of the bucket containing the `⌈p·count⌉`-th
    /// observation. Within a factor of 2 of the true value — exactly the
    /// resolution the power-of-two buckets store — which is plenty for
    /// p50/p99 latency reporting. `None` with no observations.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if k >= 64 { u64::MAX } else { (1u64 << k) - 1 });
            }
        }
        Some(u64::MAX)
    }
}

/// One site-tally slot of a per-thread table: `key` is the address of
/// the site label's first byte (0 = unclaimed). Site labels are
/// `&'static str` literals, so the address is a stable per-call-site
/// key; distinct literals with equal text are merged by name at export.
///
/// Only the owning thread writes a slot (plain load+store, no RMW — the
/// point of the per-thread design); exporters read concurrently, so the
/// fields are atomics with release stores / acquire loads.
#[derive(Debug)]
struct SiteSlot {
    key: AtomicU64,
    visits: AtomicU64,
    units: AtomicU64,
}

impl SiteSlot {
    const fn new() -> SiteSlot {
        SiteSlot {
            key: AtomicU64::new(0),
            visits: AtomicU64::new(0),
            units: AtomicU64::new(0),
        }
    }
}

/// Fixed capacity of a per-thread site table — comfortably above the
/// ~20 labeled checkpoint sites; the overflow map catches the rest.
const SITE_SLOTS: usize = 64;

/// One thread's checkpoint tallies. [`Recorder::count_site`] is the
/// hottest probe (hundreds of calls per engine run), so each thread
/// gets its own single-writer table: a visit costs a thread-local
/// lookup plus two or three uncontended loads/stores — no lock, no
/// locked read-modify-write.
#[derive(Debug)]
struct ThreadSites {
    slots: [SiteSlot; SITE_SLOTS],
    /// Tallies that did not fit the slot table (never in practice).
    overflow: Mutex<BTreeMap<&'static str, SiteTally>>,
}

impl ThreadSites {
    fn new() -> ThreadSites {
        ThreadSites {
            slots: [const { SiteSlot::new() }; SITE_SLOTS],
            overflow: Mutex::new(BTreeMap::new()),
        }
    }

    /// Records `visits` visits (and `units` charged units) in one
    /// update — `visits = 1` is the checkpoint fast path; bulk adds come
    /// from [`Recorder::absorb`] folding a per-request recorder in.
    /// Single-writer: only the owning thread calls this, which is what
    /// makes the plain load+store updates sound.
    fn add(
        &self,
        site: &'static str,
        visits: u64,
        units: u64,
        names: &Mutex<BTreeMap<u64, &'static str>>,
    ) {
        let key = site.as_ptr() as usize as u64;
        // Fibonacci hashing of the address into the slot index space.
        let mut idx = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % SITE_SLOTS;
        for _ in 0..SITE_SLOTS {
            let slot = &self.slots[idx];
            let k = slot.key.load(Ordering::Relaxed);
            if k == key {
                let v = slot.visits.load(Ordering::Relaxed);
                slot.visits.store(v + visits, Ordering::Release);
                if units != 0 {
                    let u = slot.units.load(Ordering::Relaxed);
                    slot.units.store(u + units, Ordering::Release);
                }
                return;
            }
            if k == 0 {
                // First visit at this site on this thread: register the
                // label text, publish the tally, then the key (so an
                // exporter never sees a keyed slot it cannot resolve).
                if let Ok(mut names) = names.lock() {
                    names.insert(key, site);
                }
                slot.visits.store(visits, Ordering::Release);
                slot.units.store(units, Ordering::Release);
                slot.key.store(key, Ordering::Release);
                return;
            }
            idx = (idx + 1) % SITE_SLOTS;
        }
        if let Ok(mut overflow) = self.overflow.lock() {
            let tally = overflow.entry(site).or_default();
            tally.visits += visits;
            tally.units += units;
        }
    }
}

#[derive(Debug)]
struct RecorderInner {
    /// Process-unique id; keys the thread-local table cache (an address
    /// can be reused after a recorder is dropped, an id cannot).
    id: u64,
    epoch: Instant,
    /// Completed spans kept for export, at most [`span_cap`]
    /// (`RecorderInner::span_cap`) of them; later spans only count into
    /// [`spans_dropped`] (`RecorderInner::spans_dropped`).
    spans: Mutex<Vec<SpanEvent>>,
    /// Retention bound on `spans`: a recorder installed on a long-lived
    /// process (the `xnf-serve` shared recorder) must not grow without
    /// bound with request count.
    span_cap: usize,
    /// Spans discarded because `spans` was already at `span_cap`.
    spans_dropped: AtomicU64,
    counters: Mutex<BTreeMap<&'static str, u64>>,
    /// Every thread's site table, registered on that thread's first
    /// checkpoint; exporters aggregate across them.
    thread_sites: Mutex<Vec<Arc<ThreadSites>>>,
    /// Label-address → label text, filled on each first visit.
    site_names: Mutex<BTreeMap<u64, &'static str>>,
    histograms: Mutex<BTreeMap<&'static str, Histogram>>,
}

impl RecorderInner {
    fn new(span_cap: usize) -> RecorderInner {
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        RecorderInner {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            span_cap,
            spans_dropped: AtomicU64::new(0),
            counters: Mutex::new(BTreeMap::new()),
            thread_sites: Mutex::new(Vec::new()),
            site_names: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
        }
    }

    /// The enabled half of [`Recorder::count_site`] (and the bulk-add
    /// path [`Recorder::absorb`] uses): routes the visits to this
    /// thread's single-writer table, creating and registering the table
    /// on the thread's first checkpoint against this recorder.
    fn add_site(&self, site: &'static str, visits: u64, units: u64) {
        thread_local! {
            /// This thread's site tables, keyed by recorder id. Tiny in
            /// practice (one live recorder at a time); entries whose
            /// recorder died are pruned on insertion.
            static TABLES: std::cell::RefCell<Vec<(u64, Arc<ThreadSites>)>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        TABLES.with(|tables| {
            let mut tables = tables.borrow_mut();
            if let Some((_, table)) = tables.iter().find(|(id, _)| *id == self.id) {
                table.add(site, visits, units, &self.site_names);
                return;
            }
            // First checkpoint on this thread for this recorder:
            // register a fresh table with the recorder and cache it.
            let table = Arc::new(ThreadSites::new());
            if let Ok(mut registry) = self.thread_sites.lock() {
                registry.push(Arc::clone(&table));
            }
            tables.retain(|(_, t)| Arc::strong_count(t) > 1);
            table.add(site, visits, units, &self.site_names);
            tables.push((self.id, table));
        });
    }
}

/// Small stable integer id for the current thread (first use assigns the
/// next id). Chrome traces key nesting on `tid`; OS thread ids are not
/// guaranteed small or stable across platforms, so we mint our own.
fn current_tid() -> u64 {
    static NEXT_TID: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: Cell<u64> = const { Cell::new(0) };
    }
    TID.with(|slot| {
        let v = slot.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            slot.set(v);
            v
        }
    })
}

/// A cheap, cloneable observability handle. Clones share the same event
/// buffers, so a recorder installed on a `Budget` is visible to every
/// worker thread that clones the budget.
///
/// [`Recorder::disabled`] (also [`Default`]) allocates nothing and makes
/// every probe a single `Option` test; [`Recorder::enabled`] accumulates
/// spans, counters, site tallies, and histograms for export.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<RecorderInner>>,
}

impl Recorder {
    /// The no-op recorder: every probe is one `Option` test.
    pub const fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// An enabled recorder whose epoch (span timestamp zero) is now.
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Arc::new(RecorderInner::new(usize::MAX))),
        }
    }

    /// An enabled recorder that retains at most `span_cap` completed
    /// spans; later spans are discarded (counted by
    /// [`Recorder::spans_dropped`]) while counters, site tallies, and
    /// histograms keep accumulating. This is the profile for a recorder
    /// shared across a long-lived process — `xnf-serve` installs one so
    /// `/metrics` stays O(1) in request count.
    pub fn with_span_cap(span_cap: usize) -> Recorder {
        Recorder {
            inner: Some(Arc::new(RecorderInner::new(span_cap))),
        }
    }

    /// Spans discarded by the [`Recorder::with_span_cap`] retention
    /// bound (0 for unbounded or disabled recorders).
    pub fn spans_dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.spans_dropped.load(Ordering::Relaxed))
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span; the returned guard records a completed event (and,
    /// at export time, a duration-histogram observation under `name`)
    /// when dropped. On a disabled recorder the guard is inert. The
    /// guard borrows the recorder, so it costs no reference-count
    /// traffic — hold it in a `let` for the phase it brackets.
    #[inline]
    pub fn span(&self, name: &'static str, cat: &'static str) -> Span<'_> {
        Span {
            state: self.inner.as_deref().map(|inner| SpanState {
                inner,
                name,
                cat,
                start: Instant::now(),
            }),
        }
    }

    /// Adds 1 to the named counter.
    #[inline]
    pub fn bump(&self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `n` to the named counter.
    #[inline]
    pub fn add(&self, name: &'static str, n: u64) {
        if let Some(inner) = &self.inner {
            if let Ok(mut counters) = inner.counters.lock() {
                *counters.entry(name).or_insert(0) += n;
            }
        }
    }

    /// Records one visit (and any charged memory units) at a checkpoint
    /// site. `xnf-govern` calls this from `Budget::checkpoint`/`charge`,
    /// which turns the governance layer's ~20 labeled sites into
    /// counters for free. The visit lands in the calling thread's
    /// single-writer table (see [`ThreadSites`]) — no lock, no locked
    /// read-modify-write on this hottest of probes.
    #[inline]
    pub fn count_site(&self, site: &'static str, units: u64) {
        // The body stays a two-instruction shim (test + call) so the
        // disabled path inlines across crates at every checkpoint; the
        // recording machinery lives out of line on `RecorderInner`.
        if let Some(inner) = &self.inner {
            inner.add_site(site, 1, units);
        }
    }

    /// Folds everything `other` recorded into `self`: counters and
    /// checkpoint-site tallies add, `other`'s histograms (explicit plus
    /// span-duration-derived) merge into `self`'s, and `other`'s
    /// dropped-span count accumulates. Span events themselves are *not*
    /// copied — a per-request recorder's span tree belongs in the
    /// flight ring, while the shared recorder keeps aggregates, which is
    /// what keeps a service's `/metrics` O(1) in request count.
    pub fn absorb(&self, other: &Recorder) {
        let (Some(inner), Some(other_inner)) = (&self.inner, &other.inner) else {
            return;
        };
        if Arc::ptr_eq(inner, other_inner) {
            return;
        }
        for (name, value) in other.counters() {
            self.add(name, value);
        }
        for (site, tally) in other.sites() {
            if tally.visits != 0 || tally.units != 0 {
                inner.add_site(site, tally.visits, tally.units);
            }
        }
        if let Ok(mut histograms) = inner.histograms.lock() {
            for (name, h) in other.histograms() {
                histograms.entry(name).or_default().merge_from(&h);
            }
        }
        let dropped = other_inner.spans_dropped.load(Ordering::Relaxed);
        if dropped != 0 {
            inner.spans_dropped.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Records `value` into the named histogram.
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if let Some(inner) = &self.inner {
            if let Ok(mut histograms) = inner.histograms.lock() {
                histograms.entry(name).or_default().observe(value);
            }
        }
    }

    /// Merges a [`CounterSnapshot`] into the recorder's counters —
    /// how engine-side statistics (e.g. the chase tallies) publish their
    /// totals into the export pipeline.
    pub fn merge(&self, snapshot: &CounterSnapshot) {
        for (name, value) in snapshot.iter() {
            self.add(name, value);
        }
    }

    /// Current value of the named counter (0 when absent or disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .and_then(|i| i.counters.lock().ok().map(|c| c.get(name).copied()))
            .flatten()
            .unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner
            .as_ref()
            .and_then(|i| {
                i.counters
                    .lock()
                    .ok()
                    .map(|c| c.iter().map(|(&k, &v)| (k, v)).collect())
            })
            .unwrap_or_default()
    }

    /// All checkpoint-site tallies aggregated across threads, sorted by
    /// site label. Slots whose label shares text (distinct literals)
    /// are merged by name.
    pub fn sites(&self) -> Vec<(&'static str, SiteTally)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut merged: BTreeMap<&'static str, SiteTally> = BTreeMap::new();
        let tables: Vec<Arc<ThreadSites>> = match inner.thread_sites.lock() {
            Ok(registry) => registry.iter().map(Arc::clone).collect(),
            Err(_) => Vec::new(),
        };
        let names = match inner.site_names.lock() {
            Ok(names) => names.clone(),
            Err(_) => BTreeMap::new(),
        };
        for table in &tables {
            for slot in &table.slots {
                let key = slot.key.load(Ordering::Acquire);
                if key == 0 {
                    continue;
                }
                let Some(&name) = names.get(&key) else {
                    continue;
                };
                let tally = merged.entry(name).or_default();
                tally.visits += slot.visits.load(Ordering::Acquire);
                tally.units += slot.units.load(Ordering::Acquire);
            }
            if let Ok(overflow) = table.overflow.lock() {
                for (&name, &t) in overflow.iter() {
                    let tally = merged.entry(name).or_default();
                    tally.visits += t.visits;
                    tally.units += t.units;
                }
            }
        }
        merged.into_iter().collect()
    }

    /// All completed spans, in completion order.
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.inner
            .as_ref()
            .and_then(|i| i.spans.lock().ok().map(|s| s.clone()))
            .unwrap_or_default()
    }

    /// All histograms, sorted by name: explicit [`Recorder::observe`]
    /// observations plus per-span duration histograms (microseconds,
    /// keyed by span name) derived lazily here so `Span::drop` stays off
    /// the histogram lock.
    pub fn histograms(&self) -> Vec<(&'static str, Histogram)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut merged: BTreeMap<&'static str, Histogram> = match inner.histograms.lock() {
            Ok(h) => h.iter().map(|(&k, v)| (k, v.clone())).collect(),
            Err(_) => BTreeMap::new(),
        };
        for span in self.spans() {
            merged
                .entry(span.name)
                .or_default()
                .observe(span.dur_ns / 1_000);
        }
        merged.into_iter().collect()
    }

    /// Number of completed spans.
    pub fn span_count(&self) -> usize {
        self.inner
            .as_ref()
            .and_then(|i| i.spans.lock().ok().map(|s| s.len()))
            .unwrap_or(0)
    }
}

struct SpanState<'a> {
    inner: &'a RecorderInner,
    name: &'static str,
    cat: &'static str,
    start: Instant,
}

impl std::fmt::Debug for SpanState<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanState")
            .field("name", &self.name)
            .field("cat", &self.cat)
            .finish_non_exhaustive()
    }
}

/// RAII span guard from [`Recorder::span`]: records a completed event
/// when dropped. Hold it in a `let` binding for the duration of the
/// phase it brackets (`let _span = recorder.span(…)`; a bare `_` would
/// drop immediately).
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; binding it to `_` drops it immediately"]
pub struct Span<'a> {
    state: Option<SpanState<'a>>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            let dur_ns = duration_ns(state.start.elapsed());
            let ts_ns = duration_ns(state.start.duration_since(state.inner.epoch));
            // One lock, one push. The per-span duration histogram is
            // derived from the event list at export time, not here.
            if let Ok(mut spans) = state.inner.spans.lock() {
                if spans.len() < state.inner.span_cap {
                    spans.push(SpanEvent {
                        name: state.name,
                        cat: state.cat,
                        ts_ns,
                        dur_ns,
                        tid: current_tid(),
                    });
                } else {
                    state.inner.spans_dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn histogram_quantiles_land_in_the_right_bucket() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        // 90 fast observations (~8µs) and 10 slow ones (~1000µs): p50
        // sits in the fast bucket, p99 in the slow one.
        for _ in 0..90 {
            h.observe(8);
        }
        for _ in 0..10 {
            h.observe(1000);
        }
        assert_eq!(h.quantile(0.5), Some(15)); // bucket 2^4 − 1
        assert_eq!(h.quantile(0.99), Some(1023)); // bucket 2^10 − 1
        assert_eq!(h.quantile(0.0), Some(15));
        assert_eq!(h.quantile(1.0), Some(1023));
        // An off-scale observation clamps to the top bucket bound.
        h.observe(u64::MAX);
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn span_cap_bounds_retention_but_not_counters() {
        let r = Recorder::with_span_cap(2);
        for _ in 0..5 {
            let _span = r.span("req", "serve");
            r.bump("requests");
        }
        assert_eq!(r.span_count(), 2);
        assert_eq!(r.spans_dropped(), 3);
        assert_eq!(r.counter("requests"), 5);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        {
            let _span = r.span("phase", "cat");
            r.bump("c");
            r.count_site("site", 3);
            r.observe("h", 42);
        }
        assert_eq!(r.span_count(), 0);
        assert_eq!(r.counter("c"), 0);
        assert!(r.sites().is_empty());
        assert!(r.histograms().is_empty());
        assert!(r.chrome_trace().contains("\"traceEvents\""));
    }

    #[test]
    fn counters_and_sites_accumulate() {
        let r = Recorder::enabled();
        r.bump("a");
        r.add("a", 4);
        r.count_site("s1", 0);
        r.count_site("s1", 7);
        assert_eq!(r.counter("a"), 5);
        let sites = r.sites();
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].0, "s1");
        assert_eq!(
            sites[0].1,
            SiteTally {
                visits: 2,
                units: 7
            }
        );
    }

    #[test]
    fn clones_share_buffers() {
        let r = Recorder::enabled();
        let clone = r.clone();
        clone.bump("shared");
        drop(clone.span("phase", "cat"));
        assert_eq!(r.counter("shared"), 1);
        assert_eq!(r.span_count(), 1);
    }

    #[test]
    fn span_guard_records_duration_and_histogram() {
        let r = Recorder::enabled();
        {
            let _span = r.span("slow.phase", "test");
            std::thread::sleep(Duration::from_millis(2));
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "slow.phase");
        assert_eq!(spans[0].cat, "test");
        assert!(spans[0].dur_ns >= 1_000_000, "dur = {}ns", spans[0].dur_ns);
        let histograms = r.histograms();
        assert_eq!(histograms.len(), 1);
        assert_eq!(histograms[0].0, "slow.phase");
        assert_eq!(histograms[0].1.count, 1);
        assert!(histograms[0].1.sum >= 1_000);
    }

    #[test]
    fn nested_spans_share_a_tid_and_nest_by_time() {
        let r = Recorder::enabled();
        {
            let _outer = r.span("outer", "test");
            {
                let _inner = r.span("inner", "test");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        // Inner drops first, so it appears first in completion order.
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.name, "inner");
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.tid, outer.tid);
        // Proper nesting: the inner span's interval is contained in the
        // outer's — the invariant Perfetto relies on to draw the tree.
        assert!(outer.ts_ns <= inner.ts_ns);
        assert!(inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns);
    }

    #[test]
    fn threads_get_distinct_tids() {
        let r = Recorder::enabled();
        drop(r.span("main", "test"));
        let clone = r.clone();
        std::thread::spawn(move || drop(clone.span("worker", "test")))
            .join()
            .unwrap();
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0].tid, spans[1].tid);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        h.observe(2);
        h.observe(1024);
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 1027);
        assert_eq!(h.buckets[0], 1); // value 0
        assert_eq!(h.buckets[1], 1); // value 1
        assert_eq!(h.buckets[2], 1); // value 2
        assert_eq!(h.buckets[11], 1); // value 1024
        assert_eq!(h.max_bucket(), Some(11));
    }

    #[test]
    fn absorb_folds_a_request_recorder_into_the_shared_one() {
        let shared = Recorder::with_span_cap(0);
        let request = Recorder::with_span_cap(1);
        request.bump("serve.requests");
        request.count_site("serve.request", 3);
        request.observe("req.micros", 100);
        {
            let _kept = request.span("op.normalize", "serve");
        }
        {
            let _dropped = request.span("op.normalize", "serve");
        }
        assert_eq!(request.spans_dropped(), 1);

        shared.bump("serve.requests");
        shared.absorb(&request);
        assert_eq!(shared.counter("serve.requests"), 2);
        let sites = shared.sites();
        assert_eq!(
            sites,
            vec![(
                "serve.request",
                SiteTally {
                    visits: 1,
                    units: 3
                }
            )]
        );
        // The span's duration folded into the shared histograms even
        // though the span event itself was not copied.
        assert_eq!(shared.span_count(), 0);
        let histograms = shared.histograms();
        assert!(histograms
            .iter()
            .any(|(n, h)| *n == "op.normalize" && h.count == 1));
        assert!(histograms
            .iter()
            .any(|(n, h)| *n == "req.micros" && h.sum == 100));
        assert_eq!(shared.spans_dropped(), 1);
        // Absorbing is idempotent-safe against self and no-op handles.
        shared.absorb(&shared.clone());
        shared.absorb(&Recorder::disabled());
        assert_eq!(shared.counter("serve.requests"), 2);
    }

    #[test]
    fn histogram_merge_is_bucketwise() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.observe(3);
        b.observe(3);
        b.observe(1000);
        a.merge_from(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 1006);
        assert_eq!(a.buckets[2], 2);
        assert_eq!(a.buckets[10], 1);
    }

    #[test]
    fn merge_publishes_snapshot_totals() {
        let mut snap = CounterSnapshot::default();
        snap.record("chase.runs", 3);
        snap.record("cache.hits", 9);
        let r = Recorder::enabled();
        r.add("chase.runs", 1);
        r.merge(&snap);
        assert_eq!(r.counter("chase.runs"), 4);
        assert_eq!(r.counter("cache.hits"), 9);
    }
}
