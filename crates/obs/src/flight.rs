//! Request-scoped observability: a bounded flight-recorder ring with
//! tail-sampling retention, request-ID minting, and labeled latency
//! histograms.
//!
//! The shared [`Recorder`](crate::Recorder) answers fleet-level
//! questions ("how many chase checkpoints total?"); this module is the
//! request-level half a service mounts next to it. Each finished
//! request becomes one [`RequestRecord`] — its id, labels, budget
//! ticks, wall time, and the span tree its per-request recorder
//! captured — and the [`FlightRecorder`] decides what to keep:
//!
//! * **errors and sheds always** — any non-`200` outcome is retained
//!   unconditionally (eviction prefers sampled records, so a full ring
//!   gives up boring successes first);
//! * **the slow tail always** — a `200` at or above the running p90 of
//!   the latency histogram is retained like an error;
//! * **pinned requests always** — the caller marks records whose id the
//!   client supplied (`x-request-id` / `traceparent`); sending an id is
//!   an explicit ask to trace, so those are retained like errors;
//! * **a sample of the boring rest** — every `sample_every`-th
//!   uninteresting `200` is kept so the ring still shows the normal
//!   shape of traffic.
//!
//! Everything is allocation-capped: the ring holds at most `capacity`
//! records, each record's span list is bounded upstream by the
//! per-request recorder's span cap, and the labeled histogram table
//! folds overflow label sets into a catch-all `other` series.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::export::{chrome_trace_events, escape_label, write_histogram};
use crate::json::quoted;
use crate::{Histogram, SpanEvent};

/// Mints a process-unique request id: 32 lowercase hex characters (the
/// same shape as a W3C `traceparent` trace-id), derived from the wall
/// clock and a process-wide sequence number so concurrent mints never
/// collide.
pub fn mint_request_id() -> String {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| {
            u64::try_from(d.as_nanos() & u128::from(u64::MAX)).unwrap_or(0)
        });
    let a = splitmix64(now ^ 0x9E37_79B9_7F4A_7C15);
    let b = splitmix64(a ^ seq.rotate_left(32));
    format!("{a:016x}{b:016x}")
}

/// The splitmix64 finalizer: a cheap, well-mixed 64→64 bit hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One finished request, as the service layer hands it to the flight
/// recorder: identity, labels, consumption, and the captured span tree.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// The request id (minted or propagated from the client).
    pub id: String,
    /// Tenant display name (`-` for anonymous requests).
    pub tenant: String,
    /// Route label (a bounded set — dynamic path segments collapsed).
    pub route: String,
    /// HTTP status of the response.
    pub status: u16,
    /// Result-cache outcome: `hit`, `miss`, or `none`.
    pub cache: String,
    /// Shed reason (`queue`, `fuel`, `quota`) or empty when not shed.
    pub shed: String,
    /// Budget checkpoint ticks the request consumed.
    pub fuel: u64,
    /// Wall-clock duration of the handler, microseconds.
    pub wall_micros: u64,
    /// The per-request recorder's completed spans (bounded upstream by
    /// its span cap).
    pub spans: Vec<SpanEvent>,
}

/// A spans-free view of a retained record, for `GET /debug/requests`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSummary {
    /// The request id.
    pub id: String,
    /// Tenant display name.
    pub tenant: String,
    /// Route label.
    pub route: String,
    /// HTTP status.
    pub status: u16,
    /// Cache outcome.
    pub cache: String,
    /// Shed reason or empty.
    pub shed: String,
    /// Budget ticks.
    pub fuel: u64,
    /// Handler wall time, microseconds.
    pub wall_micros: u64,
    /// Number of retained spans (the trace endpoint renders them).
    pub spans: usize,
}

/// Why a record is in the ring; eviction gives up `Sampled` entries
/// before touching a `Must` (error / shed / slow-tail) one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Keep {
    Must,
    Sampled,
}

/// The bounded, tail-sampling ring of recent [`RequestRecord`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    sample_every: u64,
    /// Boring-200 counter driving the 1-in-`sample_every` sample.
    boring: AtomicU64,
    sampled_out: AtomicU64,
    evicted: AtomicU64,
    /// Wall-time distribution of *every* finished request (retained or
    /// not) — the slow-tail threshold comes from here.
    latency: Mutex<Histogram>,
    ring: Mutex<VecDeque<(Keep, RequestRecord)>>,
}

impl FlightRecorder {
    /// A ring retaining at most `capacity` records, keeping one in
    /// `sample_every` boring successes (`0` keeps none of them;
    /// errors, sheds, and the slow tail are always kept).
    pub fn new(capacity: usize, sample_every: u64) -> FlightRecorder {
        FlightRecorder {
            capacity,
            sample_every,
            boring: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            latency: Mutex::new(Histogram::default()),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Offers one finished request to the ring, applying the
    /// tail-sampling policy described on the module. `pinned` marks a
    /// request whose id the *client* supplied (`x-request-id` /
    /// `traceparent`): that is an explicit ask to trace, so it is
    /// retained like an error regardless of how boring its outcome was.
    pub fn record(&self, record: RequestRecord, pinned: bool) {
        let slow_bound = {
            let mut latency = match self.latency.lock() {
                Ok(h) => h,
                Err(e) => e.into_inner(),
            };
            latency.observe(record.wall_micros);
            latency.quantile(0.9).unwrap_or(u64::MAX)
        };
        let keep = if pinned || record.status != 200 || record.wall_micros >= slow_bound {
            Keep::Must
        } else {
            let n = self.boring.fetch_add(1, Ordering::Relaxed);
            if self.sample_every > 0 && n.is_multiple_of(self.sample_every) {
                Keep::Sampled
            } else {
                self.sampled_out.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        if self.capacity == 0 {
            return;
        }
        let mut ring = match self.ring.lock() {
            Ok(r) => r,
            Err(e) => e.into_inner(),
        };
        if ring.len() >= self.capacity {
            // Evict the oldest sampled success first; only a ring full
            // of must-keeps gives one of those up (its oldest).
            let victim = ring
                .iter()
                .position(|(k, _)| *k == Keep::Sampled)
                .unwrap_or(0);
            ring.remove(victim);
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back((keep, record));
    }

    /// Spans-free summaries of the retained records, newest first.
    pub fn recent(&self) -> Vec<RequestSummary> {
        let ring = match self.ring.lock() {
            Ok(r) => r,
            Err(e) => e.into_inner(),
        };
        ring.iter()
            .rev()
            .map(|(_, r)| RequestSummary {
                id: r.id.clone(),
                tenant: r.tenant.clone(),
                route: r.route.clone(),
                status: r.status,
                cache: r.cache.clone(),
                shed: r.shed.clone(),
                fuel: r.fuel,
                wall_micros: r.wall_micros,
                spans: r.spans.len(),
            })
            .collect()
    }

    /// The retained records' summaries as one JSON document:
    /// `{"requests":[{…newest first…}]}`.
    pub fn requests_json(&self) -> String {
        let mut out = String::from("{\"requests\":[");
        for (i, s) in self.recent().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            use std::fmt::Write as _;
            let _ = write!(
                out,
                "\n{{\"id\":{},\"tenant\":{},\"route\":{},\"status\":{},\
                 \"cache\":{},\"shed\":{},\"fuel\":{},\"wall_micros\":{},\"spans\":{}}}",
                quoted(&s.id),
                quoted(&s.tenant),
                quoted(&s.route),
                s.status,
                quoted(&s.cache),
                quoted(&s.shed),
                s.fuel,
                s.wall_micros,
                s.spans
            );
        }
        out.push_str("\n]}\n");
        out
    }

    /// The retained record with the given id (newest match wins), as a
    /// Chrome-trace JSON document of its span tree; `None` when the id
    /// was never seen or has been sampled out / evicted.
    pub fn trace(&self, id: &str) -> Option<String> {
        let ring = match self.ring.lock() {
            Ok(r) => r,
            Err(e) => e.into_inner(),
        };
        ring.iter()
            .rev()
            .find(|(_, r)| r.id == id)
            .map(|(_, r)| chrome_trace_events(&r.spans))
    }

    /// Records currently retained.
    pub fn retained(&self) -> usize {
        match self.ring.lock() {
            Ok(r) => r.len(),
            Err(e) => e.into_inner().len(),
        }
    }

    /// Boring successes the sampler dropped.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out.load(Ordering::Relaxed)
    }

    /// Records evicted from a full ring.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }
}

/// A fixed label-set key: `(route, tenant, cache outcome)`.
type LabelKey = (String, String, String);

/// Latency histograms keyed by `route × tenant × cache-outcome`,
/// rendered in Prometheus exposition format with properly escaped
/// label values. The table is allocation-capped: past `cap` distinct
/// label sets, observations fold into a catch-all `other` series (all
/// three labels `other`) instead of growing the map.
#[derive(Debug)]
pub struct LabeledHistograms {
    cap: usize,
    map: Mutex<BTreeMap<LabelKey, Histogram>>,
}

impl LabeledHistograms {
    /// An empty table holding at most `cap` distinct label sets.
    pub fn new(cap: usize) -> LabeledHistograms {
        LabeledHistograms {
            cap: cap.max(1),
            map: Mutex::new(BTreeMap::new()),
        }
    }

    /// Records `value` under the given label set (folding into the
    /// catch-all series once the table is at capacity).
    pub fn observe(&self, route: &str, tenant: &str, cache: &str, value: u64) {
        let mut map = match self.map.lock() {
            Ok(m) => m,
            Err(e) => e.into_inner(),
        };
        let key = (route.to_string(), tenant.to_string(), cache.to_string());
        if let Some(h) = map.get_mut(&key) {
            h.observe(value);
            return;
        }
        if map.len() < self.cap {
            map.entry(key).or_default().observe(value);
        } else {
            let other = (
                "other".to_string(),
                "other".to_string(),
                "other".to_string(),
            );
            map.entry(other).or_default().observe(value);
        }
    }

    /// Appends the whole table to `out` in Prometheus text exposition
    /// format under `metric`: per label set, cumulative `_bucket` lines
    /// with monotone `le = 2^k − 1` bounds ending at `+Inf`, then
    /// `_sum` and `_count`. Label values are escaped per the format
    /// (`\\`, `\"`, `\n`), so arbitrary tenant names cannot corrupt the
    /// exposition.
    pub fn prometheus(&self, metric: &str, out: &mut String) {
        let map = match self.map.lock() {
            Ok(m) => m,
            Err(e) => e.into_inner(),
        };
        if map.is_empty() {
            return;
        }
        use std::fmt::Write as _;
        let _ = writeln!(out, "# TYPE {metric} histogram");
        for ((route, tenant, cache), h) in map.iter() {
            let labels = format!(
                "route=\"{}\",tenant=\"{}\",cache=\"{}\"",
                escape_label(route),
                escape_label(tenant),
                escape_label(cache)
            );
            write_histogram(out, metric, &labels, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, status: u16, wall: u64) -> RequestRecord {
        RequestRecord {
            id: id.to_string(),
            tenant: "-".to_string(),
            route: "/v1/lint".to_string(),
            status,
            cache: "none".to_string(),
            shed: if status == 429 { "queue" } else { "" }.to_string(),
            fuel: 1,
            wall_micros: wall,
            spans: Vec::new(),
        }
    }

    #[test]
    fn minted_ids_are_unique_and_well_formed() {
        let a = mint_request_id();
        let b = mint_request_id();
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert_eq!(id.len(), 32, "{id}");
            assert!(id.bytes().all(|b| b.is_ascii_hexdigit()), "{id}");
        }
    }

    /// The acceptance sweep: 1000 mixed requests against a ring of 256
    /// must retain *every* non-200 outcome — tail sampling only ever
    /// drops boring successes.
    #[test]
    fn tail_sampler_retains_all_non_200s_in_a_1000_request_mixed_sweep() {
        let flight = FlightRecorder::new(256, 8);
        let mut non_200_ids = Vec::new();
        for i in 0..1000u32 {
            // A deterministic mix: ~12% errors/sheds spread through the
            // sweep (429 shed, 503 exhausted, 422 bad spec), the rest
            // fast boring 200s.
            let status = match i % 25 {
                3 => 429,
                11 => 503,
                19 => 422,
                _ => 200,
            };
            let id = format!("req-{i:04}");
            if status != 200 {
                non_200_ids.push(id.clone());
            }
            flight.record(record(&id, status, 50 + u64::from(i % 7)), false);
        }
        assert_eq!(non_200_ids.len(), 120);
        let retained: Vec<RequestSummary> = flight.recent();
        assert!(retained.len() <= 256);
        for id in &non_200_ids {
            assert!(
                retained.iter().any(|s| &s.id == id),
                "non-200 request {id} was not retained"
            );
        }
        // The boring 200s were sampled, not kept wholesale.
        assert!(flight.sampled_out() > 0);
        assert!(retained.iter().filter(|s| s.status == 200).count() < 880);
    }

    #[test]
    fn slow_tail_200s_are_retained_like_errors() {
        // sample_every = 0: no boring success is ever kept, so anything
        // retained with status 200 got there through the slow-tail rule.
        let flight = FlightRecorder::new(64, 0);
        for i in 0..200u64 {
            flight.record(record(&format!("fast-{i}"), 200, 10), false);
        }
        flight.record(record("slow", 200, 1_000_000), false);
        let retained = flight.recent();
        assert!(
            retained.iter().any(|s| s.id == "slow"),
            "the slow outlier must be retained: {retained:?}"
        );
        assert!(retained.iter().all(|s| s.id != "fast-199"));
    }

    #[test]
    fn pinned_boring_200s_are_retained_like_errors() {
        // sample_every = 0 again: the only way a fast 200 survives is
        // the pinned flag, i.e. the client supplied its own request id.
        let flight = FlightRecorder::new(64, 0);
        for i in 0..200u64 {
            flight.record(record(&format!("fast-{i}"), 200, 10), false);
        }
        flight.record(record("client-pinned", 200, 10), true);
        let retained = flight.recent();
        assert!(
            retained.iter().any(|s| s.id == "client-pinned"),
            "a client-supplied id is an explicit ask to trace: {retained:?}"
        );
        assert!(flight.trace("client-pinned").is_some());
    }

    #[test]
    fn eviction_prefers_sampled_records_and_trace_lookup_works() {
        let flight = FlightRecorder::new(4, 1);
        flight.record(record("ok-1", 200, 5), false);
        flight.record(record("ok-2", 200, 5), false);
        for i in 0..4 {
            flight.record(record(&format!("err-{i}"), 500, 5), false);
        }
        let retained = flight.recent();
        assert_eq!(retained.len(), 4);
        // Both sampled successes were evicted before any error.
        for i in 0..4 {
            let id = format!("err-{i}");
            assert!(retained.iter().any(|s| s.id == id), "{retained:?}");
        }
        assert_eq!(flight.evicted(), 2);
        assert!(flight.trace("err-3").is_some());
        assert!(flight.trace("ok-1").is_none());
        let trace = flight.trace("err-0").expect("retained");
        assert!(trace.contains("\"traceEvents\""), "{trace}");
    }

    #[test]
    fn requests_json_is_well_formed_and_newest_first() {
        let flight = FlightRecorder::new(8, 1);
        flight.record(record("a", 200, 5), false);
        flight.record(record("b\"quote", 503, 9), false);
        let json = flight.requests_json();
        assert!(json.starts_with("{\"requests\":["), "{json}");
        assert!(json.contains("\"id\":\"b\\\"quote\""), "{json}");
        let b_at = json.find("b\\\"quote").unwrap();
        let a_at = json.find("\"id\":\"a\"").unwrap();
        assert!(b_at < a_at, "newest first: {json}");
    }

    #[test]
    fn labeled_histograms_escape_and_stay_monotone() {
        let h = LabeledHistograms::new(16);
        h.observe("/v1/normalize", "a\"b\n", "miss", 100);
        h.observe("/v1/normalize", "a\"b\n", "miss", 5);
        let mut out = String::new();
        h.prometheus("xnf_serve_request_duration_microseconds", &mut out);
        // The hostile tenant name is escaped, not emitted raw.
        assert!(out.contains("tenant=\"a\\\"b\\n\""), "{out}");
        assert!(!out.contains("a\"b\n\""), "{out}");
        // Cumulative bucket counts are monotone and end at +Inf = count.
        let mut last = 0u64;
        for line in out.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-monotone bucket: {line}\n{out}");
            last = v;
        }
        assert!(
            out.contains("le=\"+Inf\"} 2"),
            "+Inf bucket carries the count: {out}"
        );
    }

    /// One labeled histogram in full, in the recorder's bucket layout.
    #[test]
    fn labeled_histogram_is_pinned() {
        let h = LabeledHistograms::new(16);
        h.observe("/v1/lint", "t\"1", "miss", 2);
        h.observe("/v1/lint", "t\"1", "miss", 1);
        let mut out = String::new();
        h.prometheus("m", &mut out);
        assert_eq!(
            out,
            "# TYPE m histogram\n\
             m_bucket{route=\"/v1/lint\",tenant=\"t\\\"1\",cache=\"miss\",le=\"0\"} 0\n\
             m_bucket{route=\"/v1/lint\",tenant=\"t\\\"1\",cache=\"miss\",le=\"1\"} 1\n\
             m_bucket{route=\"/v1/lint\",tenant=\"t\\\"1\",cache=\"miss\",le=\"3\"} 2\n\
             m_bucket{route=\"/v1/lint\",tenant=\"t\\\"1\",cache=\"miss\",le=\"+Inf\"} 2\n\
             m_sum{route=\"/v1/lint\",tenant=\"t\\\"1\",cache=\"miss\"} 3\n\
             m_count{route=\"/v1/lint\",tenant=\"t\\\"1\",cache=\"miss\"} 2\n"
        );
    }

    #[test]
    fn labeled_histograms_fold_overflow_into_other() {
        let h = LabeledHistograms::new(2);
        h.observe("/a", "-", "none", 1);
        h.observe("/b", "-", "none", 1);
        h.observe("/c", "-", "none", 1);
        h.observe("/d", "-", "none", 1);
        let mut out = String::new();
        h.prometheus("m", &mut out);
        assert!(
            out.contains("route=\"other\",tenant=\"other\",cache=\"other\""),
            "{out}"
        );
        assert!(
            out.contains("m_count{route=\"other\",tenant=\"other\",cache=\"other\"} 2"),
            "{out}"
        );
    }
}
