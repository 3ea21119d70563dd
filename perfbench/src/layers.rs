//! Per-layer accounting: exact self times from the program's own spans,
//! plus the deterministic counters that ride along.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans on the same thread cover. Spans of one
//! thread nest by time containment (how the Chrome-trace exporter and
//! Perfetto rebuild the tree), so a per-thread stack recovers parents.

use std::collections::{BTreeMap, BTreeSet};

use crate::Metric;

/// The spans the engine and the CLI ops open on the benchmark's
/// workloads, in pipeline order. Each becomes one `<name>.self_us`
/// metric.
pub const SPANS: [&str; 26] = [
    "op.is-xnf",
    "op.normalize",
    "op.analyze",
    "op.lint",
    "spec.parse",
    "dtd.parse",
    "lint.structural",
    "lint.semantic",
    "xnf.candidate",
    "chase.run",
    "chase.shard",
    "chase.merge",
    "cache.invalidate",
    "normalize.iteration",
    "normalize.search",
    "normalize.decide",
    "normalize.guards",
    "normalize.minimize",
    "analyze.preprocess",
    "analyze.iteration",
    "analyze.provenance",
    "analyze.graph",
    "analyze.cover",
    "shred.compile",
    "shred.rows",
    "shred.rebuild",
];

/// One completed span, as exported. Names outside [`SPANS`] are kept
/// as `"other"`: they still cover part of their parent's interval.
pub struct SpanRec {
    pub name: &'static str,
    pub ts_ns: u64,
    pub dur_ns: u64,
    pub tid: u64,
}

/// The [`SPANS`] entry named `name`, or `"other"`.
pub fn span_name(name: &str) -> &'static str {
    SPANS
        .iter()
        .find(|&&s| s == name)
        .copied()
        .unwrap_or("other")
}

/// Accumulated per-layer totals over a traced run.
#[derive(Default)]
pub struct Layers {
    /// Span name → summed self time, ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Counter name → summed value.
    pub counters: BTreeMap<String, u64>,
    /// Checkpoint visits summed over every site.
    pub checkpoints: u64,
    /// CLI calls: wall time no span covers (argument parsing, file
    /// reads, the lint preflight, rendering, and the trace export).
    pub cli_unspanned_ns: u64,
    /// Service: handler time (dequeue to reply rendered) no span covers
    /// — request read, JSON decode, routing, cache lookup, rendering.
    pub serve_handler_ns: u64,
    /// Service: client connect-to-close time outside the handler —
    /// connect, accept-queue wait, response write and close.
    pub serve_outside_ns: u64,
    /// Service result cache: (served from cache, lookups).
    pub result_cache: (u64, u64),
}

impl Layers {
    /// Folds spans in. Returns the summed duration of the outermost
    /// spans on the `callers` threads — the threads that entered the
    /// program, as opposed to workers it spawned, whose outermost spans
    /// overlap their caller's.
    pub fn add_spans(&mut self, spans: &mut [SpanRec], callers: &BTreeSet<u64>) -> u64 {
        // Parents first: earlier start, and on ties the longer span.
        spans.sort_by(|a, b| {
            (a.tid, a.ts_ns, std::cmp::Reverse(a.dur_ns)).cmp(&(
                b.tid,
                b.ts_ns,
                std::cmp::Reverse(b.dur_ns),
            ))
        });
        let mut child_ns = vec![0u64; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        let mut covered = 0u64;
        for i in 0..spans.len() {
            while let Some(&top) = stack.last() {
                let t = &spans[top];
                if t.tid == spans[i].tid && spans[i].ts_ns < t.ts_ns + t.dur_ns {
                    break;
                }
                stack.pop();
            }
            match stack.last() {
                Some(&parent) => child_ns[parent] += spans[i].dur_ns,
                None if callers.contains(&spans[i].tid) => covered += spans[i].dur_ns,
                None => {}
            }
            stack.push(i);
        }
        for (span, child) in spans.iter().zip(child_ns) {
            *self.self_ns.entry(span.name).or_insert(0) += span.dur_ns.saturating_sub(child);
        }
        covered
    }

    pub fn add_counter(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += value;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The metrics every workload reports in a traced run, as
    /// `(name, value, unit)`: self time per call for each span and for
    /// the parts no span covers, then the counters. A layer a workload
    /// never enters reports 0.
    pub fn metrics(&self, ops: u64) -> Vec<Metric> {
        let per_op = |ns: u64| ns as f64 / 1e3 / ops.max(1) as f64;
        let mut out: Vec<Metric> = SPANS
            .iter()
            .map(|&s| {
                let ns = self.self_ns.get(s).copied().unwrap_or(0);
                (format!("{s}.self_us"), per_op(ns), "us/op")
            })
            .collect();
        for (name, ns) in [
            ("cli.run.self_us", self.cli_unspanned_ns),
            ("serve.handler.self_us", self.serve_handler_ns),
            ("serve.outside_handler_us", self.serve_outside_ns),
        ] {
            out.push((name.into(), per_op(ns), "us/op"));
        }
        let hits = self.counter("cache.hits");
        let lookups = hits + self.counter("cache.misses");
        out.push((
            "chase.runs".into(),
            self.counter("chase.runs") as f64 / ops.max(1) as f64,
            "count/op",
        ));
        out.push((
            "implication_cache.hit_ratio".into(),
            ratio(hits, lookups),
            "ratio",
        ));
        out.push((
            "checkpoints".into(),
            self.checkpoints as f64 / ops.max(1) as f64,
            "count/op",
        ));
        out.push((
            "result_cache.hit_ratio".into(),
            ratio(self.result_cache.0, self.result_cache.1),
            "ratio",
        ));
        out
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
