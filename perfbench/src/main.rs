//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chase_family|paper_docs|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads:
//!
//! * `chase_family` — `xnf-tool` is-xnf / normalize / analyze / lint on
//!   the E22 family at k = 4, 8, 12 and the E20 wide spec (12 hubs):
//!   chase- and implication-cache-bound, many Figure-4 iterations per
//!   spec, and a sharded candidate search with one shard per hub.
//! * `paper_docs` — the same four ops on the paper's three specs plus
//!   `shred` of a document per spec: parse-, lint- and shred-bound, one
//!   repair per anomalous spec.
//! * `serve_mixed` — a live in-process `xnf-serve` under the steady
//!   traffic of E24's phase 1, round after round: eight closed-loop
//!   clients posting is-xnf / normalize over twelve fresh university
//!   schemas per round, three lookups in four served from the result
//!   cache (see `serve.rs`).
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics.
//! A pass is one walk over the workload's inputs: every op once on every
//! spec (and document), or one client's round of twelve requests. Per
//! pass, `is_xnf_ms` and `normalize_ms` are the op's summed wall time
//! (for `serve_mixed`, the client's connect-to-close times on that
//! route), `pass_ms` is the whole pass, ops only the `xnf-tool`
//! workloads run included, and `slowest_call_ms` is the pass's slowest
//! single call (the tail: a cache miss for the service); each is the
//! median over passes. Then calls per second, and the median of five
//! set-ups. The `xnf-tool` workloads' timings are calibrated against
//! machine-speed drift (see `calib.rs`). With `--trace 1` it reports
//! per-layer self times per call, summed from the program's own spans,
//! and the deterministic counters. Every output is checked against a
//! reference computed and verified during set-up.

mod calib;
mod cli;
mod inputs;
mod layers;
mod serve;

use std::collections::BTreeMap;
use std::time::Duration;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// Measurement phases per run. Each end-to-end metric is the median
/// over phases of its value in the phase, so a few seconds of host
/// interference (CPU steal on a shared machine) move one phase, not the
/// run.
pub const PHASES: usize = 10;

/// `(name, value, unit)`.
pub type Metric = (String, f64, &'static str);

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Wall-time samples of one run. A pass runs each op once on every
/// input of the workload (for the service, a pass is one client's
/// round); an op's sample is its summed time over the pass, so a
/// workload whose inputs differ in cost still gives each op one
/// unimodal distribution.
#[derive(Default)]
pub struct Samples {
    by_op: BTreeMap<&'static str, Vec<f64>>,
    pass: BTreeMap<&'static str, f64>,
    pass_slowest: f64,
    /// Each pass's total over every op.
    passes: Vec<f64>,
    /// Each pass's slowest single call.
    slowest: Vec<f64>,
    /// Every call.
    all: Vec<f64>,
}

impl Samples {
    pub fn record(&mut self, op: &'static str, wall: Duration) {
        let ms = wall.as_secs_f64() * 1e3;
        *self.pass.entry(op).or_insert(0.0) += ms;
        self.pass_slowest = self.pass_slowest.max(ms);
        self.all.push(ms);
    }

    pub fn end_pass(&mut self) {
        let pass = std::mem::take(&mut self.pass);
        self.passes.push(pass.values().sum());
        self.slowest.push(std::mem::take(&mut self.pass_slowest));
        for (op, ms) in pass {
            self.by_op.entry(op).or_default().push(ms);
        }
    }

    pub fn merge(&mut self, other: Samples) {
        for (op, v) in other.by_op {
            self.by_op.entry(op).or_default().extend(v);
        }
        self.passes.extend(other.passes);
        self.slowest.extend(other.slowest);
        self.all.extend(other.all);
    }

    /// The end-to-end metrics shared by every workload; `busy_s` is the
    /// time over which the calls completed. Every workload runs is-xnf
    /// and normalize; the ops only the `xnf-tool` workloads run
    /// (analyze, lint, shred) count in `pass_ms` and `slowest_call_ms`.
    pub fn e2e_metrics(&mut self, busy_s: f64) -> Vec<Metric> {
        let mut out = Vec::new();
        for op in ["is-xnf", "normalize"] {
            let v = self
                .by_op
                .get_mut(op)
                .expect("every workload runs is-xnf and normalize");
            out.push((format!("{}_ms", op.replace('-', "_")), median_of(v), "ms"));
        }
        out.push(("pass_ms".into(), median_of(&mut self.passes), "ms"));
        out.push(("slowest_call_ms".into(), median_of(&mut self.slowest), "ms"));
        out.push(("calls_per_s".into(), self.all.len() as f64 / busy_s, "1/s"));
        out
    }
}

/// Each metric's median over the phases (every phase reports the same
/// metrics in the same order).
pub fn phase_medians(phases: &[Vec<Metric>]) -> Vec<Metric> {
    (0..phases[0].len())
        .map(|i| {
            let (name, _, unit) = &phases[0][i];
            let mut values: Vec<f64> = phases.iter().map(|p| p[i].1).collect();
            (name.clone(), median_of(&mut values), *unit)
        })
        .collect()
}

pub fn median_of(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "a median needs samples");
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <chase_family|paper_docs|serve_mixed> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = value == "1",
            _ => usage(),
        }
        i += 2;
    }
    let outcome = match workload.as_deref() {
        Some("chase_family") => cli::chase_family(seed, seconds, trace),
        Some("paper_docs") => cli::paper_docs(seed, seconds, trace),
        Some("serve_mixed") => serve::serve_mixed(seed, seconds, trace),
        _ => usage(),
    };

    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}
