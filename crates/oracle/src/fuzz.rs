//! Seeded, minimizing fuzzing of whole specs.
//!
//! Each seed deterministically generates a random spec `(D, Σ)`
//! ([`xnf_gen::dtd::simple_dtd`] + [`xnf_gen::fd::random_fds`]) and runs
//! the full oracle battery over it: the spec-level losslessness oracle of
//! [`crate::spec`] and the metamorphic invariants of
//! [`crate::metamorphic`], with panics caught and converted into
//! findings. A failing seed is shrunk by greedy FD-subset reduction
//! ([`minimize`]) so the corpus checked into the repository stays small
//! and readable.
//!
//! Documented engine limitations are *skips*, not failures:
//! [`CoreError::RecursiveNormalization`], [`CoreError::BadFdPath`]
//! (impossible preprocessing rewrites, e.g. folding a repeated element)
//! and [`CoreError::UnrepresentableNull`] (the footnote-1 case of
//! Section 6). Everything else — including [`CoreError::TooManySteps`],
//! which Proposition 6 rules out for a correct implementation — is a
//! finding.

use crate::metamorphic::{check_attribute_rename, check_element_rename, check_fd_reorder};
use crate::spec::{check_spec, SpecOracleConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use xnf_core::{CoreError, XmlFd, XmlFdSet};
use xnf_dtd::Dtd;
use xnf_gen::doc::DocParams;
use xnf_gen::dtd::{simple_dtd, SimpleDtdParams};
use xnf_gen::fd::{random_fds, FdParams};

/// What a failing seed violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Some check panicked.
    Panic,
    /// `is_xnf` does not hold on the normalization output.
    OutputNotXnf,
    /// A generated document violated losslessness (conformance, Σ',
    /// round trip, or value projection).
    Lossless,
    /// A metamorphic invariant (FD reorder / renaming) was violated.
    Metamorphic,
    /// An undocumented error escaped the engine.
    Error,
}

impl FailureKind {
    /// Short lowercase tag (used in corpus file names and reports).
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::OutputNotXnf => "not-xnf",
            FailureKind::Lossless => "lossless",
            FailureKind::Metamorphic => "metamorphic",
            FailureKind::Error => "error",
        }
    }
}

/// A failing spec, carried as re-parseable text so it can be minimized,
/// reported, and checked into the corpus.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The generating seed.
    pub seed: u64,
    /// The DTD, in `<!ELEMENT …>` syntax.
    pub dtd_text: String,
    /// The FD set, one `lhs -> rhs` per line.
    pub fds_text: String,
    /// What was violated.
    pub kind: FailureKind,
    /// Human-readable details.
    pub detail: String,
}

/// Knobs for spec generation and per-spec effort.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Element types per generated DTD.
    pub elements: usize,
    /// Fan-out cap per element.
    pub max_children: usize,
    /// FDs per generated Σ.
    pub fd_count: usize,
    /// Max LHS paths per generated FD.
    pub max_lhs: usize,
    /// Σ-satisfying documents to push through the losslessness oracle.
    pub docs_per_spec: usize,
    /// Per-spec fuel budget (chase/normalize checkpoints); `None` runs
    /// ungoverned. A spec that exhausts its fuel is a *skip*, not a
    /// finding — the budget bounds worst-case seeds so a sweep cannot
    /// hang, exactly like the driver's `--fuel` flag.
    pub fuel_per_spec: Option<u64>,
    /// Observability sink for sweep progress: every seed bumps
    /// `fuzz.seeds` (and failures `fuzz.failures`), and when enabled the
    /// recorder also rides each seed's engine budget, so checkpoint-site
    /// tallies accumulate across the whole sweep. Disabled by default.
    pub recorder: xnf_govern::Recorder,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            elements: 7,
            max_children: 3,
            fd_count: 4,
            max_lhs: 2,
            docs_per_spec: 6,
            fuel_per_spec: None,
            recorder: xnf_govern::Recorder::disabled(),
        }
    }
}

/// Deterministically generates the spec for `seed`.
pub fn spec_for_seed(seed: u64, cfg: &FuzzConfig) -> (Dtd, XmlFdSet) {
    let mut rng = xnf_gen::rng(seed);
    let dtd = simple_dtd(
        &mut rng,
        &SimpleDtdParams {
            elements: cfg.elements,
            max_children: cfg.max_children,
            ..SimpleDtdParams::default()
        },
    );
    let sigma = random_fds(
        &dtd,
        &mut rng,
        &FdParams {
            count: cfg.fd_count,
            max_lhs: cfg.max_lhs,
        },
    );
    (dtd, sigma)
}

/// Runs the oracle battery on the spec generated by `seed`.
pub fn fuzz_seed(seed: u64, cfg: &FuzzConfig) -> Option<FuzzFailure> {
    cfg.recorder.bump("fuzz.seeds");
    let (dtd, sigma) = spec_for_seed(seed, cfg);
    let found = failure_for(seed, &dtd, &sigma, cfg);
    if found.is_some() {
        cfg.recorder.bump("fuzz.failures");
    }
    found
}

/// Fuzzes `count` consecutive seeds starting at `start`.
pub fn fuzz_range(start: u64, count: u64, cfg: &FuzzConfig) -> Vec<FuzzFailure> {
    (start..start.saturating_add(count))
        .filter_map(|seed| fuzz_seed(seed, cfg))
        .collect()
}

/// Greedily shrinks a failure by dropping FDs while it still fails.
///
/// Deterministic (same seed, same document pool), so the minimized spec
/// reproduces the failure when replayed from its text form. Returns the
/// input unchanged if its text no longer parses or no longer fails.
pub fn minimize(failure: &FuzzFailure, cfg: &FuzzConfig) -> FuzzFailure {
    let Ok(dtd) = xnf_dtd::parse_dtd(&failure.dtd_text) else {
        return failure.clone();
    };
    let Ok(sigma) = XmlFdSet::parse(&failure.fds_text) else {
        return failure.clone();
    };
    let mut fds: Vec<XmlFd> = sigma.iter().cloned().collect();
    let mut best = failure.clone();
    let mut shrunk = true;
    while shrunk {
        shrunk = false;
        for i in 0..fds.len() {
            let mut candidate = fds.clone();
            candidate.remove(i);
            let candidate_sigma = XmlFdSet::from_fds(candidate.iter().cloned());
            if let Some(f) = failure_for(failure.seed, &dtd, &candidate_sigma, cfg) {
                fds = candidate;
                best = f;
                shrunk = true;
                break;
            }
        }
    }
    best
}

/// Replays the oracle battery on an explicit spec (used by the corpus
/// tests to re-check minimized failures from their text form).
pub fn replay(seed: u64, dtd: &Dtd, sigma: &XmlFdSet, cfg: &FuzzConfig) -> Option<FuzzFailure> {
    failure_for(seed, dtd, sigma, cfg)
}

fn failure_for(seed: u64, dtd: &Dtd, sigma: &XmlFdSet, cfg: &FuzzConfig) -> Option<FuzzFailure> {
    let outcome = catch_unwind(AssertUnwindSafe(|| run_checks(seed, dtd, sigma, cfg)));
    let (kind, detail) = match outcome {
        Ok(None) => return None,
        Ok(Some(found)) => found,
        Err(payload) => (FailureKind::Panic, panic_message(&payload)),
    };
    Some(FuzzFailure {
        seed,
        dtd_text: dtd.to_string(),
        fds_text: sigma.to_string(),
        kind,
        detail,
    })
}

/// Errors that are documented engine limitations, not findings.
/// [`CoreError::Exhausted`] is benign by design: a governed sweep trades
/// completeness on pathological seeds for a bounded wall clock, and the
/// structured error proves the engine stopped cleanly rather than wedging.
fn benign(e: &CoreError) -> bool {
    matches!(
        e,
        CoreError::RecursiveNormalization
            | CoreError::BadFdPath(_)
            | CoreError::UnrepresentableNull { .. }
            | CoreError::Exhausted(_)
    )
}

fn run_checks(
    seed: u64,
    dtd: &Dtd,
    sigma: &XmlFdSet,
    cfg: &FuzzConfig,
) -> Option<(FailureKind, String)> {
    let budget = match cfg.fuel_per_spec {
        Some(fuel) => xnf_govern::Budget::builder()
            .fuel(fuel)
            .recorder(cfg.recorder.clone())
            .build(),
        // An enabled recorder needs a governed budget to ride even when
        // no fuel cap is set; the recorder-less sweep stays ungoverned.
        None if cfg.recorder.is_enabled() => xnf_govern::Budget::builder()
            .recorder(cfg.recorder.clone())
            .build(),
        None => xnf_govern::Budget::unlimited(),
    };
    let config = SpecOracleConfig {
        docs: cfg.docs_per_spec,
        seed,
        doc_params: DocParams {
            reps: (0, 2),
            value_alphabet: 2,
            max_nodes: 200,
        },
        max_attempts: cfg.docs_per_spec.max(1) * 25,
        budget,
    };
    match check_spec(dtd, sigma, &config) {
        Ok(report) if !report.output_is_xnf => {
            return Some((FailureKind::OutputNotXnf, report.render()))
        }
        Ok(report) if !report.failures.is_empty() => {
            return Some((FailureKind::Lossless, report.render()))
        }
        Ok(_) => {}
        Err(e) if benign(&e) => return None,
        Err(e) => return Some((FailureKind::Error, format!("check_spec: {e}"))),
    }
    match check_fd_reorder(dtd, sigma) {
        Ok(true) => {}
        Ok(false) => {
            return Some((
                FailureKind::Metamorphic,
                "normalize not invariant under FD reordering".into(),
            ))
        }
        Err(e) if benign(&e) => return None,
        Err(e) => return Some((FailureKind::Error, format!("fd reorder: {e}"))),
    }
    for (name, outcome) in [
        ("element rename", check_element_rename(dtd, sigma)),
        ("attribute rename", check_attribute_rename(dtd, sigma)),
    ] {
        match outcome {
            Ok(o) if o.ok() => {}
            Ok(o) => return Some((FailureKind::Metamorphic, format!("{name}: {o:?}"))),
            Err(e) if benign(&e) => return None,
            Err(e) => return Some((FailureKind::Error, format!("{name}: {e}"))),
        }
    }
    None
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_seed_window_is_clean() {
        // Smoke: the first few seeds run the full battery without findings.
        // Wider sweeps live in the ignored stress test and the nightly job.
        let cfg = FuzzConfig {
            docs_per_spec: 3,
            ..FuzzConfig::default()
        };
        let failures = fuzz_range(0, 5, &cfg);
        assert!(
            failures.is_empty(),
            "unexpected fuzz findings: {failures:?}"
        );
    }

    #[test]
    fn sweep_progress_lands_in_the_recorder() {
        let cfg = FuzzConfig {
            docs_per_spec: 2,
            recorder: xnf_govern::Recorder::enabled(),
            ..FuzzConfig::default()
        };
        let failures = fuzz_range(0, 3, &cfg);
        assert!(failures.is_empty(), "unexpected findings: {failures:?}");
        assert_eq!(cfg.recorder.counter("fuzz.seeds"), 3);
        assert_eq!(cfg.recorder.counter("fuzz.failures"), 0);
        // The same recorder rides each seed's engine budget, so
        // checkpoint-site tallies accumulate across the sweep.
        assert!(
            cfg.recorder
                .sites()
                .iter()
                .any(|(site, tally)| *site == "chase.run" && tally.visits > 0),
            "expected engine site tallies from the sweep"
        );
    }

    #[test]
    fn minimize_drops_irrelevant_fds() {
        // Synthesize a failure on a spec with a deliberately broken check
        // by replaying a real spec but marking a fake failing detail — the
        // shrinker must keep the seed and re-derive kind/detail itself, so
        // feed it a genuinely clean spec and verify it returns the input
        // when nothing fails.
        let cfg = FuzzConfig::default();
        let (dtd, sigma) = spec_for_seed(1, &cfg);
        let fake = FuzzFailure {
            seed: 1,
            dtd_text: dtd.to_string(),
            fds_text: sigma.to_string(),
            kind: FailureKind::Error,
            detail: "synthetic".into(),
        };
        let out = minimize(&fake, &cfg);
        assert_eq!(out.fds_text, fake.fds_text);
        assert_eq!(out.detail, "synthetic");
    }

    #[test]
    fn governed_sweep_never_reports_exhaustion_as_a_finding() {
        // With a starving per-spec fuel budget every seed exhausts, which
        // must read as a skip (no findings), not as an Error finding.
        let cfg = FuzzConfig {
            docs_per_spec: 2,
            fuel_per_spec: Some(5),
            ..FuzzConfig::default()
        };
        let failures = fuzz_range(0, 5, &cfg);
        assert!(
            failures.is_empty(),
            "exhaustion leaked as findings: {failures:?}"
        );
    }
}
