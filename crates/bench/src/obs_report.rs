//! The machine-readable perf artifact `reproduce` writes next to its
//! human output: `BENCH_obs.json`, one record per experiment run, so
//! every future change has a trajectory to diff against.
//!
//! Schema (stable; checked by [`check_schema`]):
//!
//! ```json
//! {
//!   "git_sha": "abc1234",
//!   "experiments": [
//!     {"id": "fig4", "wall_micros": 1234, "spans_dropped": 0,
//!      "counters": {"chase.runs": 17}}
//!   ]
//! }
//! ```

use std::fmt::Write as _;
use xnf_obs::json::{self, quoted, Json};
use xnf_obs::CounterSnapshot;

/// One experiment run: its id, wall time, and the counter totals the
/// run's recorder accumulated (empty for experiments that do not drive
/// the governed engine).
#[derive(Debug, Clone)]
pub struct ExperimentRecord {
    /// The dispatcher name of the experiment (`fig1` … `e19`).
    pub id: String,
    /// Wall-clock duration of the whole experiment, in microseconds.
    pub wall_micros: u64,
    /// Span events the run's recorder discarded at its cap — nonzero
    /// means the trace is incomplete and the record should be re-run
    /// with a larger span cap before being trusted for span-level diffs.
    pub spans_dropped: u64,
    /// Counter totals observed by the experiment's recorder.
    pub counters: CounterSnapshot,
}

/// The current commit's short SHA, or `"unknown"` outside a git checkout.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Renders the `BENCH_obs.json` document for one `reproduce` run.
pub fn render(git_sha: &str, records: &[ExperimentRecord]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"git_sha\":{},\"experiments\":[", quoted(git_sha));
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\":{},\"wall_micros\":{},\"spans_dropped\":{},\"counters\":{{",
            quoted(&r.id),
            r.wall_micros,
            r.spans_dropped
        );
        for (j, (name, value)) in r.counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", quoted(name), value);
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// The schema check over a `BENCH_obs.json` document: it parses as
/// JSON, carries a string `git_sha` and an `experiments` array, and
/// every experiment record has a string `id`, numeric `wall_micros`
/// and `spans_dropped`, and a `counters` object of numbers. Returns the
/// first problem found.
pub fn check_schema(doc: &str) -> Result<(), String> {
    let doc = json::parse(doc).map_err(|e| e.to_string())?;
    if doc.get("git_sha").and_then(Json::as_str).is_none() {
        return Err("missing top-level string `git_sha`".into());
    }
    let Some(experiments) = doc.get("experiments").and_then(Json::as_arr) else {
        return Err("missing top-level array `experiments`".into());
    };
    let is_num = |v: &Json| matches!(v, Json::Num(_));
    for (i, r) in experiments.iter().enumerate() {
        let counters = r.get("counters").and_then(Json::as_obj);
        if r.get("id").and_then(Json::as_str).is_none()
            || !r.get("wall_micros").is_some_and(is_num)
            || !r.get("spans_dropped").is_some_and(is_num)
            || !counters.is_some_and(|c| c.values().all(is_num))
        {
            return Err(format!(
                "experiment record {i} is missing id/wall_micros/spans_dropped/counters"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> String {
        let mut counters = CounterSnapshot::default();
        counters.record("chase.runs", 17);
        counters.record("cache.hits", 4);
        render(
            "abc1234",
            &[
                ExperimentRecord {
                    id: "fig4".into(),
                    wall_micros: 1234,
                    spans_dropped: 3,
                    counters,
                },
                ExperimentRecord {
                    id: "e19".into(),
                    wall_micros: 99,
                    spans_dropped: 0,
                    counters: CounterSnapshot::default(),
                },
            ],
        )
    }

    #[test]
    fn rendered_report_passes_the_schema_check() {
        let json = sample();
        check_schema(&json).unwrap();
        assert!(json.contains("\"git_sha\":\"abc1234\""));
        assert!(json.contains("\"id\":\"fig4\""));
        assert!(json.contains("\"spans_dropped\":3"));
        assert!(json.contains("\"chase.runs\":17"));
    }

    #[test]
    fn schema_check_rejects_malformed_documents() {
        assert!(check_schema("{\"git_sha\":\"x\"").is_err());
        assert!(check_schema("{\"experiments\":[]}").is_err());
        assert!(
            check_schema("{\"git_sha\":\"x\",\"experiments\":[{\"id\":\"a\"}]}").is_err(),
            "record missing wall_micros/counters must fail"
        );
        assert!(
            check_schema(
                "{\"git_sha\":\"x\",\"experiments\":[\
                 {\"id\":\"a\",\"wall_micros\":1,\"counters\":{}}]}"
            )
            .is_err(),
            "record missing spans_dropped must fail"
        );
    }

    #[test]
    fn git_sha_is_never_empty() {
        assert!(!git_sha().is_empty());
    }
}
