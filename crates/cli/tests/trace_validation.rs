//! Trace-export validation at the process level: `normalize --trace`
//! on each paper spec must produce a Chrome-trace JSON document that a
//! viewer (`chrome://tracing`, Perfetto) would accept — JSON, every
//! event carrying the complete-event required fields — with at least
//! one span for every instrumented phase the spec exercises.

use std::path::PathBuf;
use std::process::Command;

fn workspace_file(rel: &str) -> String {
    // crates/cli → workspace root is two levels up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push(rel);
    p.to_string_lossy().into_owned()
}

/// Runs `op` on the paper spec `name` with `--trace`; returns the
/// trace document and the op's stdout.
fn trace_for(op: &str, name: &str) -> (String, String) {
    let dtd = workspace_file(&format!("examples/specs/{name}.dtd"));
    let fds = workspace_file(&format!("examples/specs/{name}.fds"));
    let path = std::env::temp_dir()
        .join(format!(
            "xnf-trace-validation-{}-{op}-{name}.json",
            std::process::id()
        ))
        .to_string_lossy()
        .into_owned();
    let out = Command::new(env!("CARGO_BIN_EXE_xnf-tool"))
        .args([op, &dtd, &fds, "--trace", &path])
        .output()
        .expect("xnf-tool runs");
    assert!(
        out.status.success(),
        "{name}: {op} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    (doc, String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn traces_are_loadable_chrome_trace_json_with_all_phases() {
    for name in ["university", "dblp", "ebxml"] {
        let (doc, _) = trace_for("normalize", name);
        xnf_obs::json::parse(&doc).unwrap_or_else(|e| panic!("{name}: not JSON: {e}"));
        // The Chrome trace object form with complete ("X") events:
        // every event carries ph/ts/dur/name/cat (plus pid/tid for
        // lanes).
        assert!(
            doc.trim_start().starts_with("{\"traceEvents\":["),
            "{name}: not a traceEvents document"
        );
        let events = doc.matches("\"ph\":\"X\"").count();
        assert!(events > 0, "{name}: no complete events");
        for field in [
            "\"ts\":",
            "\"dur\":",
            "\"name\":",
            "\"cat\":",
            "\"pid\":",
            "\"tid\":",
        ] {
            assert_eq!(
                doc.matches(field).count(),
                events,
                "{name}: some event is missing {field}"
            );
        }
        // One span per instrumented phase every spec exercises: spec
        // and DTD parsing, the normalize loop, and XNF candidate tests.
        for span in [
            "\"name\":\"spec.parse\"",
            "\"name\":\"dtd.parse\"",
            "\"name\":\"normalize.iteration\"",
            "\"name\":\"xnf.candidate\"",
        ] {
            assert!(doc.contains(span), "{name}: missing span {span}");
        }
        // Specs that leave XNF violations to repair also run the chase
        // (ebxml is near-XNF and never needs an implication proof).
        if name != "ebxml" {
            assert!(
                doc.contains("\"name\":\"chase.run\""),
                "{name}: missing span chase.run"
            );
            assert!(
                doc.contains("\"name\":\"step."),
                "{name}: missing normalize step span"
            );
        }
    }
}

/// `lint` lints its own parse of the DTD, so its trace records that
/// parse like every other spec op's: one `spec.parse` holding one
/// `dtd.parse`.
#[test]
fn lint_traces_its_dtd_parse() {
    for name in ["university", "dblp", "ebxml"] {
        let (doc, _) = trace_for("lint", name);
        for span in ["spec.parse", "dtd.parse"] {
            let count = doc.matches(&format!("\"name\":\"{span}\"")).count();
            assert_eq!(count, 1, "{name}: {span}");
        }
    }
}

/// `analyze` is the `normalize` run plus cover, graph and dead
/// attributes: its trace holds no preprocessing replay or provenance
/// sweep of its own, and one candidate search per normalize iteration.
#[test]
fn analyze_traces_one_search_per_iteration() {
    for name in ["university", "dblp", "ebxml"] {
        let (doc, stdout) = trace_for("analyze", name);
        for gone in ["analyze.preprocess", "analyze.provenance"] {
            assert!(
                !doc.contains(&format!("\"name\":\"{gone}\"")),
                "{name}: span {gone} is back"
            );
        }
        let iterations: usize = stdout
            .lines()
            .find_map(|l| l.strip_prefix("iterations:"))
            .and_then(|n| n.trim().parse().ok())
            .unwrap_or_else(|| panic!("{name}: no iteration count in {stdout}"));
        let count = |span: &str| doc.matches(&format!("\"name\":\"{span}\"")).count();
        assert_eq!(count("normalize.iteration"), iterations, "{name}");
        assert_eq!(count("normalize.search"), iterations, "{name}");
        assert_eq!(count("dtd.parse"), 1, "{name}: the spec is parsed once");
    }
}
