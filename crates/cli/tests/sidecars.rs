//! Process-level tests of the governed subcommands' epilogue: with
//! `--trace` and `--metrics`, a run that fails still writes both files,
//! the trace parses as JSON, and stdout names the trace id. Two failing
//! paths per subcommand: a budget too small for the spec intake (exit 4),
//! and a spec whose lint gate fails (exit 1).

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

/// Runs `xnf-tool <cmd> <files…> <extra…> --trace T --metrics M` and
/// asserts the exit code, both sidecar files, and the trace-id note.
fn assert_sidecars(case: &str, cmd: &str, files: &[String], extra: &[&str], exit: i32) {
    let tmp = |ext: &str| {
        std::env::temp_dir()
            .join(format!(
                "xnf-sidecars-{}-{case}-{cmd}.{ext}",
                std::process::id()
            ))
            .to_string_lossy()
            .into_owned()
    };
    let (trace, metrics) = (tmp("trace.json"), tmp("metrics.txt"));
    let out = Command::new(env!("CARGO_BIN_EXE_xnf-tool"))
        .arg(cmd)
        .args(files)
        .args(extra)
        .args(["--trace", &trace, "--metrics", &metrics])
        .output()
        .expect("xnf-tool runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let label = format!("{case}: {cmd}");
    assert_eq!(
        out.status.code(),
        Some(exit),
        "{label}\nstdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = std::fs::read_to_string(&trace)
        .unwrap_or_else(|e| panic!("{label}: no trace file ({e})\n{stdout}"));
    xnf_obs::json::parse(&doc).unwrap_or_else(|e| panic!("{label}: trace is not JSON: {e}"));
    assert!(
        std::fs::metadata(&metrics).is_ok(),
        "{label}: no metrics file\n{stdout}"
    );
    let note = format!(": spans written to `{trace}`");
    assert!(
        stdout
            .lines()
            .any(|l| l.starts_with("trace id ") && l.ends_with(&note)),
        "{label}: no trace-id note\n{stdout}"
    );
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&metrics);
}

const GOVERNED: [&str; 6] = ["is-xnf", "normalize", "verify", "shred", "analyze", "lint"];

/// The files `cmd` takes: the spec, plus the document for `shred`.
fn files(cmd: &str, dtd: &str, fds: &str) -> Vec<String> {
    let mut files = vec![workspace_file(dtd), workspace_file(fds)];
    if cmd == "shred" {
        files.push(workspace_file("examples/docs/university.xml"));
    }
    files
}

#[test]
fn an_exhausted_intake_keeps_its_trace() {
    for cmd in GOVERNED {
        let spec = files(
            cmd,
            "examples/specs/university.dtd",
            "examples/specs/university.fds",
        );
        assert_sidecars("fuel", cmd, &spec, &["--fuel", "3"], 4);
    }
}

#[test]
fn a_failing_lint_gate_keeps_its_trace() {
    // `lint` has no gate, but its own failing report takes the same exit.
    for cmd in ["is-xnf", "normalize", "verify", "shred", "lint"] {
        let spec = files(
            cmd,
            "tests/bad_specs/vacuous.dtd",
            "examples/specs/university.fds",
        );
        assert_sidecars("gate", cmd, &spec, &[], 1);
    }
}
