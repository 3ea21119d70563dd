//! Process-level tests of `xnf-tool`'s lint surface: exit codes, output
//! streams, and the preflight behavior of `normalize` on a spec with hard
//! lint errors.

use std::path::PathBuf;
use std::process::{Command, Output};

fn workspace_file(rel: &str) -> String {
    // crates/cli → workspace root is two levels up.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push(rel);
    p.to_string_lossy().into_owned()
}

fn xnf_tool(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xnf-tool"))
        .args(args)
        .output()
        .expect("xnf-tool runs")
}

fn write_tmp(name: &str, content: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push("xnf-lint-cli-tests");
    std::fs::create_dir_all(&p).unwrap();
    p.push(name);
    std::fs::write(&p, content).unwrap();
    p.to_string_lossy().into_owned()
}

#[test]
fn lint_clean_paper_specs_exit_zero() {
    for name in ["university", "dblp", "ebxml"] {
        let dtd = workspace_file(&format!("examples/specs/{name}.dtd"));
        let fds = workspace_file(&format!("examples/specs/{name}.fds"));
        let out = xnf_tool(&["lint", &dtd, &fds]);
        assert!(out.status.success(), "{name}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("lint: clean"), "{name}: {stdout}");
    }
}

/// `lint` lints its own parse of the DTD, which its budget meters: a
/// fuel budget smaller than the parse stops there with exit 4, as
/// `is-xnf` does.
#[test]
fn lint_budget_meters_its_dtd_parse() {
    let dtd = workspace_file("examples/specs/university.dtd");
    let out = xnf_tool(&["lint", &dtd, "--fuel", "3"]);
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("at `dtd.parse."), "{stdout}");
}

/// `lint` reads local files under the local limits: a content model
/// nested 100 groups deep and a text over 1 MiB, both past the untrusted
/// limits that `/v1/lint` applies, lint clean.
#[test]
fn lint_keeps_the_local_limits() {
    let deep = format!(
        "<!ELEMENT r {}a{}>\n<!ELEMENT a EMPTY>\n",
        "(".repeat(100),
        ")".repeat(100)
    );
    let big = format!("<!ELEMENT r EMPTY>\n<!-- {} -->\n", "x".repeat(1 << 20));
    for (name, dtd) in [("deep.dtd", deep), ("big.dtd", big)] {
        let out = xnf_tool(&["lint", &write_tmp(name, &dtd)]);
        assert!(out.status.success(), "{name}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(stdout, "lint: clean (no diagnostics)\n", "{name}");
    }
}

#[test]
fn lint_errors_exit_nonzero_with_report_on_stdout() {
    let dtd = write_tmp("err.dtd", "<!ELEMENT r (ghost)>");
    let out = xnf_tool(&["lint", &dtd]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[XNF004]"), "{stdout}");
    assert!(stdout.contains("lint: 1 error"), "{stdout}");
    // The report is the product, not a tool failure: stderr stays quiet.
    assert!(
        out.stderr.is_empty(),
        "{:?}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn lint_json_exit_codes_match_human() {
    let dtd = write_tmp("err2.dtd", "<!ELEMENT r (ghost)>");
    let out = xnf_tool(&["lint", &dtd, "--format", "json"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"code\": \"XNF004\""), "{stdout}");
}

/// `--predictive` without an FD file is a usage error: exit 1, the
/// usage line on stderr, nothing on stdout.
#[test]
fn predictive_lint_needs_an_fd_file() {
    let dtd = workspace_file("examples/specs/university.dtd");
    let out = xnf_tool(&["lint", &dtd, "--predictive"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "xnf-tool: usage: --predictive needs an FD file \
         (the XNF2xx tier analyzes (D, \u{3a3}))\n"
    );
}

/// A `#` comment runs to the end of its line, past a `;`: the gate and
/// the engine both read the commented FD file as the plain one.
#[test]
fn a_comment_runs_to_the_end_of_its_line() {
    let dtd = workspace_file("examples/specs/university.dtd");
    let plain = workspace_file("examples/specs/university.fds");
    let text = std::fs::read_to_string(&plain).expect("fixture");
    let commented = write_tmp(
        "comment.fds",
        &format!("# FD1; the key of a course -> courses.course\n{text}"),
    );
    for flags in [&[][..], &["--no-lint"]] {
        let run = |fds: &str| {
            let mut args = vec!["is-xnf", &dtd, fds];
            args.extend(flags);
            xnf_tool(&args)
        };
        let (want, got) = (run(&plain), run(&commented));
        assert_eq!(got.status.code(), Some(0), "{flags:?}: {got:?}");
        assert_eq!(got.stdout, want.stdout, "{flags:?}");
    }
}

/// A path component is `S`, a DTD name or `@` and a name: anything
/// else is FD syntax (XNF101), not a path outside `paths(D)` (XNF102).
#[test]
fn malformed_path_components_are_syntax_errors() {
    let dtd = workspace_file("examples/specs/university.dtd");
    for (i, (fd, component)) in [
        ("courses . course -> courses.course.@cno", "`courses `"),
        (
            "the key of a course -> courses.course",
            "`the key of a course`",
        ),
        (
            "courses.course.@cno -> courses.course # note",
            "`course # note`",
        ),
        ("courses.course.@ -> courses.course", "`@`"),
    ]
    .into_iter()
    .enumerate()
    {
        let fds = write_tmp(&format!("component{i}.fds"), &format!("{fd}\n"));
        let out = xnf_tool(&["lint", &dtd, &fds]);
        assert_eq!(out.status.code(), Some(1), "{fd}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("error[XNF101]"), "{fd}: {stdout}");
        assert!(!stdout.contains("XNF102"), "{fd}: {stdout}");
        assert!(
            stdout.contains(&format!("path component {component}")),
            "{fd}: {stdout}"
        );
    }
}

#[test]
fn normalize_aborts_on_hard_lint_errors_without_panicking() {
    let dtd = write_tmp(
        "pre.dtd",
        "<!ELEMENT db (conf*)>\n<!ELEMENT conf (title)>\n<!ELEMENT title (#PCDATA)>",
    );
    let fds = write_tmp("pre.fds", "db.conf.ghost -> db.conf");
    let out = xnf_tool(&["normalize", &dtd, &fds]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("error[XNF102]"), "{stdout}");
    assert!(stdout.contains("preflight lint failed"), "{stdout}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn is_xnf_preflight_aborts_and_no_lint_opts_out() {
    let dtd = write_tmp("pre2.dtd", "<!ELEMENT r (ghost)>");
    let fds = write_tmp("pre2.fds", "");
    let out = xnf_tool(&["is-xnf", &dtd, &fds]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("error[XNF004]"));
    // --no-lint skips preflight; the engine's own error goes to stderr.
    let out = xnf_tool(&["is-xnf", &dtd, &fds, "--no-lint"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("xnf-tool:"));
    assert!(!String::from_utf8_lossy(&out.stderr).contains("panicked"));
}

/// A failing preflight renders its full report — the chase-backed rules
/// included — under the op's budget. On the pathological general DTD
/// with one unknown FD path, that report exhausts `--fuel 5000`: exit 4,
/// not the exit 1 of a report computed without the op's limits.
#[test]
fn failing_preflight_renders_under_the_op_budget() {
    let dtd = workspace_file("tests/data/pathological-general.dtd");
    let fds = std::fs::read_to_string(workspace_file("tests/data/pathological-general.fds"))
        .expect("fixture");
    let fds = write_tmp(
        "pre-exhaust.fds",
        &format!("{}\ne0.nope -> e0\n", fds.trim_end()),
    );
    let doc = write_tmp("pre-exhaust.xml", "<e0/>");
    for op in [
        vec!["is-xnf", &dtd, &fds],
        vec!["normalize", &dtd, &fds],
        vec!["verify", &dtd, &fds],
        vec!["shred", &dtd, &fds, &doc],
    ] {
        let mut governed = op.clone();
        governed.extend(["--fuel", "5000"]);
        let out = xnf_tool(&governed);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(4), "{governed:?}: {stdout}");
        assert!(
            stdout.contains("budget exhausted"),
            "{governed:?}: {stdout}"
        );
    }
}

/// The preflight reads the op's own parse, and the op's budget meters
/// it: under `--fuel 3` the one DTD parse runs out before the gate can
/// render its report (exit 4 at a `dtd.parse` checkpoint), while the
/// same spec without a budget fails the gate with the report (exit 1).
#[test]
fn the_gate_reads_the_ops_metered_parse() {
    let dtd = workspace_file("tests/bad_specs/vacuous.dtd");
    let fds = workspace_file("examples/specs/university.fds");
    for op in ["is-xnf", "normalize", "verify"] {
        let out = xnf_tool(&[op, &dtd, &fds, "--fuel", "3"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(4), "{op}: {stdout}");
        assert!(stdout.contains("at `dtd.parse."), "{op}: {stdout}");
        assert!(!stdout.contains("error[XNF"), "{op}: {stdout}");
        let out = xnf_tool(&[op, &dtd, &fds]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(1), "{op}: {stdout}");
        assert!(stdout.contains("error[XNF102]"), "{op}: {stdout}");
        assert!(stdout.contains("preflight lint failed"), "{op}: {stdout}");
    }
}

/// Comments inside a declaration: the lint gate reads the parser's own
/// listing, so the gated ops answer exactly what `--no-lint` answers. A
/// declaration inside a comment inside a content model is no duplicate,
/// and a comment inside `(#PCDATA)` is no element name.
#[test]
fn comments_inside_declarations_pass_the_gate() {
    let dup_dtd = write_tmp(
        "commented-dup.dtd",
        "<!ELEMENT r (a <!-- > <!ELEMENT a EMPTY> --> )>\n<!ELEMENT a EMPTY>\n",
    );
    let dup_fds = write_tmp("commented-dup.fds", "r -> r\n");
    let text_dtd = write_tmp(
        "commented-text.dtd",
        "<!ELEMENT r (t)>\n<!ELEMENT t (#PCDATA <!-- note -->)>\n",
    );
    let text_fds = write_tmp("commented-text.fds", "r.t.S -> r\n");
    let doc = write_tmp("commented-text.xml", "<r><t>hello</t></r>\n");
    for args in [
        vec!["is-xnf", &dup_dtd, &dup_fds],
        vec!["shred", &text_dtd, &text_fds, &doc],
    ] {
        let gated = xnf_tool(&args);
        let ungated = xnf_tool(&[args.as_slice(), &["--no-lint"]].concat());
        assert_eq!(gated.status.code(), Some(0), "{args:?}: {gated:?}");
        assert_eq!(ungated.status.code(), Some(0), "{args:?}: {ungated:?}");
        assert_eq!(gated.stdout, ungated.stdout, "{args:?}");
        assert!(gated.stderr.is_empty(), "{args:?}: {gated:?}");
    }
}
