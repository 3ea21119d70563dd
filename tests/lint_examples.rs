//! End-to-end linting of the checked-in specs.
//!
//! * The paper's own specs under `examples/specs/` must lint **clean** —
//!   zero diagnostics of any severity.
//! * The seeded bad specs under `tests/bad_specs/` must produce exactly
//!   the expected diagnostic codes, in order, in both the human and the
//!   JSON rendering.

//! * The shredding-specific bad specs must produce the `XNF3xx` codes
//!   under the opt-in shred tier (`OptIn::Shred`) and stay invisible
//!   to the default tiers.

use xnf::core::fd::FdListing;
use xnf::dtd::{DtdListing, ParseLimits};
use xnf::lint::{lint, lint_spec, preflight, LintReport, OptIn};
use xnf_govern::Budget;

/// The listing `lint_spec` reads.
fn listing(dtd: &str) -> DtdListing<'_> {
    DtdListing::read(dtd, ParseLimits::default(), &Budget::unlimited())
}

/// The lint with the shred tier, over a parse of `dtd`.
fn lint_spec_shred(dtd: &str, fds: Option<&str>) -> LintReport {
    lint(
        &listing(dtd),
        fds.map(FdListing::read).as_ref(),
        OptIn::Shred,
        &Budget::unlimited(),
    )
    .expect("unlimited budget cannot exhaust")
}

fn read(rel: &str) -> String {
    let path = format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn paper_specs_lint_clean() {
    for name in ["university", "dblp", "ebxml"] {
        let dtd = read(&format!("examples/specs/{name}.dtd"));
        let fds = read(&format!("examples/specs/{name}.fds"));
        let report = lint_spec(&dtd, Some(&fds));
        assert!(
            report.is_clean(),
            "examples/specs/{name} should lint clean:\n{}",
            report.render_human()
        );
    }
}

/// The seeded corpus: (dtd file, fds file, exactly-expected codes).
const BAD_SPECS: &[(&str, Option<&str>, &[&str])] = &[
    ("tests/bad_specs/duplicate.dtd", None, &["XNF002"]),
    (
        "tests/bad_specs/nondet_orphan.dtd",
        None,
        &["XNF010", "XNF007"],
    ),
    (
        "tests/bad_specs/unsatisfiable.dtd",
        None,
        &["XNF009", "XNF008", "XNF011"],
    ),
    (
        "tests/bad_specs/vacuous.dtd",
        Some("tests/bad_specs/vacuous.fds"),
        &["XNF103"],
    ),
    (
        "examples/specs/university.dtd",
        Some("tests/bad_specs/redundant_sigma.fds"),
        &["XNF104", "XNF105", "XNF106"],
    ),
    (
        "examples/specs/university.dtd",
        Some("tests/bad_specs/broken.fds"),
        &["XNF101", "XNF102"],
    ),
];

#[test]
fn bad_spec_corpus_produces_exactly_the_expected_codes() {
    for &(dtd_file, fds_file, expected) in BAD_SPECS {
        let dtd = read(dtd_file);
        let fds = fds_file.map(read);
        let report = lint_spec(&dtd, fds.as_deref());
        let got: Vec<&str> = report.codes().iter().map(|c| c.as_str()).collect();
        assert_eq!(
            got,
            expected,
            "{dtd_file} (+ {fds_file:?}):\n{}",
            report.render_human()
        );
        // Both renderings name every code.
        let human = report.render_human();
        let json = report.to_json();
        for code in expected {
            assert!(human.contains(&format!("[{code}]")), "{dtd_file}: {human}");
            assert!(
                json.contains(&format!("\"code\": \"{code}\"")),
                "{dtd_file}: {json}"
            );
        }
    }
}

/// The shredding corpus: (dtd file, exactly-expected codes under the
/// shred tier). The `XNF3xx` rows are the shredding-specific failure
/// modes: recursive element types (no finite table layout), mixed
/// content (text without a column), leaf-name collisions, and tables
/// wider than the FD enumeration window.
const SHRED_SPECS: &[(&str, &[&str])] = &[
    ("tests/bad_specs/recursive.dtd", &["XNF011", "XNF300"]),
    ("tests/bad_specs/mixed.dtd", &["XNF301", "XNF001"]),
    ("tests/bad_specs/collide.dtd", &["XNF302", "XNF302"]),
    ("tests/bad_specs/wide.dtd", &["XNF303"]),
];

#[test]
fn shred_bad_specs_produce_exactly_the_expected_codes() {
    for &(dtd_file, expected) in SHRED_SPECS {
        let dtd = read(dtd_file);
        let report = lint_spec_shred(&dtd, None);
        let got: Vec<&str> = report.codes().iter().map(|c| c.as_str()).collect();
        assert_eq!(got, expected, "{dtd_file}:\n{}", report.render_human());
        // The shred tier is opt-in: the default lint never shows XNF3xx.
        let default = lint_spec(&dtd, None);
        assert!(
            default
                .codes()
                .iter()
                .all(|c| !c.as_str().starts_with("XNF3")),
            "{dtd_file}: default lint leaked a shred diagnostic:\n{}",
            default.render_human()
        );
    }
}

#[test]
fn paper_specs_under_the_shred_tier() {
    // university and dblp shred without a single XNF3xx diagnostic.
    for name in ["university", "dblp"] {
        let dtd = read(&format!("examples/specs/{name}.dtd"));
        let fds = read(&format!("examples/specs/{name}.fds"));
        let report = lint_spec_shred(&dtd, Some(&fds));
        assert!(
            report
                .codes()
                .iter()
                .all(|c| !c.as_str().starts_with("XNF3")),
            "examples/specs/{name} should be shred-clean:\n{}",
            report.render_human()
        );
    }
    // ebxml reuses `Documentation` (and friends) under several parents,
    // so those tables fall back to mangled path names: XNF302 warnings,
    // nothing worse. Pin the exact set so drift is visible.
    let dtd = read("examples/specs/ebxml.dtd");
    let fds = read("examples/specs/ebxml.fds");
    let report = lint_spec_shred(&dtd, Some(&fds));
    let shred: Vec<&str> = report
        .codes()
        .iter()
        .map(|c| c.as_str())
        .filter(|c| c.starts_with("XNF3"))
        .collect();
    assert!(
        !shred.is_empty() && shred.iter().all(|&c| c == "XNF302"),
        "ebxml should produce only XNF302 name-collision warnings:\n{}",
        report.render_human()
    );
}

/// Every checked-in spec file ending in `ext` under `tests/bad_specs`
/// and `examples/specs`, sorted.
fn corpus_files(ext: &str) -> Vec<String> {
    let mut files = Vec::new();
    for dir in ["tests/bad_specs", "examples/specs"] {
        let full = format!("{}/{dir}", env!("CARGO_MANIFEST_DIR"));
        for entry in std::fs::read_dir(&full).unwrap() {
            let name = entry.unwrap().file_name().into_string().unwrap();
            if name.ends_with(ext) {
                files.push(format!("{dir}/{name}"));
            }
        }
    }
    files.sort();
    files
}

/// The preflight gate against the full report it stands in for: every
/// checked-in DTD crossed with every checked-in FD file and with no FDs,
/// under the plain and the shred tier. The gate passes exactly when the
/// full report has no error, and a failing gate returns that report
/// byte for byte in both renderings.
#[test]
fn preflight_gate_agrees_with_the_full_report() {
    let unlimited = Budget::unlimited();
    let fds_files: Vec<Option<String>> = std::iter::once(None)
        .chain(corpus_files(".fds").into_iter().map(Some))
        .collect();
    let (mut passed, mut failed) = (0, 0);
    for dtd_file in corpus_files(".dtd") {
        let dtd = read(&dtd_file);
        for fds_file in &fds_files {
            let fds = fds_file.as_deref().map(read);
            let fds = fds.as_deref().map(FdListing::read);
            for shred_tier in [false, true] {
                let parsed = listing(&dtd);
                let opt_in = if shred_tier {
                    OptIn::Shred
                } else {
                    OptIn::None
                };
                let full = lint(&parsed, fds.as_ref(), opt_in, &unlimited).unwrap();
                let gate = preflight(&parsed, fds.as_ref(), shred_tier, &unlimited).unwrap();
                let what = format!("{dtd_file} + {fds_file:?} (shred tier: {shred_tier})");
                match gate {
                    None => {
                        assert!(!full.has_errors(), "{what}: gate passed an error");
                        passed += 1;
                    }
                    Some(report) => {
                        assert!(full.has_errors(), "{what}: gate failed a clean spec");
                        assert_eq!(report.render_human(), full.render_human(), "{what}");
                        assert_eq!(report.to_json(), full.to_json(), "{what}");
                        failed += 1;
                    }
                }
            }
        }
    }
    // 11 DTDs x 7 FD choices x 2 tiers, both outcomes well represented.
    assert_eq!(passed + failed, 154);
    assert!(
        passed >= 20 && failed >= 20,
        "{passed} passed, {failed} failed"
    );
}

/// Every report this file's corpus yields, rendered in full: each
/// checked-in DTD crossed with no FDs and with each checked-in FD file,
/// under the default and the shred tier, then the paper specs under the
/// predictive tier. Returns the human and the JSON renderings, each
/// report under a header line naming its inputs and tier.
fn corpus_reports() -> (String, String) {
    let unlimited = Budget::unlimited();
    let fds_files: Vec<Option<String>> = std::iter::once(None)
        .chain(corpus_files(".fds").into_iter().map(Some))
        .collect();
    let mut runs: Vec<(String, Option<String>, OptIn)> = Vec::new();
    for dtd_file in corpus_files(".dtd") {
        for fds_file in &fds_files {
            for opt_in in [OptIn::None, OptIn::Shred] {
                runs.push((dtd_file.clone(), fds_file.clone(), opt_in));
            }
        }
    }
    for name in ["university", "dblp", "ebxml"] {
        let dtd_file = format!("examples/specs/{name}.dtd");
        let fds_file = format!("examples/specs/{name}.fds");
        runs.push((dtd_file, Some(fds_file), OptIn::Predictive));
    }
    let (mut human, mut json) = (String::new(), String::new());
    for (dtd_file, fds_file, opt_in) in runs {
        let dtd = read(&dtd_file);
        let fds = fds_file.as_deref().map(read);
        let fds = fds.as_deref().map(FdListing::read);
        let report = lint(&listing(&dtd), fds.as_ref(), opt_in, &unlimited).unwrap();
        let fds_name = fds_file.as_deref().unwrap_or("-");
        let header = format!("=== {dtd_file} + {fds_name} ({opt_in:?}) ===\n");
        human.push_str(&header);
        human.push_str(&report.render_human());
        json.push_str(&header);
        json.push_str(&report.to_json());
        json.push('\n');
    }
    (human, json)
}

/// The corpus reports byte for byte: messages, spans, snippets and notes,
/// not just codes. The golden files were rendered by the linter before
/// its DTD scanner was folded into the parser's declaration listing.
#[test]
fn corpus_reports_match_the_golden_files() {
    let (human, json) = corpus_reports();
    for (got, golden) in [
        (human, "tests/golden/lint_reports.human.txt"),
        (json, "tests/golden/lint_reports.json.txt"),
    ] {
        let want = read(golden);
        if got == want {
            continue;
        }
        let (got_lines, want_lines) = (got.lines(), want.lines());
        let first = got_lines
            .zip(want_lines)
            .position(|(g, w)| g != w)
            .unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "{golden} differs first at line {}:\n got: {:?}\nwant: {:?}",
            first + 1,
            got.lines().nth(first),
            want.lines().nth(first)
        );
    }
}
