//! Process-level tests of `xnf-tool shred`'s budget: the document parse
//! is metered like the rest of the op, so a budget that runs out inside
//! it exits 4 at an `xml.parse` checkpoint and writes no `--out` file.

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

/// A university document of `courses` courses with `students` students
/// each: thousands of element nodes, each an `xml.parse.node` checkpoint.
fn university_document(courses: usize, students: usize) -> String {
    let mut doc = String::from("<courses>");
    for c in 0..courses {
        doc.push_str(&format!(
            "<course cno=\"c{c}\"><title>T{c}</title><taken_by>"
        ));
        for s in 0..students {
            doc.push_str(&format!(
                "<student sno=\"s{c}_{s}\"><name>N{s}</name><grade>A</grade></student>"
            ));
        }
        doc.push_str("</taken_by></course>");
    }
    doc.push_str("</courses>");
    doc
}

#[test]
fn a_budget_spent_in_the_document_parse_exits_4_without_output() {
    let dir = std::env::temp_dir().join(format!("xnf-shred-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let xml = dir.join("university.xml");
    std::fs::write(&xml, university_document(20, 50)).unwrap();
    let out_file = dir.join("university.sql");
    // The spec intake takes a few dozen ticks; the document thousands.
    for fuel in ["100", "1000"] {
        let out = Command::new(env!("CARGO_BIN_EXE_xnf-tool"))
            .arg("shred")
            .arg(workspace_file("examples/specs/university.dtd"))
            .arg(workspace_file("examples/specs/university.fds"))
            .arg(&xml)
            .args(["--force", "--no-lint", "--fuel", fuel, "--out"])
            .arg(&out_file)
            .output()
            .expect("xnf-tool runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(4), "fuel {fuel}\n{stdout}");
        assert!(
            stdout.contains("budget exhausted") && stdout.contains("`xml.parse.node`"),
            "fuel {fuel}: not exhausted in the document parse\n{stdout}"
        );
        assert!(
            !out_file.exists(),
            "fuel {fuel}: an output file was written"
        );
    }
    // With room for the whole document the same call writes its output.
    let out = Command::new(env!("CARGO_BIN_EXE_xnf-tool"))
        .arg("shred")
        .arg(workspace_file("examples/specs/university.dtd"))
        .arg(workspace_file("examples/specs/university.fds"))
        .arg(&xml)
        .args(["--force", "--no-lint", "--out"])
        .arg(&out_file)
        .output()
        .expect("xnf-tool runs");
    assert_eq!(out.status.code(), Some(0));
    assert!(out_file.exists());
    let _ = std::fs::remove_dir_all(&dir);
}
