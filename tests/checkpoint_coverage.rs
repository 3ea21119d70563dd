//! Checkpoint-coverage lint: the checkpoint sites named in the source
//! tree versus the sites a governed pipeline actually visits.
//!
//! Every hot loop in the engine charges its [`Budget`] through a named
//! checkpoint site, and the observability/fault-injection layers key on
//! those names (`xnf_checkpoint_visits_total{site="…"}`, targeted
//! [`FaultPlan`]s). A typo'd or renamed site silently breaks both. This
//! suite scans `crates/*/src` for `checkpoint("…")` literals — the
//! static site set — then drives representative governed runs and
//! cross-checks [`Budget::site_ordinals`] against it:
//!
//! 1. every site visited at runtime is declared in the source scan
//!    (no dynamically-built names sneak past grep-ability), and
//! 2. the engine's known hot loops — the normalize fixpoint, the chase
//!    saturation, the cache, the candidate search, the `analyze.*` sites
//!    of the static planner, and the `shred.*` sites of the relational
//!    backend — are all actually visited.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use xnf::core::{analyze, normalize, AnalyzeOptions, NormalizeOptions, XmlFdSet};
use xnf_govern::Budget;

const UNIVERSITY_DTD: &str = include_str!("../examples/specs/university.dtd");
const UNIVERSITY_FDS: &str = include_str!("../examples/specs/university.fds");

/// The hot-loop sites the governed pipeline must visit on the
/// university spec. Keep this list in sync with new engine loops: a
/// site added here without a `checkpoint("…")` in the source fails
/// check 1; a loop added to the engine without a checkpoint will not
/// appear in `site_ordinals` and should be added here.
const REQUIRED_HOT_LOOPS: [&str; 14] = [
    "shred.table",
    "shred.fd",
    "shred.row",
    "shred.rebuild",
    "dtd.parse.decl",
    "dtd.parse.atom",
    "normalize.iteration",
    "normalize.guard",
    "normalize.apply",
    "xnf.candidate",
    "chase.run",
    "chase.saturate.fd",
    "chase.saturate.queue",
    "cache.lookup",
];

/// `analyze`-only sites, asserted separately so a regression in the
/// static planner's metering reads as its own failure.
const REQUIRED_ANALYZE_SITES: [&str; 1] = ["analyze.cover"];

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Scans every `crates/*/src` tree for `checkpoint("<site>")` string
/// literals. Test-module literals (`test.fuel`, single letters) are
/// kept — they only ever widen the allowed set.
fn static_sites() -> BTreeSet<String> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates/ exists") {
        let src = entry.expect("dir entry").path().join("src");
        if src.is_dir() {
            collect_rs_files(&src, &mut files);
        }
    }
    assert!(files.len() > 10, "source scan went wrong: {files:?}");
    let mut sites = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("readable source");
        for (_, rest) in text
            .match_indices("checkpoint(\"")
            .map(|(i, m)| (i, &text[i + m.len()..]))
        {
            let literal = rest.split('"').next().expect("terminated literal");
            sites.insert(literal.to_string());
        }
    }
    sites
}

/// Drives the governed surface on the university spec: DTD parse,
/// static analysis, normalization, and the predictive lint tier, all on
/// one budget.
fn visited_sites() -> Vec<(&'static str, u64)> {
    let budget = Budget::builder().build();
    let dtd = xnf_dtd::parse_dtd_governed(UNIVERSITY_DTD, xnf_dtd::ParseLimits::default(), &budget)
        .expect("university DTD parses");
    let sigma = XmlFdSet::parse(UNIVERSITY_FDS).expect("university FDs parse");
    let a = analyze(
        &dtd,
        &sigma,
        &AnalyzeOptions {
            budget: budget.clone(),
            ..AnalyzeOptions::default()
        },
    )
    .expect("analysis succeeds");
    assert!(a.exhausted.is_none());
    let r = normalize(
        &dtd,
        &sigma,
        &NormalizeOptions {
            budget: budget.clone(),
            ..NormalizeOptions::default()
        },
    )
    .expect("normalization succeeds");
    assert!(r.exhausted.is_none());
    xnf_lint::lint(
        &xnf_dtd::DtdListing::read(UNIVERSITY_DTD, Default::default(), &Budget::unlimited()),
        Some(&xnf_core::fd::FdListing::read(UNIVERSITY_FDS)),
        xnf_lint::OptIn::Predictive,
        &budget,
    )
    .expect("predictive lint completes");
    // The shredding backend (sites `shred.*`): compile, shred a
    // conforming document, rebuild it.
    let schema = xnf_core::compile_schema(&dtd, &sigma, &budget).expect("schema compiles");
    let doc = xnf_gen::doc::university_document(2, 2, 3, 2);
    let rows = xnf_core::shred_document(&schema, &doc, &budget).expect("document shreds");
    xnf_core::unshred_document(&schema, &rows, &budget).expect("rows rebuild");
    budget.site_ordinals()
}

#[test]
fn every_visited_site_is_declared_in_the_source() {
    let declared = static_sites();
    for (site, ordinal) in visited_sites() {
        assert!(
            declared.contains(site),
            "site `{site}` (first visit at tick {ordinal}) is charged at runtime \
             but no `checkpoint(\"{site}\")` literal exists under crates/*/src — \
             checkpoint names must stay grep-able"
        );
    }
}

#[test]
fn hot_loops_are_checkpointed_and_visited() {
    let declared = static_sites();
    let visited: BTreeSet<&str> = visited_sites().into_iter().map(|(s, _)| s).collect();
    for site in REQUIRED_HOT_LOOPS {
        assert!(
            declared.contains(site),
            "hot loop `{site}` lost its checkpoint literal"
        );
        assert!(
            visited.contains(site),
            "hot loop `{site}` was never visited by the governed pipeline"
        );
    }
    for site in REQUIRED_ANALYZE_SITES {
        assert!(
            visited.contains(site),
            "static planner site `{site}` was never visited — analyze stopped metering itself"
        );
    }
}

#[test]
fn visited_site_names_follow_the_dotted_convention() {
    for (site, _) in visited_sites() {
        assert!(
            site.split('.').count() >= 2
                && site
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
            "site `{site}` breaks the `layer.loop[.detail]` naming convention"
        );
    }
}
