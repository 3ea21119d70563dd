//! Identity of the shortcuts a Figure 4 iteration takes.
//!
//! * Normalizing with `record_stages` off must decide exactly what it
//!   decides with stage snapshots on: the same revised `(D, Σ)`, step
//!   trace, `|AP|` trace, chase counters and tick bill. Only `stages` is
//!   left empty.
//! * The path set's child index must resolve every path it enumerated
//!   back to its own id, agree with `children_of` on every one-step
//!   extension, and resolve nothing else.
//!
//! The corpus is the paper's three specs, `e22_family(4/8/12)` and the
//! E20 wide spec (`wide_dtd(12)` with one planted FD per hub), plus a
//! depth-bounded recursive DTD for the path checks.

use std::path::PathBuf;
use xnf::core::{normalize, NormalizeOptions, NormalizeResult, XmlFdSet};
use xnf::dtd::{Dtd, Path, PathSet, Regex, Step};
use xnf_govern::Budget;

fn corpus() -> Vec<(String, Dtd, XmlFdSet)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    let mut out = Vec::new();
    for name in ["university", "dblp", "ebxml"] {
        let read = |ext: &str| std::fs::read_to_string(root.join(format!("{name}.{ext}"))).unwrap();
        let dtd = xnf::dtd::parse_dtd(&read("dtd")).unwrap();
        let sigma = XmlFdSet::parse(&read("fds")).unwrap();
        out.push((name.to_string(), dtd, sigma));
    }
    for k in [4, 8, 12] {
        let (dtd, sigma) = xnf::core::analyze::e22_family(k);
        out.push((format!("e22_family({k})"), dtd, sigma));
    }
    const WIDTH: usize = 12;
    let fds: String = (0..WIDTH)
        .map(|i| format!("root.hub{i}.item{i}.@id{i} -> root.hub{i}.item{i}.@val{i}\n"))
        .collect();
    out.push((
        format!("wide_dtd({WIDTH})"),
        xnf_gen::dtd::wide_dtd(WIDTH),
        XmlFdSet::parse(&fds).unwrap(),
    ));
    out
}

/// Normalizes on a governed-but-limitless budget; returns the result and
/// the exact tick bill.
fn metered(dtd: &Dtd, sigma: &XmlFdSet, record_stages: bool) -> (NormalizeResult, u64) {
    let budget = Budget::builder().build();
    let options = NormalizeOptions {
        budget: budget.clone(),
        record_stages,
        ..NormalizeOptions::default()
    };
    let result = normalize(dtd, sigma, &options).expect("spec normalizes");
    assert!(result.exhausted.is_none());
    (result, budget.ticks())
}

#[test]
fn recording_stages_changes_nothing_but_the_snapshots() {
    for (name, dtd, sigma) in corpus() {
        let (on, on_ticks) = metered(&dtd, &sigma, true);
        let (off, off_ticks) = metered(&dtd, &sigma, false);
        assert_eq!(on.dtd, off.dtd, "{name}: revised DTD");
        assert_eq!(on.sigma, off.sigma, "{name}: revised Σ");
        assert_eq!(on.steps, off.steps, "{name}: step trace");
        assert_eq!(on.ap_trace, off.ap_trace, "{name}: |AP| trace");
        assert_eq!(on.stats.chase, off.stats.chase, "{name}: chase counters");
        assert_eq!(on.stats.iterations, off.stats.iterations, "{name}");
        assert_eq!(on_ticks, off_ticks, "{name}: tick bill");
        assert_eq!(on.stages.len(), on.steps.len(), "{name}");
        assert!(off.stages.is_empty(), "{name}");
    }
}

/// Checks the child index of `ps` against its enumeration.
fn check_resolution(name: &str, ps: &PathSet) {
    for p in ps.iter() {
        let path = ps.path(p);
        assert_eq!(ps.resolve(&path), Some(p), "{name}: {path}");
        let mut foreign = path.steps().to_vec();
        foreign[0] = Step::elem("zz_foreign_root");
        assert_eq!(ps.resolve(&Path::new(foreign)), None, "{name}: {path}");
        if !ps.is_element_path(p) {
            continue;
        }
        for cp in ps.children_of(p) {
            if let Step::Elem(n) = ps.step(cp) {
                assert_eq!(ps.child_elem(p, n), Some(cp), "{name}: {path}.{n}");
            }
        }
        assert_eq!(ps.child_elem(p, "zz_missing"), None, "{name}: {path}");
        for step in [
            Step::elem("zz_missing"),
            Step::attr("zz_missing"),
            Step::Text,
        ] {
            let child = ps.children_of(p).find(|&cp| *ps.step(cp) == step);
            assert_eq!(
                ps.resolve(&path.child(step.clone())),
                child,
                "{name}: {path}.{step}"
            );
        }
    }
}

#[test]
fn every_enumerated_path_resolves_to_itself_and_nothing_else_does() {
    for (name, dtd, _) in corpus() {
        check_resolution(&name, &dtd.paths().unwrap());
    }
    let recursive = Dtd::builder("r")
        .elem(
            "r",
            Regex::seq([Regex::elem("part"), Regex::elem("note").opt()]),
        )
        .elem_attrs("part", Regex::elem("part").star(), ["id"])
        .text_elem("note")
        .build()
        .unwrap();
    let bounded = recursive.paths_bounded(5);
    assert!(bounded.truncated());
    check_resolution("recursive", &bounded);
    // Past the length bound nothing resolves, though the DTD allows it.
    assert_eq!(bounded.resolve_str("r.part.part.part.part.part"), None);
    assert!(bounded.resolve_str("r.part.part.part.part").is_some());
}
