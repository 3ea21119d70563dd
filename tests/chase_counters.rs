//! Pins the chase's deterministic counters and tick bills.
//!
//! Fuel ticks and chase/cache counters do not depend on the machine, so
//! they are the exact regression signal for the implication engine: an
//! optimization of the chase or the implication cache must leave every
//! number below unchanged. The values are `normalize --stats`'s counters
//! (chase runs, rule firings, ternary flips, cache hits / misses) plus
//! `analyze`'s predicted fuel (the ticks its `normalize` run charged)
//! and analyze fuel (the whole analysis: that run plus the minimal
//! cover; the input's anomalies are read off the run's first search).
//!
//! `compile_schema` has its own rows: the ticks it charges and its
//! `chase.run` visits under a limitless governed budget.
//!
//! A deliberate change of one of these numbers must be stated in
//! CHANGES.md together with the new value.

use std::path::PathBuf;
use xnf::core::{analyze, compile_schema, normalize, AnalyzeOptions, NormalizeOptions, XmlFdSet};
use xnf::dtd::Dtd;
use xnf_govern::{Budget, Recorder};

/// One pinned row: chase runs, rule firings, ternary flips, cache hits,
/// cache misses, predicted fuel, analyze fuel.
type Pinned = [u64; 7];

fn measure(dtd: &Dtd, sigma: &XmlFdSet) -> Pinned {
    let result = normalize(dtd, sigma, &NormalizeOptions::default()).expect("normalize");
    assert!(result.exhausted.is_none());
    let c = &result.stats.chase;
    let analysis = analyze(dtd, sigma, &AnalyzeOptions::default()).expect("analyze");
    assert!(analysis.exhausted.is_none());
    [
        c.get("chase.runs"),
        c.get("chase.rule_firings"),
        c.get("chase.ternary_flips"),
        c.get("cache.hits"),
        c.get("cache.misses"),
        analysis.cost.predicted_fuel,
        analysis.cost.analyze_fuel,
    ]
}

fn check(name: &str, dtd: &Dtd, sigma: &XmlFdSet, want: Pinned) {
    assert_eq!(
        measure(dtd, sigma),
        want,
        "{name}: [chase runs, rule firings, ternary flips, hits, misses, \
         predicted fuel, analyze fuel] moved"
    );
}

#[test]
fn e22_family_counters_are_pinned() {
    for (k, want) in [
        (4, [38, 14, 322, 14, 38, 504, 547]),
        (8, [124, 44, 1076, 44, 124, 1886, 1969]),
        (12, [258, 90, 2262, 90, 258, 4404, 4527]),
    ] {
        let (dtd, sigma) = xnf::core::analyze::e22_family(k);
        check(&format!("e22_family({k})"), &dtd, &sigma, want);
    }
}

/// The E20 wide spec: `wide_dtd(12)` with one planted anomalous FD per
/// hub.
#[test]
fn wide_spec_counters_are_pinned() {
    const WIDTH: usize = 12;
    let dtd = xnf_gen::dtd::wide_dtd(WIDTH);
    let fds: String = (0..WIDTH)
        .map(|i| format!("root.hub{i}.item{i}.@id{i} -> root.hub{i}.item{i}.@val{i}\n"))
        .collect();
    let sigma = XmlFdSet::parse(&fds).unwrap();
    check(
        "wide_dtd(12)",
        &dtd,
        &sigma,
        [798, 180, 7089, 180, 720, 15629, 15800],
    );
}

#[test]
fn paper_spec_counters_are_pinned() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    for (name, want) in [
        ("university", [17, 4, 276, 4, 16, 333, 482]),
        ("dblp", [5, 2, 138, 2, 5, 163, 235]),
        ("ebxml", [0, 0, 0, 0, 0, 3, 32]),
    ] {
        let read = |ext: &str| std::fs::read_to_string(root.join(format!("{name}.{ext}"))).unwrap();
        let dtd = xnf::dtd::parse_dtd(&read("dtd")).unwrap();
        let sigma = XmlFdSet::parse(&read("fds")).unwrap();
        check(name, &dtd, &sigma, want);
    }
}

/// `compile_schema` on each paper spec: [ticks, `chase.run` visits].
#[test]
fn shred_compile_counters_are_pinned() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    for (name, want) in [
        ("university", [1052, 36]),
        ("dblp", [1897, 45]),
        ("ebxml", [1217, 71]),
    ] {
        let read = |ext: &str| std::fs::read_to_string(root.join(format!("{name}.{ext}"))).unwrap();
        let dtd = xnf::dtd::parse_dtd(&read("dtd")).unwrap();
        let sigma = XmlFdSet::parse(&read("fds")).unwrap();
        let budget = Budget::builder().recorder(Recorder::enabled()).build();
        compile_schema(&dtd, &sigma, &budget).expect("compile_schema");
        let runs = budget
            .recorder()
            .sites()
            .into_iter()
            .find(|&(site, _)| site == "chase.run")
            .map_or(0, |(_, tally)| tally.visits);
        assert_eq!(
            [budget.ticks(), runs],
            want,
            "{name}: [ticks, chase.run visits] moved"
        );
    }
}
