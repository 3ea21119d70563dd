//! Differential tests: the decomposition planner (`xnf_core::analyze`)
//! against a separate governed `normalize` run.
//!
//! `analyze` runs `normalize` itself (one thread, on its own metered
//! budget) and reports that run, so its plan must equal the standalone
//! step trace — step for step — along with the AP trace, the revised
//! `(D, Σ)`, the chase/cache counters, and, to the tick, the governed
//! run's fuel bill (`predicted_fuel`). This suite pins that on the
//! fuzz-found oracle corpus, the paper's three specs, the `e22_family`
//! stress family, the E20 wide spec, a generated corpus of 200+ random
//! instances, and the bad-spec corpus (error parity). The reported
//! anomalies are that run's first search, so their distinct paths
//! number exactly the AP trace's first sample.

use std::collections::BTreeSet;
use std::path::PathBuf;
use xnf::core::{analyze, normalize, AnalyzeOptions, NormalizeOptions, XmlFdSet};
use xnf::dtd::Dtd;
use xnf_gen::dtd::{simple_dtd, SimpleDtdParams};
use xnf_gen::fd::{random_fds, FdParams};
use xnf_govern::Budget;

/// Runs `normalize` on a governed-but-limitless budget, returning the
/// result and the exact tick bill.
fn normalize_metered(
    dtd: &Dtd,
    sigma: &XmlFdSet,
) -> Result<(xnf::core::NormalizeResult, u64), xnf::core::CoreError> {
    let budget = Budget::builder().build();
    let r = normalize(
        dtd,
        sigma,
        &NormalizeOptions {
            budget: budget.clone(),
            ..NormalizeOptions::default()
        },
    )?;
    assert!(r.exhausted.is_none());
    Ok((r, budget.ticks()))
}

/// Full differential comparison for one spec: when both accept, the
/// prediction must be byte-exact; when either rejects, both must
/// reject with the same rendered error. Returns whether the accepting
/// branch was exercised.
fn assert_prediction_matches(dtd: &Dtd, sigma: &XmlFdSet, label: &str) -> bool {
    let a = analyze(dtd, sigma, &AnalyzeOptions::default());
    let n = normalize_metered(dtd, sigma);
    match (a, n) {
        (Ok(a), Ok((r, ticks))) => {
            assert_prediction_exact(&a, &r, ticks, label);
            true
        }
        (Err(ae), Err(ne)) => {
            assert_eq!(format!("{ae}"), format!("{ne}"), "{label}: errors diverged");
            false
        }
        (a, n) => panic!("{label}: verdicts diverged: {a:?} vs {n:?}"),
    }
}

/// The byte-exact comparison for a spec both calls accepted.
fn assert_prediction_exact(
    a: &xnf::core::Analysis,
    r: &xnf::core::NormalizeResult,
    ticks: u64,
    label: &str,
) {
    assert!(
        a.exhausted.is_none(),
        "{label}: ungoverned analyze exhausted"
    );
    assert_eq!(a.plan, r.steps, "{label}: predicted plan diverged");
    assert_eq!(a.ap_trace, r.ap_trace, "{label}: AP trace diverged");
    assert_eq!(
        a.dtd.to_string(),
        r.dtd.to_string(),
        "{label}: revised DTD diverged"
    );
    assert_eq!(
        a.sigma.to_string(),
        r.sigma.to_string(),
        "{label}: revised Σ diverged"
    );
    assert_eq!(a.cost.iterations, r.stats.iterations, "{label}");
    assert_eq!(a.cost.steps, r.steps.len() as u64, "{label}");
    assert_eq!(
        a.cost.chase_runs,
        r.stats.chase.get("chase.runs"),
        "{label}"
    );
    assert_eq!(
        a.cost.cache_hits,
        r.stats.chase.get("cache.hits"),
        "{label}"
    );
    assert_eq!(
        a.cost.cache_misses,
        r.stats.chase.get("cache.misses"),
        "{label}"
    );
    assert_eq!(
        a.cost.predicted_fuel, ticks,
        "{label}: prediction missed the tick bill"
    );
    // The anomalies and the AP trace's first sample come from one sweep:
    // normalize's first search over the preprocessed input.
    let anomalous_paths: BTreeSet<&str> = a.anomalies.iter().map(|an| an.path.as_str()).collect();
    assert_eq!(
        Some(&anomalous_paths.len()),
        a.ap_trace.first(),
        "{label}: anomalies disagree with |AP| of the first iteration"
    );
}

fn corpus_dir(name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("tests");
    p.push(name);
    p
}

/// Every fuzz-found corpus seed: the prediction matches the run exactly.
#[test]
fn oracle_corpus_predictions_are_byte_exact() {
    let dir = corpus_dir("oracle_corpus");
    let mut seeds = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "dtd") {
            continue;
        }
        let fds_path = path.with_extension("fds");
        let dtd_src = std::fs::read_to_string(&path).unwrap();
        let fds_src = std::fs::read_to_string(&fds_path).unwrap();
        let dtd = xnf::dtd::parse_dtd(&dtd_src).unwrap();
        let sigma = XmlFdSet::parse(&fds_src).unwrap();
        assert!(assert_prediction_matches(
            &dtd,
            &sigma,
            &path.display().to_string()
        ));
        seeds += 1;
    }
    assert!(seeds >= 8, "corpus shrank: {seeds} specs");
}

/// The paper's three specs (Examples 1.1, 1.2/5.2 and the part-supplier
/// encoding of Section 5).
#[test]
fn paper_spec_predictions_are_byte_exact() {
    let specs: [(&str, &str); 3] = [
        (
            "<!ELEMENT courses (course*)>
             <!ELEMENT course (title, taken_by)>
             <!ATTLIST course cno CDATA #REQUIRED>
             <!ELEMENT title (#PCDATA)>
             <!ELEMENT taken_by (student*)>
             <!ELEMENT student (name, grade)>
             <!ATTLIST student sno CDATA #REQUIRED>
             <!ELEMENT name (#PCDATA)>
             <!ELEMENT grade (#PCDATA)>",
            "courses.course.@cno -> courses.course
             courses.course, courses.course.taken_by.student.@sno -> courses.course.taken_by.student
             courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S",
        ),
        (
            "<!ELEMENT db (conf*)>
             <!ELEMENT conf (title, issue+)>
             <!ELEMENT title (#PCDATA)>
             <!ELEMENT issue (inproceedings+)>
             <!ELEMENT inproceedings (author+, title, booktitle)>
             <!ATTLIST inproceedings
                 key CDATA #REQUIRED pages CDATA #REQUIRED year CDATA #REQUIRED>
             <!ELEMENT author (#PCDATA)>
             <!ELEMENT booktitle (#PCDATA)>",
            "db.conf.title.S -> db.conf
             db.conf.issue -> db.conf.issue.inproceedings.@year",
        ),
        (
            "<!ELEMENT r (part*)>
             <!ELEMENT part (supplier*)>
             <!ATTLIST part pno CDATA #REQUIRED>
             <!ELEMENT supplier EMPTY>
             <!ATTLIST supplier sno CDATA #REQUIRED city CDATA #REQUIRED>",
            "r.part.@pno -> r.part
             r.part.supplier.@sno -> r.part.supplier.@city",
        ),
    ];
    for (i, (dtd_src, fds_src)) in specs.iter().enumerate() {
        let dtd = xnf::dtd::parse_dtd(dtd_src).unwrap();
        let sigma = XmlFdSet::parse(fds_src).unwrap();
        assert!(assert_prediction_matches(
            &dtd,
            &sigma,
            &format!("paper spec {i}")
        ));
    }
}

/// The E22 stress family stays exact across sizes, up to the k = 25 of
/// experiment E22.
#[test]
fn e22_family_predictions_are_byte_exact() {
    for k in [1, 2, 4, 8, 12, 25] {
        let (dtd, sigma) = xnf::core::analyze::e22_family(k);
        assert!(assert_prediction_matches(
            &dtd,
            &sigma,
            &format!("e22_family({k})")
        ));
    }
}

/// The E20 wide spec: `wide_dtd(12)` with one planted anomalous FD
/// `item_i.@id_i -> item_i.@val_i` per hub.
#[test]
fn wide_spec_predictions_are_byte_exact() {
    const WIDTH: usize = 12;
    let dtd = xnf_gen::dtd::wide_dtd(WIDTH);
    let fds: String = (0..WIDTH)
        .map(|i| format!("root.hub{i}.item{i}.@id{i} -> root.hub{i}.item{i}.@val{i}\n"))
        .collect();
    let sigma = XmlFdSet::parse(&fds).unwrap();
    assert!(assert_prediction_matches(
        &dtd,
        &sigma,
        &format!("wide_dtd({WIDTH})")
    ));
}

/// 200+ generated instances: random simple DTDs × random FD sets.
#[test]
fn generated_corpus_predictions_are_byte_exact() {
    let mut checked = 0u32;
    for seed in 0..80u64 {
        for elements in 3..8 {
            let mut rng = xnf_gen::rng(seed ^ 0xa7a1);
            let dtd = simple_dtd(
                &mut rng,
                &SimpleDtdParams {
                    elements,
                    max_children: 3,
                    max_attrs: 2,
                    text_leaf_prob: 0.4,
                },
            );
            let sigma = random_fds(
                &dtd,
                &mut rng,
                &FdParams {
                    count: 4,
                    max_lhs: 2,
                },
            );
            if sigma.is_empty() {
                continue;
            }
            if assert_prediction_matches(&dtd, &sigma, &format!("seed {seed}, elements {elements}"))
            {
                checked += 1;
            }
        }
    }
    assert!(checked >= 200, "generated corpus too small: {checked}");
}

/// Error parity on the bad-spec corpus: where `normalize` rejects a
/// spec, `analyze` rejects it with the very same error — the planner
/// must not accept what the engine refuses (or vice versa).
#[test]
fn bad_specs_fail_identically() {
    // A recursive DTD: both reject before doing any work.
    let recursive =
        xnf::dtd::parse_dtd("<!ELEMENT r (a)> <!ELEMENT a (b?)> <!ELEMENT b (a)>").unwrap();
    let sigma = XmlFdSet::new();
    let a_err = analyze(&recursive, &sigma, &AnalyzeOptions::default()).unwrap_err();
    let n_err = normalize(&recursive, &sigma, &NormalizeOptions::default()).unwrap_err();
    assert_eq!(format!("{a_err}"), format!("{n_err}"));

    // Every parseable bad-spec DTD, paired with an FD pool over it: the
    // two calls agree verdict-for-verdict (both accept with identical
    // plans, or both reject with the same rendered error).
    let dir = corpus_dir("bad_specs");
    let mut compared = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "dtd") {
            continue;
        }
        let dtd_src = std::fs::read_to_string(&path).unwrap();
        let Ok(dtd) = xnf::dtd::parse_dtd(&dtd_src) else {
            continue;
        };
        let fds_src = path.with_extension("fds");
        let sigma = match std::fs::read_to_string(&fds_src) {
            Ok(src) => match XmlFdSet::parse(&src) {
                Ok(s) => s,
                Err(_) => continue,
            },
            Err(_) => XmlFdSet::new(),
        };
        assert_prediction_matches(&dtd, &sigma, &path.display().to_string());
        compared += 1;
    }
    assert!(compared >= 3, "bad-spec corpus shrank: {compared} specs");
}
