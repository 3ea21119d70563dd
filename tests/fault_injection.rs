//! Deterministic fault-injection harness for the resource-governed
//! execution layer (`xnf-govern`, `fault-injection` feature).
//!
//! The harness drives one *full governed pipeline* — DTD parse, document
//! generation + parse, conformance, regex derivatives, chase implication
//! (including a presence case-split), the XNF test, normalization, lint,
//! the losslessness oracle, and the relational shredding backend —
//! entirely under a single [`Budget`], and
//! then attacks every checkpoint site it visited:
//!
//! 1. **Probe.** A governed-but-limitless budget records each site's
//!    first-visit ordinal ([`Budget::site_ordinals`]). The pipeline is
//!    single-threaded and seeded, so ordinals are reproducible.
//! 2. **Targeted injection.** For every recorded site, a [`FaultPlan`]
//!    trips a synthetic exhaustion at exactly that site's ordinal. The
//!    run must surface a structured [`Exhausted`] naming the site —
//!    never a panic, never a verdict.
//! 3. **Seeded sweep.** Randomized plans ([`FaultPlan::seeded`]) over
//!    the whole tick range: every outcome is either the byte-identical
//!    ungoverned verdicts or a clean `Exhausted` of the planned resource.
//! 4. **Convergence.** Rerunning after `Exhausted` with geometrically
//!    larger fuel reaches the byte-identical ungoverned result.

use std::panic::{catch_unwind, AssertUnwindSafe};
use xnf_core::{normalize, Chase, Implication, NormalizeOptions, XmlFdSet};
use xnf_govern::{Budget, Exhausted, FaultPlan, Resource};

const UNIVERSITY_DTD: &str = include_str!("../examples/specs/university.dtd");
const UNIVERSITY_FDS: &str = include_str!("../examples/specs/university.fds");

/// A disjunctive instance whose implication is only visible through a
/// presence case-split (the chase's own ablation case (c)): the `e4`
/// under the root chooses `d0` or `d1`, and under either choice Σ makes
/// the query's `@a` agree. Simple DTDs never split, so the instance
/// needs the disjunction.
const SPLIT_DTD: &str = "<!ELEMENT e0 (e1+, e4+)>
     <!ELEMENT e1 (e2?, e3)>
     <!ELEMENT e2 EMPTY> <!ATTLIST e2 a CDATA #REQUIRED>
     <!ELEMENT e3 (e6*)>
     <!ELEMENT e4 (d0 | d1)>
     <!ELEMENT e6 (#PCDATA)>
     <!ELEMENT d0 EMPTY> <!ELEMENT d1 EMPTY>";

/// Every truth-bearing output of the pipeline. `PartialEq` equality over
/// this struct is the "never a wrong answer" oracle: a governed run may
/// abort with [`Exhausted`], but if it answers, the answer must be
/// byte-identical to the ungoverned one.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Verdicts {
    doc_conforms: bool,
    word_matches: bool,
    split_implies: bool,
    input_is_xnf: bool,
    normalize_steps: usize,
    final_dtd: String,
    final_sigma: String,
    output_is_xnf: bool,
    shred_summary: String,
    lint_codes: String,
    oracle_summary: String,
}

/// Runs the whole governed pipeline under `budget`. Exhaustion at any
/// stage propagates as `Err`; every *other* failure panics, because the
/// inputs are fixed and valid — so `catch_unwind` around this function
/// flags any injection site that corrupts state instead of unwinding
/// cleanly through the governed error channel.
fn run_pipeline(budget: &Budget) -> Result<Verdicts, Exhausted> {
    // Stage 1: governed DTD parsing (sites `dtd.parse.*`).
    let dtd = match xnf_dtd::parse_dtd_governed(
        UNIVERSITY_DTD,
        xnf_dtd::ParseLimits::default(),
        budget,
    ) {
        Ok(d) => d,
        Err(xnf_dtd::DtdError::Exhausted(e)) => return Err(e),
        Err(e) => panic!("the university DTD must parse: {e}"),
    };

    // Stage 2: governed XML parsing of a generated document
    // (sites `xml.parse.*`).
    let doc_src = xnf_xml::to_string_pretty(&xnf_gen::doc::university_document(2, 2, 3, 2));
    let doc = match xnf_xml::parse_governed(&doc_src, xnf_xml::ParseLimits::default(), budget) {
        Ok(t) => t,
        Err(xnf_xml::XmlError::Exhausted(e)) => return Err(e),
        Err(e) => panic!("the generated document must parse: {e}"),
    };

    // Stage 3: governed conformance, which also builds the content
    // models' Glushkov position trees (sites `xml.conform.*`, `glushkov.*`).
    let doc_conforms = match xnf_xml::conforms_governed(&doc, &dtd, budget) {
        Ok(()) => true,
        Err(xnf_xml::ConformError::Exhausted(e)) => return Err(e),
        Err(_) => false,
    };

    // Stage 4: governed Brzozowski derivatives (sites `derivative.*`).
    let courses = dtd.elem_id("courses").expect("root element exists");
    let courses_re = dtd
        .content(courses)
        .as_regex()
        .expect("(course*) is a regular content model")
        .clone();
    let word_matches = xnf_dtd::derivative::matches(&courses_re, ["course", "course"], budget)?;

    // Stage 5: governed chase on the case-split instance
    // (sites `chase.*`, including `chase.split`).
    let split_dtd = xnf_dtd::parse_dtd(SPLIT_DTD).expect("split DTD parses");
    let split_paths = split_dtd.paths().expect("split DTD is non-recursive");
    let split_sigma = XmlFdSet::parse("e0.e4.d0 -> e0.e1.e2.@a; e0.e4.d1 -> e0.e1.e3")
        .expect("sigma parses")
        .resolve(&split_paths)
        .expect("sigma resolves");
    let split_query = XmlFdSet::parse("e0.e1.e3.e6.S -> e0.e1.e2.@a")
        .expect("query parses")
        .resolve(&split_paths)
        .expect("query resolves")
        .remove(0);
    let chase = Chase::new(&split_dtd, &split_paths).with_budget(budget.clone());
    let split_implies = chase.try_implies(&split_sigma, &split_query)?;

    // Stage 6: governed XNF test on the input spec
    // (sites `xnf.candidate`, `cache.lookup`, more `chase.*`).
    let sigma = XmlFdSet::parse(UNIVERSITY_FDS).expect("university FDs parse");
    let input_is_xnf = match xnf_core::is_xnf_governed(&dtd, &sigma, budget) {
        Ok(b) => b,
        Err(xnf_core::CoreError::Exhausted(e)) => return Err(e),
        Err(e) => panic!("the XNF test must succeed: {e}"),
    };

    // Stage 7: governed normalization (sites `normalize.*`). A partial
    // result is an exhaustion for the harness: only a final design may
    // contribute verdicts.
    let options = NormalizeOptions {
        budget: budget.clone(),
        ..NormalizeOptions::default()
    };
    let result = match normalize(&dtd, &sigma, &options) {
        Ok(r) => r,
        Err(xnf_core::CoreError::Exhausted(e)) => return Err(e),
        Err(e) => panic!("normalization must succeed: {e}"),
    };
    if let Some(e) = result.exhausted {
        return Err(e);
    }
    let output_is_xnf = match xnf_core::is_xnf_governed(&result.dtd, &result.sigma, budget) {
        Ok(b) => b,
        Err(xnf_core::CoreError::Exhausted(e)) => return Err(e),
        Err(e) => panic!("the output XNF test must succeed: {e}"),
    };

    // Stage 8: governed lint (site `lint.semantic.fd`).
    let lint_report = xnf_lint::lint(
        &xnf_dtd::DtdListing::read(UNIVERSITY_DTD, Default::default(), &Budget::unlimited()),
        Some(&xnf_core::fd::FdListing::read(UNIVERSITY_FDS)),
        xnf_lint::OptIn::None,
        budget,
    )?;

    // Stage 9: governed losslessness oracle (site `oracle.doc`).
    let oracle_config = xnf_oracle::SpecOracleConfig {
        docs: 3,
        seed: 7,
        doc_params: xnf_gen::doc::DocParams::default(),
        max_attempts: 200,
        budget: budget.clone(),
    };
    let oracle = match xnf_oracle::check_spec(&dtd, &sigma, &oracle_config) {
        Ok(r) => r,
        Err(xnf_core::CoreError::Exhausted(e)) => return Err(e),
        Err(e) => panic!("the oracle must complete: {e}"),
    };

    // Stage 10: governed shredding (sites `shred.table`, `shred.fd`,
    // `shred.row`, `shred.rebuild`): compile the relational schema,
    // shred the stage-2 document, rebuild it, and render the SQL. A
    // round trip that is not the identity is a corruption, not an
    // exhaustion, so it panics.
    fn map_shred<T>(r: xnf_core::Result<T>) -> Result<T, Exhausted> {
        match r {
            Ok(v) => Ok(v),
            Err(xnf_core::CoreError::Exhausted(e)) => Err(e),
            Err(e) => panic!("shredding the university spec must succeed: {e}"),
        }
    }
    let schema = map_shred(xnf_core::compile_schema(&dtd, &sigma, budget))?;
    let rows = map_shred(xnf_core::shred_document(&schema, &doc, budget))?;
    let rebuilt = map_shred(xnf_core::unshred_document(&schema, &rows, budget))?;
    assert!(
        xnf_xml::ordered_eq(&doc, &rebuilt),
        "the shred round trip must be the identity"
    );

    Ok(Verdicts {
        doc_conforms,
        word_matches,
        split_implies,
        input_is_xnf,
        normalize_steps: result.steps.len(),
        final_dtd: result.dtd.to_string(),
        final_sigma: result.sigma.to_string(),
        output_is_xnf,
        lint_codes: format!("{:?}", lint_report.codes()),
        shred_summary: format!(
            "tables={} rows={} bcnf_violations={} sql_bytes={}",
            schema.num_tables(),
            rows.row_count(),
            schema.non_bcnf_tables().len(),
            schema.design.to_sql().len()
                + rows
                    .to_insert_sql(&schema.design)
                    .expect("sql renders")
                    .len()
        ),
        oracle_summary: format!(
            "xnf={} checked={} skipped={} failures={}",
            oracle.output_is_xnf,
            oracle.docs_checked,
            oracle.docs_skipped,
            oracle.failures.len()
        ),
    })
}

/// Probe run: governed but limitless, so nothing can exhaust and every
/// checkpoint site records its first-visit ordinal.
fn probe() -> (Verdicts, Vec<(&'static str, u64)>, u64) {
    let budget = Budget::builder().build();
    let verdicts = run_pipeline(&budget).expect("a limitless governed budget cannot exhaust");
    let ordinals = budget.site_ordinals();
    (verdicts, ordinals, budget.ticks())
}

/// The paper-level expectations for the pipeline, asserted once on the
/// ungoverned truth so the sweep tests compare against *correct*
/// verdicts, not merely self-consistent ones.
fn assert_truth_is_sane(truth: &Verdicts) {
    assert!(truth.doc_conforms, "the generated document conforms");
    assert!(truth.word_matches, "course,course ∈ L(course*)");
    assert!(truth.split_implies, "the case-split implication holds");
    assert!(!truth.input_is_xnf, "Example 5.1: university is not in XNF");
    assert!(truth.output_is_xnf, "normalization reaches XNF");
    assert!(truth.normalize_steps > 0);
}

#[test]
fn governed_pipeline_visits_the_whole_injection_surface() {
    let (verdicts, ordinals, ticks) = probe();
    assert_truth_is_sane(&verdicts);
    assert!(ticks >= ordinals.len() as u64);
    let sites: Vec<&str> = ordinals.iter().map(|&(s, _)| s).collect();
    assert!(
        sites.len() >= 20,
        "expected ≥ 20 distinct injection sites, saw {}: {sites:?}",
        sites.len()
    );
    // Every layer of the stack must expose at least one site: a layer
    // with no checkpoints is ungovernable and invisible to this harness.
    for prefix in [
        "dtd.",
        "xml.",
        "glushkov.",
        "derivative.",
        "chase.",
        "cache.",
        "xnf.",
        "normalize.",
        "lint.",
        "oracle.",
        "shred.",
    ] {
        assert!(
            sites.iter().any(|s| s.starts_with(prefix)),
            "no checkpoint site under `{prefix}` was visited; sites: {sites:?}"
        );
    }
    // The shredder's checkpoints and the chase's case split are
    // load-bearing: they must be on the injection surface by name.
    for site in [
        "shred.table",
        "shred.fd",
        "shred.row",
        "shred.rebuild",
        "chase.split",
    ] {
        assert!(
            sites.contains(&site),
            "checkpoint site `{site}` was not visited; sites: {sites:?}"
        );
    }
}

#[test]
fn every_injection_site_surfaces_a_structured_error() {
    let (_, ordinals, _) = probe();
    assert!(
        ordinals.len() >= 20,
        "injection surface shrank: {ordinals:?}"
    );
    for &(site, ordinal) in &ordinals {
        // The pipeline is deterministic, so tripping at a site's
        // first-visit ordinal injects exactly there.
        let plan = FaultPlan {
            trip_at: ordinal,
            resource: Resource::Fuel,
        };
        let budget = Budget::builder().fault(plan).build();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_pipeline(&budget)))
            .unwrap_or_else(|_| panic!("injection at `{site}` (ordinal {ordinal}) panicked"));
        let e = outcome.expect_err("a tripped fault plan cannot produce verdicts");
        assert_eq!(e.resource, Resource::Fuel);
        assert!(
            e.progress.contains(site),
            "injection at ordinal {ordinal} surfaced `{}`, expected site `{site}`",
            e.progress
        );
    }
}

#[test]
fn seeded_fault_sweeps_never_panic_and_never_lie() {
    let (truth, _, total_ticks) = probe();
    for seed in 0..48u64 {
        let plan = FaultPlan::seeded(seed, total_ticks);
        let budget = Budget::builder().fault(plan).build();
        let outcome = catch_unwind(AssertUnwindSafe(|| run_pipeline(&budget)))
            .unwrap_or_else(|_| panic!("seed {seed} ({plan:?}) panicked"));
        match outcome {
            // A plan can only let the pipeline finish if it tripped past
            // the end; any produced verdicts must equal the truth.
            Ok(v) => assert_eq!(v, truth, "seed {seed} ({plan:?}) changed a verdict"),
            Err(e) => {
                assert_eq!(e.resource, plan.resource, "seed {seed} misreported");
                assert!(!e.progress.is_empty(), "seed {seed} lost its progress");
            }
        }
    }
}

#[test]
fn rerunning_with_larger_budgets_converges_to_the_ungoverned_result() {
    let truth = run_pipeline(&Budget::unlimited()).expect("ungoverned runs cannot exhaust");
    assert_truth_is_sane(&truth);
    let mut fuel = 10u64;
    let mut starved = 0usize;
    loop {
        let budget = Budget::builder().fuel(fuel).build();
        match run_pipeline(&budget) {
            Ok(v) => {
                assert_eq!(v, truth, "fuel {fuel} converged to different verdicts");
                break;
            }
            Err(e) => {
                assert_eq!(e.resource, Resource::Fuel, "fuel {fuel} misreported: {e}");
                starved += 1;
                fuel *= 4;
                assert!(fuel < 1 << 40, "pipeline never converged");
            }
        }
    }
    assert!(starved > 0, "fuel 10 must starve the pipeline");
}

#[test]
fn pathological_general_dtd_exhausts_instead_of_hanging() {
    // Implication for general (non-simple) DTDs is coNP-hard (the chase
    // itself caps its case-split exploration to stay sound), so the
    // governed XNF test must be able to give up *cleanly* when an
    // instance's workload exceeds the budget. This instance is a deep
    // chain of optional elements with starred, attributed siblings —
    // every `e{i}?` forces presence reasoning, every `s{i}*` defeats
    // functional shortcuts — closed by an alternation-of-sequences leaf
    // that places the DTD in the general class. Its implication workload
    // is several times the 5 000-unit fuel allowance; the run must stop
    // with a structured `Exhausted`, never hang and never answer.
    //
    // The spec lives in `tests/data/` because CI smokes the identical
    // bytes through the CLI (`xnf-tool is-xnf … --fuel 5000` under
    // `timeout`, expecting exit code 4).
    let dtd = xnf_dtd::parse_dtd(include_str!("data/pathological-general.dtd"))
        .expect("pathological DTD parses");
    let sigma = XmlFdSet::parse(include_str!("data/pathological-general.fds"))
        .expect("pathological FDs parse");

    let budget = Budget::builder()
        .fuel(5_000)
        .deadline(std::time::Duration::from_secs(30))
        .build();
    match xnf_core::is_xnf_governed(&dtd, &sigma, &budget) {
        Err(xnf_core::CoreError::Exhausted(e)) => {
            assert!(!e.progress.is_empty(), "exhaustion lost its progress: {e}");
        }
        Ok(v) => panic!("expected exhaustion on the pathological instance, got verdict {v}"),
        Err(e) => panic!("expected Exhausted, got {e}"),
    }
}
