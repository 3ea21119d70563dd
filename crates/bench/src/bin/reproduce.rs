//! `reproduce` — regenerates every figure artifact of the paper and
//! prints the qualitative paper-vs-implementation comparison recorded in
//! `EXPERIMENTS.md`.
//!
//! Usage: `cargo run -p xnf-bench --bin reproduce [fig1|fig2|fig3|fig4|fig5|e17|e18|e19|e20|e22|e23|e24|e25|all]`
//!
//! Alongside the human output, every run writes `BENCH_obs.json` — one
//! record per experiment (id, wall time, counter snapshot, git SHA) —
//! so perf trajectories can be diffed across commits. Engine-driven
//! experiments run under a recorder-enabled budget; the self-timing
//! experiments (e18, e19, e20, e22, e24, e25) manage their own budgets
//! and report empty counter snapshots.

#![forbid(unsafe_code)]

use xnf_bench::obs_report::{self, ExperimentRecord};
use xnf_core::lossless::{transform_document, verify_lossless};
use xnf_core::{normalize, tuples_d, NormalizeOptions, XmlFdSet};
use xnf_dtd::classify::{DtdClass, DtdShapes};
use xnf_govern::{Budget, Recorder};
use xnf_relational::nested::{unnest, NestedSchema, NestedTuple};

fn university() -> (xnf_dtd::Dtd, xnf_xml::XmlTree, XmlFdSet) {
    let dtd = xnf_dtd::parse_dtd(
        "<!ELEMENT courses (course*)>
         <!ELEMENT course (title, taken_by)>
         <!ATTLIST course cno CDATA #REQUIRED>
         <!ELEMENT title (#PCDATA)>
         <!ELEMENT taken_by (student*)>
         <!ELEMENT student (name, grade)>
         <!ATTLIST student sno CDATA #REQUIRED>
         <!ELEMENT name (#PCDATA)>
         <!ELEMENT grade (#PCDATA)>",
    )
    .expect("DTD parses");
    let doc = xnf_xml::parse(
        r#"<courses>
          <course cno="csc200"><title>Automata Theory</title><taken_by>
            <student sno="st1"><name>Deere</name><grade>A+</grade></student>
            <student sno="st2"><name>Smith</name><grade>B-</grade></student>
          </taken_by></course>
          <course cno="mat100"><title>Calculus I</title><taken_by>
            <student sno="st1"><name>Deere</name><grade>A-</grade></student>
            <student sno="st3"><name>Smith</name><grade>B+</grade></student>
          </taken_by></course>
        </courses>"#,
    )
    .expect("document parses");
    let sigma = XmlFdSet::parse(xnf_core::fd::UNIVERSITY_FDS).expect("FDs parse");
    (dtd, doc, sigma)
}

fn fig1(budget: &Budget) {
    println!("================ Figure 1 — the university example ================");
    let (dtd, doc, sigma) = university();
    println!("-- Figure 1(a): the original document --");
    print!("{}", xnf_xml::to_string_pretty(&doc));
    assert!(xnf_xml::conforms(&doc, &dtd).is_ok());
    println!("\n-- XNF analysis --");
    for v in xnf_core::anomalous_fds_governed(&dtd, &sigma, budget).expect("XNF test runs") {
        println!("anomalous FD: {}", v.fd);
    }
    let options = NormalizeOptions {
        budget: budget.clone(),
        ..NormalizeOptions::default()
    };
    let mut result = normalize(&dtd, &sigma, &options).expect("normalization succeeds");
    let transformed = transform_document(&dtd, &result, &doc).expect("transform succeeds");
    xnf_core::normalize::rename_element(&mut result.dtd, &mut result.sigma, "sno_ref", "number")
        .expect("rename succeeds");
    println!("\n-- revised DTD (paper prints name as a #PCDATA child of info;\n   the formal construction of Section 6 — and this output — makes it\n   an attribute) --");
    print!("{}", result.dtd);
    println!("\n-- Figure 1(b): the transformed document --");
    print!("{}", xnf_xml::to_string_pretty(&transformed));
    let pre_rename = normalize(&dtd, &sigma, &options).expect("normalization succeeds");
    let report = verify_lossless(&dtd, &pre_rename, &doc).expect("verification runs");
    println!("\nlossless: {report:?}");
    assert!(report.ok());
}

fn fig2() {
    println!("================ Figure 2 — a tree tuple and its tree ================");
    let (dtd, doc, _) = university();
    let paths = dtd.paths().expect("non-recursive");
    let tuples = tuples_d(&doc, &dtd, &paths).expect("compatible");
    println!(
        "tuples_D(T) has {} maximal tree tuples; the Figure 2 tuple:",
        tuples.len()
    );
    let cno = paths.resolve_str("courses.course.@cno").unwrap();
    let sno = paths
        .resolve_str("courses.course.taken_by.student.@sno")
        .unwrap();
    let t = tuples
        .iter()
        .find(|t| {
            t.get(cno) == &xnf_relational::Value::str("csc200")
                && t.get(sno) == &xnf_relational::Value::str("st1")
        })
        .expect("the Figure 2 tuple exists");
    for p in paths.iter() {
        println!("  t({}) = {}", paths.format(p), t.get(p));
    }
    let (tree, _) = t.tree(&paths).expect("valid tuple");
    println!("-- tree_D(t) (Figure 2(b)) --");
    print!("{}", xnf_xml::to_string_pretty(&tree));
}

fn fig3() {
    println!("================ Figure 3 — nested relation and its unnesting ================");
    let schema = NestedSchema::new(
        "H1",
        ["Country"],
        [NestedSchema::new(
            "H2",
            ["State"],
            [NestedSchema::leaf("H3", ["City"])],
        )],
    );
    let instance = vec![NestedTuple::new(
        ["United States"],
        [vec![
            NestedTuple::new(
                ["Texas"],
                [vec![
                    NestedTuple::leaf(["Houston"]),
                    NestedTuple::leaf(["Dallas"]),
                ]],
            ),
            NestedTuple::new(
                ["Ohio"],
                [vec![
                    NestedTuple::leaf(["Columbus"]),
                    NestedTuple::leaf(["Cleveland"]),
                ]],
            ),
        ]],
    )];
    println!("schema: {schema}");
    let flat = unnest(&schema, &instance).expect("arities match");
    println!("-- Figure 3(b): complete unnesting --\n{flat}");
    println!(
        "State -> Country holds: {}",
        flat.satisfies_fd(&["State"], &["Country"]).unwrap()
    );
    println!(
        "State -> City holds:    {}",
        flat.satisfies_fd(&["State"], &["City"]).unwrap()
    );
    let dtd = xnf_core::encode::nested_to_dtd(&schema).expect("coding succeeds");
    println!("-- coded DTD (Section 5) --\n{dtd}");
}

fn fig4(budget: &Budget) {
    println!("================ Figure 4 — the decomposition algorithm, traced ================");
    for (name, dtd_text, fds) in [
        (
            "university",
            "<!ELEMENT courses (course*)>
             <!ELEMENT course (title, taken_by)>
             <!ATTLIST course cno CDATA #REQUIRED>
             <!ELEMENT title (#PCDATA)>
             <!ELEMENT taken_by (student*)>
             <!ELEMENT student (name, grade)>
             <!ATTLIST student sno CDATA #REQUIRED>
             <!ELEMENT name (#PCDATA)>
             <!ELEMENT grade (#PCDATA)>",
            xnf_core::fd::UNIVERSITY_FDS,
        ),
        (
            "dblp",
            "<!ELEMENT db (conf*)>
             <!ELEMENT conf (title, issue+)>
             <!ELEMENT title (#PCDATA)>
             <!ELEMENT issue (inproceedings+)>
             <!ELEMENT inproceedings (author+, title, booktitle)>
             <!ATTLIST inproceedings key CDATA #REQUIRED pages CDATA #REQUIRED year CDATA #REQUIRED>
             <!ELEMENT author (#PCDATA)>
             <!ELEMENT booktitle (#PCDATA)>",
            xnf_core::fd::DBLP_FDS,
        ),
    ] {
        let dtd = xnf_dtd::parse_dtd(dtd_text).expect("DTD parses");
        let sigma = XmlFdSet::parse(fds).expect("FDs parse");
        let options = NormalizeOptions {
            budget: budget.clone(),
            ..NormalizeOptions::default()
        };
        let r = normalize(&dtd, &sigma, &options).expect("normalizes");
        println!(
            "-- {name}: |AP| trace {:?} (Proposition 6: strictly decreasing) --",
            r.ap_trace
        );
        for s in &r.steps {
            println!("   {s:?}");
        }
        assert!(xnf_core::is_xnf_governed(&r.dtd, &r.sigma, budget).expect("XNF test runs"));
        println!("   result is in XNF ✓");
    }
}

fn fig5() {
    println!("================ Figure 5 — the ebXML BPSS fragment ================");
    let dtd = xnf_dtd::parse_dtd(
        r#"<!ELEMENT ProcessSpecification (Documentation*, SubstitutionSet*,
              (Include | BusinessDocument | Package | BinaryCollaboration)*)>
           <!ELEMENT Include (Documentation*)>
           <!ELEMENT BusinessDocument (ConditionExpression?, Documentation*)>
           <!ELEMENT SubstitutionSet (DocumentSubstitution | AttributeSubstitution | Documentation)*>
           <!ELEMENT BinaryCollaboration (Documentation*, InitiatingRole, RespondingRole)>
           <!ELEMENT Package EMPTY>
           <!ELEMENT Documentation (#PCDATA)>
           <!ELEMENT ConditionExpression (#PCDATA)>
           <!ELEMENT DocumentSubstitution EMPTY>
           <!ELEMENT AttributeSubstitution EMPTY>
           <!ELEMENT InitiatingRole EMPTY>
           <!ELEMENT RespondingRole EMPTY>"#,
    )
    .expect("fragment parses");
    let shapes = DtdShapes::analyze(&dtd);
    println!("elements: {}, |D| = {}", dtd.num_elements(), dtd.size());
    match shapes.class() {
        DtdClass::Simple => println!(
            "class: SIMPLE — as the paper asserts (\"the Business Process\n\
             Specification Schema of ebXML … is a simple DTD\"); implication\n\
             over it is tractable (Theorem 3)"
        ),
        other => println!("class: {other:?}"),
    }
}

fn e17(budget: &Budget) {
    println!("================ E17 — end-to-end verification oracle ================");
    // The same battery `xnf-tool verify` runs, over the paper's university
    // spec plus a randomized differential sample, with the headline
    // numbers printed for EXPERIMENTS.md.
    let (dtd, _, sigma) = university();
    let config = xnf_oracle::SpecOracleConfig {
        budget: budget.clone(),
        ..xnf_oracle::SpecOracleConfig::default()
    };
    let report = xnf_oracle::check_spec(&dtd, &sigma, &config).expect("spec oracle runs");
    println!(
        "university spec: output in XNF: {}, {} step(s); losslessness on \
         {}/{} generated documents ({} skipped), {} failure(s)",
        report.output_is_xnf,
        report.steps,
        report.docs_checked,
        report.docs_requested,
        report.docs_skipped,
        report.failures.len()
    );

    let mut instances = 0usize;
    let mut refuted = 0usize;
    for seed in 0..100u64 {
        let (d, s) = xnf_oracle::fuzz::spec_for_seed(seed, &xnf_oracle::FuzzConfig::default());
        let mut rng = xnf_gen::rng(seed ^ 0xd1ff);
        let candidates = xnf_gen::fd::random_fds(
            &d,
            &mut rng,
            &xnf_gen::fd::FdParams {
                count: 4,
                max_lhs: 2,
            },
        );
        let paths = d.paths().expect("simple DTDs are non-recursive");
        let resolved = s.resolve(&paths).expect("generated FDs resolve");
        let chase = xnf_core::Chase::new(&d, &paths);
        let Ok(brute) = xnf_oracle::BruteForce::new(
            &d,
            &s,
            seed,
            4,
            &xnf_gen::doc::DocParams {
                reps: (0, 2),
                value_alphabet: 2,
                max_nodes: 150,
            },
        ) else {
            continue;
        };
        for fd in candidates.iter() {
            use xnf_core::Implication;
            let r = fd.resolve(&paths).expect("candidate resolves");
            instances += 1;
            if let Some(_witness) = brute.refutes(fd).expect("pool relations are well-formed") {
                refuted += 1;
                assert!(
                    !chase.implies(&resolved, &r),
                    "brute-force witness contradicts the chase on seed {seed}, fd {fd}"
                );
            }
        }
    }
    println!(
        "differential sample: {instances} (D, Σ, φ) instances, {refuted} \
         brute-force refutations, 0 disagreements with the chase"
    );
    println!("(full sweep: cargo test -q --test oracle_differential)");
}

fn e18() {
    use std::time::{Duration, Instant};
    println!("================ E18 — governed execution overhead ================");
    // The implication-heavy workload every budget checkpoint rides on:
    // a full `normalize` plus the XNF test of its output, on the paper's
    // university spec. Three budget flavors: the zero-cost ungoverned
    // handle, a governed handle with no limits (every checkpoint takes
    // the slow path but nothing can trip), and a governed handle with
    // all three limits metered (fuel CAS + memory + amortized deadline —
    // the worst case a `--timeout/--fuel/--max-memory` user pays).
    let (dtd, _, sigma) = university();
    let workload = |budget: &Budget| {
        let options = NormalizeOptions {
            budget: budget.clone(),
            ..NormalizeOptions::default()
        };
        let result = normalize(&dtd, &sigma, &options).expect("normalization succeeds");
        assert!(result.exhausted.is_none(), "generous budgets cannot trip");
        let in_xnf =
            xnf_core::is_xnf_governed(&result.dtd, &result.sigma, budget).expect("XNF test runs");
        assert!(in_xnf, "normalization reaches XNF");
    };
    const BATCH: usize = 20;
    let time = |mk: &dyn Fn() -> Budget| -> Duration {
        for _ in 0..3 {
            workload(&mk());
        }
        // Best-of-7 batches: the minimum is the stablest estimator for a
        // short CPU-bound workload on a possibly noisy machine.
        (0..7)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..BATCH {
                    workload(&mk());
                }
                t0.elapsed()
            })
            .min()
            .expect("seven batches ran")
    };
    let ungoverned = time(&Budget::unlimited);
    let governed = time(&|| Budget::builder().build());
    let metered = time(&|| {
        Budget::builder()
            .fuel(1 << 60)
            .memory(1 << 60)
            .deadline(Duration::from_secs(3600))
            .build()
    });
    let pct = |d: Duration| (d.as_secs_f64() / ungoverned.as_secs_f64() - 1.0) * 100.0;
    println!("workload: normalize + is-xnf on the university spec, batches of {BATCH}");
    println!("  ungoverned (Budget::unlimited) : {ungoverned:>12.3?}");
    println!(
        "  governed, no limits            : {governed:>12.3?}  ({:+.2}%)",
        pct(governed)
    );
    println!(
        "  governed, all limits metered   : {metered:>12.3?}  ({:+.2}%)",
        pct(metered)
    );
    println!("acceptance: metered overhead < 3% (see EXPERIMENTS.md E18)");
}

fn e19() {
    use std::time::{Duration, Instant};
    println!("================ E19 — observability overhead ================");
    // The same implication-heavy workload as E18, but varying the
    // *recorder*: the ungoverned baseline, a governed budget whose
    // recorder stays disabled (the default — every checkpoint pays one
    // extra `Option` test), and a governed budget with an enabled
    // recorder capturing every span, counter, and site tally.
    let (dtd, _, sigma) = university();
    let workload = |budget: &Budget| {
        let options = NormalizeOptions {
            budget: budget.clone(),
            ..NormalizeOptions::default()
        };
        let result = normalize(&dtd, &sigma, &options).expect("normalization succeeds");
        assert!(result.exhausted.is_none(), "generous budgets cannot trip");
        let in_xnf =
            xnf_core::is_xnf_governed(&result.dtd, &result.sigma, budget).expect("XNF test runs");
        assert!(in_xnf, "normalization reaches XNF");
    };
    const BATCH: usize = 20;
    const ROUNDS: usize = 120;
    // A fresh recorder per enabled round: one round models one CLI
    // `--trace` run (a process-lifetime recorder observing a bounded
    // number of engine runs). Sharing a single recorder across the
    // whole series would instead measure appending to an ever-growing
    // multi-megabyte span buffer, a steady state no real run reaches.
    let enabled_round_mk = || {
        let recorder = Recorder::enabled();
        move || Budget::builder().recorder(recorder.clone()).build()
    };
    // Interleaved median-of-N: each round times one batch of every
    // config back to back; each config reports the median of its round
    // times. Round-robin interleaving (instead of E18's per-config
    // batch runs) cancels slow machine-load drift, and the median (not
    // the minimum) shrugs off the occasional preempted batch — on a
    // shared box both effects dwarf the few-percent cost being
    // measured here.
    let mut times: [Vec<Duration>; 3] = [const { Vec::new() }; 3];
    let warm_enabled = enabled_round_mk();
    for mk in [
        &Budget::unlimited as &dyn Fn() -> Budget,
        &|| Budget::builder().build(),
        &warm_enabled,
    ] {
        for _ in 0..3 {
            workload(&mk());
        }
    }
    for _ in 0..ROUNDS {
        let enabled_mk = enabled_round_mk();
        let configs: [&dyn Fn() -> Budget; 3] = [
            &Budget::unlimited,
            &|| Budget::builder().build(),
            &enabled_mk,
        ];
        for (slot, mk) in times.iter_mut().zip(configs) {
            let t0 = Instant::now();
            for _ in 0..BATCH {
                workload(&mk());
            }
            slot.push(t0.elapsed());
        }
    }
    let median = |series: &mut Vec<Duration>| {
        series.sort_unstable();
        series[series.len() / 2]
    };
    let [ungoverned, disabled, enabled] = times.each_mut().map(median);
    // One factor at a time: the disabled-recorder cost is measured
    // against the ungoverned baseline (it adds one `Option` test per
    // checkpoint), and the recording cost against the disabled-recorder
    // governed baseline (the run a `--trace` user would otherwise do).
    let pct = |d: Duration, base: Duration| (d.as_secs_f64() / base.as_secs_f64() - 1.0) * 100.0;
    let probe = Recorder::enabled();
    workload(&Budget::builder().recorder(probe.clone()).build());
    let visits: u64 = probe.sites().iter().map(|(_, t)| t.visits).sum();
    println!("workload: normalize + is-xnf on the university spec, batches of {BATCH} (median of {ROUNDS} interleaved rounds)");
    println!(
        "  one workload records {} spans and {} checkpoint visits",
        probe.span_count(),
        visits
    );
    println!("  ungoverned (Budget::unlimited) : {ungoverned:>12.3?}");
    println!(
        "  governed, recorder disabled    : {disabled:>12.3?}  ({:+.2}% vs ungoverned)",
        pct(disabled, ungoverned)
    );
    println!(
        "  governed, recorder enabled     : {enabled:>12.3?}  ({:+.2}% vs disabled)",
        pct(enabled, disabled)
    );
    // The disabled row re-measures E18's quantity (the governed tick
    // itself — its config is E18's, minus explicit limits); the
    // recorder's own probe is the difference against that envelope.
    println!("acceptance: disabled within the ±3% E18 governance envelope, enabled < +10% vs disabled (see EXPERIMENTS.md E19)");
}

fn e20() {
    use std::time::{Duration, Instant};
    println!(
        "================ E20 — shard × thread scaling of the candidate search ================"
    );
    // The sharded anomalous-FD sweep on a wide spec: one anomalous FD
    // per root-child hub, so the shard plan has one fragment shard per
    // hub and the work divides cleanly. Every (shard, thread) cell is
    // first checked byte-identical to the sequential sweep, then timed.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("available_parallelism: {cpus}");
    const WIDTH: usize = 12;
    let dtd = xnf_gen::dtd::wide_dtd(WIDTH);
    let fd_text: String = (0..WIDTH)
        .map(|i| format!("root.hub{i}.item{i}.@id{i} -> root.hub{i}.item{i}.@val{i}\n"))
        .collect();
    let sigma = XmlFdSet::parse(&fd_text).expect("FDs parse");
    let baseline = xnf_core::anomalous_fds(&dtd, &sigma).expect("sequential sweep runs");
    assert_eq!(baseline.len(), WIDTH, "one planted anomaly per hub");
    const BATCH: usize = 10;
    let time = |shards: usize, threads: usize| -> Duration {
        // Best-of-5 batches, as in E18: the minimum is the stablest
        // estimator for a short CPU-bound workload.
        (0..5)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..BATCH {
                    let got = xnf_core::anomalous_fds_sharded(&dtd, &sigma, shards, threads)
                        .expect("sharded sweep runs");
                    assert_eq!(got, baseline, "shards={shards} threads={threads}");
                }
                t0.elapsed()
            })
            .min()
            .expect("five batches ran")
    };
    println!("workload: anomalous-FD sweep on wide_dtd({WIDTH}), batches of {BATCH}");
    let base_time = time(1, 1);
    println!("  shards= 1 threads=1 : {base_time:>12.3?}  (baseline)");
    for shards in [2usize, 4] {
        for threads in [1usize, 2, 4] {
            // Correctness is asserted on every cell regardless; but a
            // speedup quoted from time-slicing one core would be noise,
            // so those rows are marked instead of reported.
            if threads > 1 && cpus == 1 {
                let got = xnf_core::anomalous_fds_sharded(&dtd, &sigma, shards, threads)
                    .expect("sharded sweep runs");
                assert_eq!(got, baseline);
                println!("  shards={shards:>2} threads={threads} : skipped (1 cpu) — output verified identical");
                continue;
            }
            let t = time(shards, threads);
            println!(
                "  shards={shards:>2} threads={threads} : {t:>12.3?}  ({:.2}x vs sequential)",
                base_time.as_secs_f64() / t.as_secs_f64()
            );
        }
    }
    println!(
        "acceptance: every cell byte-identical to the sequential sweep (see EXPERIMENTS.md E20)"
    );
}

fn e22() {
    use std::time::{Duration, Instant};
    use xnf_core::analyze::{analyze, e22_family, AnalyzeOptions};
    println!("================ E22 — analyze runs normalize: wall time and fuel ================");
    // `analyze` runs `normalize` on its input (one thread, on its own
    // metered budget) and adds anomaly provenance, a minimal cover and
    // the FD graph, so it costs one normalize plus that surcharge. Per
    // spec: check that the plan equals the normalize trace and that
    // `predicted_fuel` equals the governed normalize tick bill, then
    // time both calls.
    let mut specs: Vec<(String, xnf_dtd::Dtd, XmlFdSet)> = [5, 10, 25]
        .into_iter()
        .map(|k| {
            let (dtd, sigma) = e22_family(k);
            (format!("e22_family({k})"), dtd, sigma)
        })
        .collect();
    const WIDTH: usize = 12;
    let wide_fds: String = (0..WIDTH)
        .map(|i| format!("root.hub{i}.item{i}.@id{i} -> root.hub{i}.item{i}.@val{i}\n"))
        .collect();
    specs.push((
        format!("wide_dtd({WIDTH})"),
        xnf_gen::dtd::wide_dtd(WIDTH),
        XmlFdSet::parse(&wide_fds).expect("FDs parse"),
    ));
    let base = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs");
    for name in ["university", "dblp", "ebxml"] {
        let read = |ext: &str| {
            std::fs::read_to_string(format!("{base}/{name}.{ext}")).expect("paper spec exists")
        };
        let dtd = xnf_dtd::parse_dtd(&read("dtd")).expect("spec DTD parses");
        let sigma = XmlFdSet::parse(&read("fds")).expect("spec FDs parse");
        specs.push((name.to_string(), dtd, sigma));
    }
    let normalize_metered = |dtd: &xnf_dtd::Dtd, sigma: &XmlFdSet| {
        let budget = Budget::builder().build();
        let options = NormalizeOptions {
            budget: budget.clone(),
            ..NormalizeOptions::default()
        };
        let r = normalize(dtd, sigma, &options).expect("normalization succeeds");
        (r, budget.ticks())
    };
    // A sample repeats a call until it has run for ~10 ms, so microsecond
    // specs are timed as reliably as the k=25 family; each figure is the
    // median of 7 interleaved samples per call.
    const SAMPLES: usize = 7;
    let per_call = |reps: u32, f: &dyn Fn()| -> Duration {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed() / reps
    };
    let median = |mut v: Vec<Duration>| -> Duration {
        v.sort();
        v[v.len() / 2]
    };
    println!(
        "{:<18} {:>12} {:>12} {:>9} {:>14} {:>15}",
        "spec", "analyze", "normalize", "ratio", "analyze fuel", "normalize fuel"
    );
    for (name, dtd, sigma) in &specs {
        let a = analyze(dtd, sigma, &AnalyzeOptions::default()).expect("analysis succeeds");
        let (r, ticks) = normalize_metered(dtd, sigma);
        assert_eq!(
            a.plan, r.steps,
            "{name}: analyze's plan is the normalize trace"
        );
        assert_eq!(
            a.cost.predicted_fuel, ticks,
            "{name}: predicted_fuel is the governed normalize tick bill"
        );
        let run_analyze = || {
            analyze(dtd, sigma, &AnalyzeOptions::default()).expect("analysis succeeds");
        };
        let run_normalize = || {
            normalize_metered(dtd, sigma);
        };
        let one = per_call(1, &run_analyze).max(Duration::from_micros(1));
        let reps = (Duration::from_millis(10).as_nanos() / one.as_nanos()).clamp(1, 10_000) as u32;
        let (mut ta, mut tn) = (Vec::new(), Vec::new());
        for _ in 0..SAMPLES {
            ta.push(per_call(reps, &run_analyze));
            tn.push(per_call(reps, &run_normalize));
        }
        let (ta, tn) = (median(ta), median(tn));
        println!(
            "{name:<18} {:>12.3?} {:>12.3?} {:>8.2}x {:>14} {:>15}",
            ta,
            tn,
            ta.as_secs_f64() / tn.as_secs_f64(),
            a.cost.analyze_fuel,
            ticks
        );
    }
    println!(
        "acceptance: per spec, analyze's plan equals normalize's and its predicted_fuel equals \
         the governed normalize tick bill (see EXPERIMENTS.md E22)"
    );
}

fn e23(budget: &Budget) {
    use xnf_core::{compile_schema, shred_document, unshred_document};
    println!("================ E23 — relational shredding: throughput & BCNF ================");
    // Side A: the anomalous-vs-normalized schema comparison. The paper's
    // two flagship redundancies surface as non-BCNF tables on the input
    // schema; after the Figure-4 normalization the same compiler emits
    // an all-BCNF design (Proposition 4's correspondence, end to end).
    for name in ["university", "dblp"] {
        let base = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs");
        let dtd = xnf_dtd::parse_dtd(
            &std::fs::read_to_string(format!("{base}/{name}.dtd")).expect("spec DTD exists"),
        )
        .expect("spec DTD parses");
        let sigma = XmlFdSet::parse(
            &std::fs::read_to_string(format!("{base}/{name}.fds")).expect("spec FDs exist"),
        )
        .expect("spec FDs parse");
        let anomalous = compile_schema(&dtd, &sigma, budget).expect("input schema compiles");
        let violations = anomalous.non_bcnf_tables();
        assert!(
            !violations.is_empty(),
            "{name}: the anomalous input spec must have a non-BCNF table"
        );
        let result = normalize(&dtd, &sigma, &NormalizeOptions::default()).expect("normalizes");
        let normalized =
            compile_schema(&result.dtd, &result.sigma, budget).expect("output schema compiles");
        assert!(
            normalized.non_bcnf_tables().is_empty(),
            "{name}: the normalized output schema must be all-BCNF"
        );
        println!(
            "  {name:<10}: input {} table(s), {} non-BCNF ({}); normalized {} table(s), 0 non-BCNF",
            anomalous.num_tables(),
            violations.len(),
            violations
                .iter()
                .map(|(ix, t, fd)| format!(
                    "{t}: {}",
                    anomalous
                        .violation_as_xml_fd(*ix, fd)
                        .map_or_else(|| fd.to_string(), |x| x.to_string())
                ))
                .collect::<Vec<_>>()
                .join("; "),
            normalized.num_tables(),
        );
    }

    // Side B: shred → rebuild throughput on generated Σ-satisfying
    // university documents, round trip asserted on every one.
    let (dtd, _, sigma) = university();
    let schema = compile_schema(&dtd, &sigma, budget).expect("schema compiles");
    let docs: Vec<xnf_xml::XmlTree> = (0..50)
        .map(|i| xnf_gen::doc::university_document(4, 5, 12, 4 + i % 3))
        .collect();
    let t0 = std::time::Instant::now();
    let mut rows_total = 0usize;
    for doc in &docs {
        let rows = shred_document(&schema, doc, budget).expect("document shreds");
        rows_total += rows.row_count();
        let rebuilt = unshred_document(&schema, &rows, budget).expect("rows rebuild");
        assert!(
            xnf_xml::ordered_eq(doc, &rebuilt),
            "the shred round trip must be the identity"
        );
    }
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "  throughput: {} documents, {rows_total} rows shredded + rebuilt in {:.1} ms  ({:.0} rows/s, round trip exact)",
        docs.len(),
        secs * 1e3,
        rows_total as f64 / secs
    );
    println!("acceptance: anomalies visible as non-BCNF tables, normalized schemas all-BCNF, every round trip exact (see EXPERIMENTS.md E23)");
}

/// E24's tiny HTTP client: one POST, returns (status, latency).
fn e24_post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, std::time::Duration) {
    use std::io::{Read as _, Write as _};
    let t0 = std::time::Instant::now();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to server");
    stream
        .write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read full response");
    let status: u16 = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|s| s.parse().ok())
        .expect("well-formed status line");
    (status, t0.elapsed())
}

/// A university-spec variant with all element names suffixed, so each
/// index is a distinct canonical spec (cache and estimate-book miss).
fn e24_variant(i: usize) -> String {
    let base = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/specs");
    let dtd = std::fs::read_to_string(format!("{base}/university.dtd")).expect("spec DTD exists");
    let fds = std::fs::read_to_string(format!("{base}/university.fds")).expect("spec FDs exist");
    let tag = format!("courses{i}");
    let mut body = String::from("{\"dtd\":");
    xnf_serve::json::write_str(&mut body, &dtd.replace("courses", &tag));
    body.push_str(",\"fds\":");
    xnf_serve::json::write_str(&mut body, &fds.replace("courses", &tag));
    body.push('}');
    body
}

fn e24() {
    use xnf_serve::{ServeConfig, Server};
    println!(
        "================ E24 — service under load: latency, shedding, caching ================"
    );

    // Phase 1 — steady mixed load within capacity: 8 clients, 96
    // requests over 12 distinct specs (each hit 8 times), so both the
    // miss path and the single-flight/cache path are measured.
    let server = Server::spawn(ServeConfig {
        threads: 4,
        queue_depth: 256,
        ..ServeConfig::default()
    })
    .expect("spawn phase-1 server");
    let addr = server.addr();
    let mut clients = Vec::new();
    for c in 0..8usize {
        clients.push(std::thread::spawn(move || {
            for r in 0..12usize {
                let body = e24_variant(r);
                let path = if (c + r) % 2 == 0 {
                    "/v1/is-xnf"
                } else {
                    "/v1/normalize"
                };
                let (status, _) = e24_post(addr, path, &body);
                assert_eq!(status, 200, "phase 1 must stay within capacity");
            }
        }));
    }
    for c in clients {
        c.join().expect("phase-1 client");
    }
    let stats = server.cache_stats();
    let queries = stats.hits + stats.joined + stats.misses;
    let hit_rate = if queries == 0 {
        0.0
    } else {
        100.0 * (stats.hits + stats.joined) as f64 / queries as f64
    };
    let (p50, p99) = server
        .recorder()
        .histograms()
        .into_iter()
        .find(|(name, _)| *name == "serve.request.micros")
        .map(|(_, h)| (h.quantile(0.5).unwrap_or(0), h.quantile(0.99).unwrap_or(0)))
        .expect("request histogram recorded");
    println!(
        "  phase 1 (steady): 96 requests, p50 ≤ {p50} µs, p99 ≤ {p99} µs (power-of-two bucket bounds)"
    );
    println!(
        "  cache: {} hits + {} joined / {queries} lookups ({hit_rate:.0}% served without recompute), {} evictions",
        stats.hits, stats.joined, stats.evictions
    );
    assert!(
        stats.hits + stats.joined > 0,
        "repeated specs must land on the shared cache"
    );
    server.shutdown();

    // Phase 2 — overload: a queue of 2 and a near-zero fuel watermark
    // against 24 concurrent clients. The service must shed (429), keep
    // serving (some 200s), and keep latency bounded — degradation, not
    // collapse.
    let server = Server::spawn(ServeConfig {
        threads: 2,
        queue_depth: 2,
        fuel_watermark: 1,
        ..ServeConfig::default()
    })
    .expect("spawn phase-2 server");
    let addr = server.addr();
    let mut clients = Vec::new();
    for c in 0..24usize {
        clients.push(std::thread::spawn(move || {
            let mut outcomes = Vec::new();
            for r in 0..4usize {
                let body = e24_variant(100 + (c * 4 + r) % 16);
                let (status, latency) = e24_post(addr, "/v1/normalize", &body);
                outcomes.push((status, latency));
            }
            outcomes
        }));
    }
    let mut latencies = Vec::new();
    let (mut ok, mut shed, mut other) = (0usize, 0usize, 0usize);
    for c in clients {
        for (status, latency) in c.join().expect("phase-2 client") {
            latencies.push(latency);
            match status {
                200 => ok += 1,
                429 => shed += 1,
                _ => other += 1,
            }
        }
    }
    latencies.sort();
    let total = latencies.len();
    let p99_wall = latencies[(total * 99 / 100).min(total - 1)];
    let shed_rate = 100.0 * shed as f64 / total as f64;
    println!(
        "  phase 2 (overload): {total} requests → {ok} served, {shed} shed with Retry-After ({shed_rate:.0}%), {other} other"
    );
    println!(
        "  phase 2 client-side p99: {:.1} ms (bounded — shedding, not queue collapse)",
        p99_wall.as_secs_f64() * 1e3
    );
    assert!(shed > 0, "overload must shed some load (shed rate > 0)");
    assert!(
        ok > 0,
        "overload must not collapse into shedding everything"
    );
    assert!(
        p99_wall < std::time::Duration::from_secs(10),
        "p99 under overload must stay bounded"
    );
    server.shutdown();
    println!("acceptance: steady-state served from cache with bucketed p50/p99 reported; overload degrades by shedding 429s while still serving and holding p99 bounded (see EXPERIMENTS.md E24)");
}

/// E25's HTTP client: one POST, returns (status, body) — the body is
/// compared byte-for-byte between the traced and untraced servers.
fn e25_post(addr: std::net::SocketAddr, path: &str, body: &str) -> (u16, String) {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect to server");
    stream
        .write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .expect("send request");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("read full response");
    let status: u16 = response
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|s| s.parse().ok())
        .expect("well-formed status line");
    let payload = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

fn e25() {
    use std::time::{Duration, Instant};
    use xnf_serve::{ServeConfig, Server};
    println!("================ E25 — request observability overhead ================");
    // Two otherwise-identical servers: one with full per-request
    // observability (per-request recorder, absorb-on-completion, flight
    // ring, labeled latency histograms, access-log formatting skipped —
    // no file configured), one with `--no-request-obs`. The workload is
    // steady-state cache-hit traffic: the compute path is identical and
    // near-free, so the measured difference is the per-request
    // observability machinery itself — the most adverse realistic case.
    let traced = Server::spawn(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    })
    .expect("spawn traced server");
    let untraced = Server::spawn(ServeConfig {
        threads: 2,
        request_recording: false,
        ..ServeConfig::default()
    })
    .expect("spawn untraced server");
    const SPECS: usize = 6;
    let bodies: Vec<String> = (0..SPECS).map(e24_variant).collect();
    // Warm both caches and pin byte-identity: with and without request
    // recording, every response body must match exactly.
    for (r, body) in bodies.iter().enumerate() {
        for path in ["/v1/is-xnf", "/v1/normalize"] {
            let (st_t, body_t) = e25_post(traced.addr(), path, body);
            let (st_u, body_u) = e25_post(untraced.addr(), path, body);
            assert_eq!((st_t, st_u), (200, 200), "warmup spec {r} on {path}");
            assert_eq!(
                body_t, body_u,
                "spec {r} on {path}: traced and untraced responses must be byte-identical"
            );
        }
    }
    // Interleaved median-of-N rounds, as in E19: each round times one
    // batch against each server back to back, cancelling load drift;
    // the median shrugs off preempted rounds.
    const BATCH: usize = 24;
    const ROUNDS: usize = 80;
    let run_batch = |addr: std::net::SocketAddr| {
        for i in 0..BATCH {
            let (status, _) = e24_post(addr, "/v1/is-xnf", &bodies[i % SPECS]);
            assert_eq!(status, 200, "steady-state batch must hit the cache");
        }
    };
    let mut times: [Vec<Duration>; 2] = [const { Vec::new() }; 2];
    for _ in 0..3 {
        run_batch(traced.addr());
        run_batch(untraced.addr());
    }
    for _ in 0..ROUNDS {
        for (slot, addr) in times.iter_mut().zip([traced.addr(), untraced.addr()]) {
            let t0 = Instant::now();
            run_batch(addr);
            slot.push(t0.elapsed());
        }
    }
    let median = |series: &mut Vec<Duration>| {
        series.sort_unstable();
        series[series.len() / 2]
    };
    let [on, off] = times.each_mut().map(median);
    let pct = (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0;
    let retained = traced.flight().retained();
    println!(
        "workload: cache-hit is-xnf over {SPECS} specs, batches of {BATCH} (median of {ROUNDS} interleaved rounds)"
    );
    println!("  request obs disabled : {off:>12.3?}");
    println!("  request obs enabled  : {on:>12.3?}  ({pct:+.2}% vs disabled)");
    println!(
        "  flight ring after the sweep: {retained} retained, {} sampled out, {} evicted",
        traced.flight().sampled_out(),
        traced.flight().evicted()
    );
    assert!(
        retained > 0,
        "the traced server must retain a sample of the boring 200s"
    );
    traced.shutdown();
    untraced.shutdown();
    println!("acceptance: enabled < +10% vs disabled, responses byte-identical either way (see EXPERIMENTS.md E25)");
}

/// Builds the BENCH_obs counter snapshot for one experiment: the
/// recorder's named counters plus per-site checkpoint visit tallies
/// (names never collide — counters are plural, sites singular).
fn snapshot(recorder: &Recorder) -> xnf_obs::CounterSnapshot {
    let mut s = xnf_obs::CounterSnapshot::default();
    for (name, value) in recorder.counters() {
        s.record(name, value);
    }
    for (site, tally) in recorder.sites() {
        s.record(site, tally.visits);
    }
    s
}

/// One dispatchable experiment: its id and entry point.
type Experiment = (&'static str, fn(&Budget));

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    // Every experiment takes the run's recorder-enabled budget; the
    // self-timing ones (e18, e19, e20, e22, e24, e25) ignore it and manage
    // their own, and fig2, fig3 and fig5 run no engine at all.
    let experiments: Vec<Experiment> = vec![
        ("fig1", fig1),
        ("fig2", |_| fig2()),
        ("fig3", |_| fig3()),
        ("fig4", fig4),
        ("fig5", |_| fig5()),
        ("e17", e17),
        ("e18", |_| e18()),
        ("e19", |_| e19()),
        ("e20", |_| e20()),
        ("e22", |_| e22()),
        ("e23", e23),
        ("e24", |_| e24()),
        ("e25", |_| e25()),
    ];
    let selected: Vec<&Experiment> = if arg == "all" {
        experiments.iter().collect()
    } else {
        let Some(exp) = experiments.iter().find(|(id, _)| *id == arg) else {
            let ids: Vec<&str> = experiments.iter().map(|(id, _)| *id).collect();
            eprintln!("unknown figure `{arg}`; use {}, or all", ids.join(", "));
            std::process::exit(1);
        };
        vec![exp]
    };
    let mut records = Vec::new();
    for (i, (id, f)) in selected.iter().enumerate() {
        if i > 0 {
            println!();
        }
        let recorder = Recorder::enabled();
        let budget = Budget::builder().recorder(recorder.clone()).build();
        let t0 = std::time::Instant::now();
        f(&budget);
        records.push(ExperimentRecord {
            id: (*id).to_string(),
            wall_micros: u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX),
            spans_dropped: recorder.spans_dropped(),
            counters: snapshot(&recorder),
        });
    }
    let json = obs_report::render(&obs_report::git_sha(), &records);
    obs_report::check_schema(&json).expect("rendered BENCH_obs.json passes its own schema");
    match std::fs::write("BENCH_obs.json", &json) {
        Ok(()) => println!(
            "\nwrote BENCH_obs.json ({} experiment record(s))",
            records.len()
        ),
        Err(e) => eprintln!("\ncould not write BENCH_obs.json: {e}"),
    }
}
