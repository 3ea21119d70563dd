//! Criterion benches for the experiment index of DESIGN.md (E1–E12).
//!
//! The paper has no wall-clock tables — its "evaluation" is worked
//! examples plus complexity theorems. These benches measure the *shapes*
//! those theorems predict: near-quadratic implication on simple DTDs
//! (Theorem 3, E8), polynomial behaviour on log-bounded disjunctive DTDs
//! (Theorem 4, E9), exponential exhaustive search vs the polynomial chase
//! (Theorem 5, E10), polynomial XNF testing (Corollary 1, E11), and the
//! costs of the constructive machinery on the paper's own workloads
//! (E1–E7, E12). `EXPERIMENTS.md` records the measured numbers.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use xnf_core::implication::{CounterexampleSearch, Implication};
use xnf_core::lossless::verify_lossless;
use xnf_core::{
    is_xnf, normalize, tuples_d, tuples_relation, Chase, NormalizeOptions, XmlFd, XmlFdSet,
};
use xnf_dtd::classify::DtdShapes;
use xnf_dtd::Dtd;
use xnf_gen::doc::{dblp_document, university_document};
use xnf_gen::dtd::{chain_dtd, disjunctive_dtd, simple_dtd, SimpleDtdParams};
use xnf_gen::fd::{random_fds, FdParams};

fn university_dtd() -> Dtd {
    xnf_dtd::parse_dtd(
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
    .expect("university DTD parses")
}

fn dblp_dtd() -> Dtd {
    xnf_dtd::parse_dtd(
        "<!ELEMENT db (conf*)>
         <!ELEMENT conf (title, issue+)>
         <!ELEMENT title (#PCDATA)>
         <!ELEMENT issue (inproceedings+)>
         <!ELEMENT inproceedings (author+, title, booktitle)>
         <!ATTLIST inproceedings key CDATA #REQUIRED pages CDATA #REQUIRED year CDATA #REQUIRED>
         <!ELEMENT author (#PCDATA)>
         <!ELEMENT booktitle (#PCDATA)>",
    )
    .expect("DBLP DTD parses")
}

/// E1 — the university pipeline: XNF check + full normalization.
fn exp1_university(c: &mut Criterion) {
    let dtd = university_dtd();
    let sigma = XmlFdSet::parse(xnf_core::fd::UNIVERSITY_FDS).unwrap();
    c.bench_function("exp1_university/is_xnf", |b| {
        b.iter(|| is_xnf(black_box(&dtd), black_box(&sigma)).unwrap())
    });
    c.bench_function("exp1_university/normalize", |b| {
        b.iter(|| {
            normalize(
                black_box(&dtd),
                black_box(&sigma),
                &NormalizeOptions::default(),
            )
            .unwrap()
        })
    });
}

/// E2 — tree-tuple extraction on scaled Figure 1(a) documents.
fn exp2_tree_tuples(c: &mut Criterion) {
    let dtd = university_dtd();
    let paths = dtd.paths().unwrap();
    let mut group = c.benchmark_group("exp2_tree_tuples");
    for courses in [4usize, 16, 64] {
        let doc = university_document(courses, 4, 8, 3);
        group.bench_with_input(BenchmarkId::new("tuples_d", courses), &doc, |b, doc| {
            b.iter(|| tuples_d(black_box(doc), &dtd, &paths).unwrap().len())
        });
        group.bench_with_input(
            BenchmarkId::new("roundtrip_trees_d", courses),
            &doc,
            |b, doc| {
                let tuples = tuples_d(doc, &dtd, &paths).unwrap();
                b.iter(|| {
                    xnf_core::trees_d(black_box(&tuples), &paths)
                        .unwrap()
                        .num_nodes()
                })
            },
        );
    }
    group.finish();
}

/// E3 — nested-relation coding and NNF⇔XNF agreement at growing depth.
fn exp3_nested(c: &mut Criterion) {
    let mut group = c.benchmark_group("exp3_nested");
    for depth in [3usize, 6, 9] {
        let schema = xnf_gen::rel::chain_nested(depth);
        let flat = schema.unnested_schema().unwrap();
        let fds = xnf_gen::rel::chain_nested_bad_fd(&schema, depth);
        group.bench_with_input(BenchmarkId::new("nnf_vs_xnf", depth), &depth, |b, _| {
            b.iter(|| {
                let nnf = xnf_relational::nested::is_nnf(&schema, &flat, &fds).unwrap();
                let dtd = xnf_core::encode::nested_to_dtd(&schema).unwrap();
                let sigma = xnf_core::encode::nested_fds_to_xml(&schema, &flat, &fds).unwrap();
                let xnf = is_xnf(&dtd, &sigma).unwrap();
                assert_eq!(nnf, xnf);
                (nnf, xnf)
            })
        });
    }
    group.finish();
}

/// E4 — decomposition cost as the number of planted anomalies grows.
fn exp4_normalize(c: &mut Criterion) {
    let mut group = c.benchmark_group("exp4_normalize");
    for anomalies in [1usize, 2, 4] {
        // A wide DTD with one anomalous FD per hub: idᵢ → valᵢ.
        let dtd = xnf_gen::dtd::wide_dtd(anomalies);
        let fd_text: String = (0..anomalies)
            .map(|i| format!("root.hub{i}.item{i}.@id{i} -> root.hub{i}.item{i}.@val{i}\n"))
            .collect();
        let sigma = XmlFdSet::parse(&fd_text).unwrap();
        assert!(!is_xnf(&dtd, &sigma).unwrap());
        group.bench_with_input(
            BenchmarkId::from_parameter(anomalies),
            &sigma,
            |b, sigma| {
                b.iter(|| {
                    let r = normalize(&dtd, sigma, &NormalizeOptions::default()).unwrap();
                    assert_eq!(*r.ap_trace.last().unwrap(), 0);
                    r.steps.len()
                })
            },
        );
    }
    group.finish();
}

/// E5 — classification (simple/disjunctive, N_D) of the ebXML fragment.
fn exp5_ebxml(c: &mut Criterion) {
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
    .unwrap();
    c.bench_function("exp5_ebxml/classify", |b| {
        b.iter(|| {
            let shapes = DtdShapes::analyze(black_box(&dtd));
            assert!(shapes.is_simple());
        })
    });
}

/// E6 — the DBLP pipeline: normalization + document transformation.
fn exp6_dblp(c: &mut Criterion) {
    let dtd = dblp_dtd();
    let sigma = XmlFdSet::parse(xnf_core::fd::DBLP_FDS).unwrap();
    let result = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
    let mut group = c.benchmark_group("exp6_dblp");
    group.bench_function("normalize", |b| {
        b.iter(|| {
            normalize(&dtd, &sigma, &NormalizeOptions::default())
                .unwrap()
                .steps
                .len()
        })
    });
    for confs in [2usize, 8] {
        let doc = dblp_document(confs, 3, 4);
        group.bench_with_input(
            BenchmarkId::new("verify_lossless", confs),
            &doc,
            |b, doc| b.iter(|| verify_lossless(&dtd, &result, black_box(doc)).unwrap().ok()),
        );
    }
    group.finish();
}

/// E7 — Proposition 4: BCNF test vs XNF test on coded relational schemas.
fn exp7_bcnf_xnf(c: &mut Criterion) {
    let mut group = c.benchmark_group("exp7_bcnf_xnf");
    for arity in [3usize, 5, 8] {
        let mut rng = xnf_gen::rng(7);
        let (schema, fds) = xnf_gen::rel::random_relational(&mut rng, arity, arity - 1);
        let dtd = xnf_core::encode::relational_to_dtd(&schema).unwrap();
        let sigma = xnf_core::encode::relational_fds_to_xml(&schema, &fds).unwrap();
        group.bench_with_input(BenchmarkId::new("bcnf", arity), &arity, |b, _| {
            b.iter(|| xnf_relational::bcnf::is_bcnf(black_box(&fds), schema.all()))
        });
        group.bench_with_input(BenchmarkId::new("xnf_of_coding", arity), &arity, |b, _| {
            b.iter(|| is_xnf(black_box(&dtd), black_box(&sigma)).unwrap())
        });
    }
    group.finish();
}

/// E8 — Theorem 3: implication on simple DTDs is polynomial
/// (near-quadratic). The workload is an FD value chain
/// `@b₀ → @b₁ → … → @b_{n-1}` on the attributes of a starred element:
/// deciding `@b₀ → @b_{n-1}` makes the chase fire the FDs one round at a
/// time, re-scanning Σ between rounds — `O(n)` rounds × `O(n)` scan, the
/// quadratic Horn-closure shape of the paper's Theorem 3 algorithm.
fn exp8_implication_simple(c: &mut Criterion) {
    let mut group = c.benchmark_group("exp8_implication_simple");
    for n in [8usize, 16, 32, 64] {
        let dtd = chain_dtd(2, n); // l0 = (l1*), n attributes per level
        let paths = dtd.paths().unwrap();
        let sigma_text: String = (0..n - 1)
            .map(|i| format!("l0.l1.@a1_{i} -> l0.l1.@a1_{}\n", i + 1))
            .collect();
        let sigma = XmlFdSet::parse(&sigma_text)
            .unwrap()
            .resolve(&paths)
            .unwrap();
        // Implied: the whole chain must fire.
        let implied_fd = XmlFd::parse(&format!("l0.l1.@a1_0 -> l0.l1.@a1_{}", n - 1))
            .unwrap()
            .resolve(&paths)
            .unwrap();
        // Refuted: attribute values do not determine the (starred) node.
        let refuted_fd = XmlFd::parse("l0.l1.@a1_0 -> l0.l1")
            .unwrap()
            .resolve(&paths)
            .unwrap();
        let chase = Chase::new(&dtd, &paths);
        assert!(chase.implies(&sigma, &implied_fd));
        assert!(!chase.implies(&sigma, &refuted_fd));
        group.bench_with_input(
            BenchmarkId::new("implied_chain", n),
            &implied_fd,
            |b, fd| b.iter(|| chase.implies(black_box(&sigma), black_box(fd))),
        );
        group.bench_with_input(BenchmarkId::new("refuted", n), &refuted_fd, |b, fd| {
            b.iter(|| chase.implies(black_box(&sigma), black_box(fd)))
        });
    }
    group.finish();
}

/// E9 — Theorem 4: disjunctive DTDs with few unrestricted disjunctions
/// stay fast for the chase.
fn exp9_disjunctive(c: &mut Criterion) {
    let mut group = c.benchmark_group("exp9_disjunctive");
    for disjunctions in [1usize, 2, 4] {
        let mut rng = xnf_gen::rng(11);
        let dtd = disjunctive_dtd(
            &mut rng,
            &SimpleDtdParams {
                elements: 12,
                ..SimpleDtdParams::default()
            },
            disjunctions,
            3,
        );
        let paths = dtd.paths().unwrap();
        let sigma = random_fds(
            &dtd,
            &mut rng,
            &FdParams {
                count: 4,
                max_lhs: 2,
            },
        )
        .resolve(&paths)
        .unwrap();
        let candidates: Vec<_> = random_fds(
            &dtd,
            &mut rng,
            &FdParams {
                count: 4,
                max_lhs: 2,
            },
        )
        .resolve(&paths)
        .unwrap();
        group.bench_with_input(
            BenchmarkId::from_parameter(disjunctions),
            &candidates,
            |b, candidates| {
                let chase = Chase::new(&dtd, &paths);
                b.iter(|| {
                    candidates
                        .iter()
                        .filter(|fd| chase.implies(&sigma, fd))
                        .count()
                })
            },
        );
    }
    group.finish();
}

/// E10 — Theorem 5: certifying an implication without the chase's
/// completeness rules means exhausting the space of exclusive-disjunction
/// choices — exponential in the number of disjunctions (what `N_D`
/// measures) — while the full chase stays polynomial. The query is the
/// swap-rule FD `{@a} → e1` under `Σ = {e2, @a} → e1` (implied; the
/// ablated chase cannot prove it), and each extra `(x|y|z)` group under
/// the root multiplies the candidate space by 9 (3 choices × 2 sides).
fn exp10_conp(c: &mut Criterion) {
    use xnf_core::ChaseConfig;
    let mut group = c.benchmark_group("exp10_conp");
    group.sample_size(10);
    for groups in [0usize, 1, 2, 3] {
        let mut decls = String::from("<!ELEMENT e0 (e1*, e2+");
        for g in 0..groups {
            decls.push_str(&format!(", (x{g} | y{g} | z{g})"));
        }
        decls.push_str(")>\n<!ATTLIST e0 a CDATA #REQUIRED>\n                        <!ELEMENT e1 (#PCDATA)>\n<!ELEMENT e2 (#PCDATA)>\n");
        for g in 0..groups {
            decls.push_str(&format!(
                "<!ELEMENT x{g} EMPTY>\n<!ELEMENT y{g} EMPTY>\n<!ELEMENT z{g} EMPTY>\n"
            ));
        }
        let dtd = xnf_dtd::parse_dtd(&decls).unwrap();
        let paths = dtd.paths().unwrap();
        let sigma = XmlFdSet::parse("e0.e2, e0.@a -> e0.e1")
            .unwrap()
            .resolve(&paths)
            .unwrap();
        let fd = XmlFd::parse("e0.@a -> e0.e1")
            .unwrap()
            .resolve(&paths)
            .unwrap();
        // Ground truth: the full chase proves the implication.
        let full = Chase::new(&dtd, &paths);
        assert!(full.implies(&sigma, &fd));
        group.bench_with_input(BenchmarkId::new("chase_full", groups), &fd, |b, fd| {
            b.iter(|| assert!(full.implies(black_box(&sigma), black_box(fd))))
        });
        // The ablated pipeline must exhaust all disjunction combinations
        // before it can report "no counterexample found".
        let minimal = CounterexampleSearch::with_config(
            &dtd,
            &paths,
            ChaseConfig {
                swap_rule: false,
                contrapositive_rule: false,
                split_budget: 0,
            },
        );
        group.bench_with_input(
            BenchmarkId::new("exhaustive_ablated", groups),
            &fd,
            |b, fd| {
                b.iter(|| {
                    assert!(minimal
                        .find_exhaustive(black_box(&sigma), black_box(fd), 1 << 20)
                        .is_none())
                })
            },
        );
    }
    group.finish();
}

/// E11 — Corollary 1: XNF testing scales polynomially on simple DTDs.
fn exp11_xnf_check(c: &mut Criterion) {
    let mut group = c.benchmark_group("exp11_xnf_check");
    for elements in [8usize, 16, 32, 64] {
        let mut rng = xnf_gen::rng(17);
        let dtd = simple_dtd(
            &mut rng,
            &SimpleDtdParams {
                elements,
                ..SimpleDtdParams::default()
            },
        );
        let sigma = random_fds(
            &dtd,
            &mut rng,
            &FdParams {
                count: 6,
                max_lhs: 2,
            },
        );
        let size = dtd.size();
        group.bench_with_input(BenchmarkId::from_parameter(size), &sigma, |b, sigma| {
            b.iter(|| is_xnf(black_box(&dtd), black_box(sigma)).unwrap())
        });
    }
    group.finish();
}

/// E12 — losslessness verification on the university pipeline, scaling
/// with document size.
fn exp12_lossless(c: &mut Criterion) {
    let dtd = university_dtd();
    let sigma = XmlFdSet::parse(xnf_core::fd::UNIVERSITY_FDS).unwrap();
    let result = normalize(&dtd, &sigma, &NormalizeOptions::default()).unwrap();
    let mut group = c.benchmark_group("exp12_lossless");
    for courses in [4usize, 16, 48] {
        let doc = university_document(courses, 4, 10, 4);
        group.bench_with_input(BenchmarkId::from_parameter(courses), &doc, |b, doc| {
            b.iter(|| {
                let report = verify_lossless(&dtd, &result, black_box(doc)).unwrap();
                assert!(report.ok());
            })
        });
        // The Q₂-style tuples projection used by the diagram check.
        let paths = dtd.paths().unwrap();
        group.bench_with_input(
            BenchmarkId::new("tuples_relation", courses),
            &doc,
            |b, doc| b.iter(|| tuples_relation(black_box(doc), &dtd, &paths).unwrap().len()),
        );
    }
    group.finish();
}

/// E13 case (a): DTD, Σ and φ of an implication only the swap rule
/// proves (a copy of the chase tests' `ablation_rules_are_load_bearing`).
const SWAP_CASE: [&str; 3] = [
    "<!ELEMENT e0 (e1*, e2+)>
     <!ATTLIST e0 a0_0 CDATA #REQUIRED>
     <!ELEMENT e1 (#PCDATA)> <!ELEMENT e2 (#PCDATA)>",
    "e0.e2, e0.@a0_0 -> e0.e1",
    "e0.@a0_0 -> e0.e1",
];

/// E13 case (b): an implication only the contrapositive rule proves once
/// case splits are off.
const CONTRAPOSITIVE_CASE: [&str; 3] = [
    "<!ELEMENT e0 (e1*, e2+)>
     <!ELEMENT e1 (d0 | d1)>
     <!ATTLIST e1 a CDATA #REQUIRED>
     <!ELEMENT e2 EMPTY>
     <!ELEMENT d0 EMPTY> <!ATTLIST d0 v CDATA #REQUIRED>
     <!ELEMENT d1 EMPTY> <!ATTLIST d1 w CDATA #REQUIRED>",
    "e0.e1.d0.@v -> e0.e2
     e0.e1.d1.@w, e0.e1.@a -> e0.e2
     e0.e1.@a -> e0.e1.d0.@v",
    "e0.e1.@a -> e0.e2",
];

/// E13 case (c): an implication only a presence split on a disjunction
/// proves.
const SPLIT_CASE: [&str; 3] = [
    "<!ELEMENT e0 (e1+, e4+)>
     <!ELEMENT e1 (e2?, e3)>
     <!ELEMENT e2 EMPTY> <!ATTLIST e2 a CDATA #REQUIRED>
     <!ELEMENT e3 (e6*)>
     <!ELEMENT e4 (d0 | d1)>
     <!ELEMENT e6 (#PCDATA)>
     <!ELEMENT d0 EMPTY> <!ELEMENT d1 EMPTY>",
    "e0.e4.d0 -> e0.e1.e2.@a; e0.e4.d1 -> e0.e1.e3",
    "e0.e1.e3.e6.S -> e0.e1.e2.@a",
];

/// E13 — ablation: the chase with each completeness rule disabled. On the
/// randomized corpus no configuration implies any query, so those rows
/// price the rules alone. Each hand-built case is implied with its rule on
/// and not implied with it off (asserted before timing), so its two rows
/// price a rule that changes a verdict.
fn exp13_ablation(c: &mut Criterion) {
    use xnf_core::ChaseConfig;
    let mut rng = xnf_gen::rng(23);
    let dtd = simple_dtd(
        &mut rng,
        &SimpleDtdParams {
            elements: 12,
            ..SimpleDtdParams::default()
        },
    );
    let paths = dtd.paths().unwrap();
    let sigma = random_fds(
        &dtd,
        &mut rng,
        &FdParams {
            count: 4,
            max_lhs: 2,
        },
    )
    .resolve(&paths)
    .unwrap();
    let candidates: Vec<_> = random_fds(
        &dtd,
        &mut rng,
        &FdParams {
            count: 8,
            max_lhs: 2,
        },
    )
    .resolve(&paths)
    .unwrap();
    let mut group = c.benchmark_group("exp13_ablation");
    for (name, cfg) in [
        ("full", ChaseConfig::default()),
        (
            "no_swap",
            ChaseConfig {
                swap_rule: false,
                ..ChaseConfig::default()
            },
        ),
        (
            "no_contrapositive",
            ChaseConfig {
                contrapositive_rule: false,
                ..ChaseConfig::default()
            },
        ),
        (
            "no_split",
            ChaseConfig {
                split_budget: 0,
                ..ChaseConfig::default()
            },
        ),
        (
            "minimal",
            ChaseConfig {
                swap_rule: false,
                contrapositive_rule: false,
                split_budget: 0,
            },
        ),
    ] {
        group.bench_function(name, |b| {
            let chase = Chase::with_config(&dtd, &paths, cfg);
            b.iter(|| {
                candidates
                    .iter()
                    .filter(|fd| chase.implies(black_box(&sigma), fd))
                    .count()
            })
        });
    }
    let no_split = ChaseConfig {
        split_budget: 0,
        ..ChaseConfig::default()
    };
    for (case, [dtd, sigma, fd], with, without) in [
        (
            "swap_case",
            SWAP_CASE,
            ("full", ChaseConfig::default()),
            (
                "no_swap",
                ChaseConfig {
                    swap_rule: false,
                    ..ChaseConfig::default()
                },
            ),
        ),
        (
            "contrapositive_case",
            CONTRAPOSITIVE_CASE,
            ("no_split", no_split),
            (
                "no_split_no_contrapositive",
                ChaseConfig {
                    contrapositive_rule: false,
                    ..no_split
                },
            ),
        ),
        (
            "split_case",
            SPLIT_CASE,
            ("full", ChaseConfig::default()),
            ("no_split", no_split),
        ),
    ] {
        let dtd = xnf_dtd::parse_dtd(dtd).unwrap();
        let paths = dtd.paths().unwrap();
        let sigma = XmlFdSet::parse(sigma).unwrap().resolve(&paths).unwrap();
        let fd = XmlFd::parse(fd).unwrap().resolve(&paths).unwrap();
        for ((name, cfg), implied) in [(with, true), (without, false)] {
            let chase = Chase::with_config(&dtd, &paths, cfg);
            assert_eq!(
                chase.implies(&sigma, &fd),
                implied,
                "E13 {case} under {name}"
            );
            group.bench_function(format!("{case}/{name}"), |b| {
                b.iter(|| chase.implies(black_box(&sigma), &fd))
            });
        }
    }
    group.finish();
}

/// E14 — implementation choice: hash-grouped FD satisfaction vs the
/// pairwise Codd-table check, on growing tuple sets.
fn exp14_fd_check(c: &mut Criterion) {
    let dtd = university_dtd();
    let paths = dtd.paths().unwrap();
    let fd = XmlFd::parse(
        "courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S",
    )
    .unwrap();
    let resolved = fd.resolve(&paths).unwrap();
    let mut group = c.benchmark_group("exp14_fd_check");
    for courses in [8usize, 32, 128] {
        let doc = university_document(courses, 4, 16, 4);
        let tuples = tuples_d(&doc, &dtd, &paths).unwrap();
        let rel = tuples_relation(&doc, &dtd, &paths).unwrap();
        group.bench_with_input(
            BenchmarkId::new("hash_grouped", tuples.len()),
            &tuples,
            |b, tuples| b.iter(|| resolved.check_tuples(black_box(tuples))),
        );
        group.bench_with_input(
            BenchmarkId::new("codd_pairwise", rel.len()),
            &rel,
            |b, rel| {
                b.iter(|| {
                    rel.satisfies_fd(
                        &["courses.course.taken_by.student.@sno"],
                        &["courses.course.taken_by.student.name.S"],
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

/// E15 — the memoized implication engine: cached vs uncached
/// repeated-Σ query batteries on the E8 chain family.
fn exp15_implication_cache(c: &mut Criterion) {
    use xnf_core::fd::ResolvedFd;
    use xnf_core::ImplicationCache;

    let mut group = c.benchmark_group("implication_cache");

    // A repeated-Σ workload on the E8 chain family: the battery the
    // normalization loop actually issues (per-candidate node guards plus
    // triviality probes), asked REPEATS times against one fixed Σ — the
    // shape of the search → guard → minimize pipeline. Uncached pays a
    // chase run per query per repeat; cached pays one per *distinct*
    // query.
    const REPEATS: usize = 8;
    for n in [16usize, 32] {
        let dtd = chain_dtd(2, n);
        let paths = dtd.paths().unwrap();
        let sigma_text: String = (0..n - 1)
            .map(|i| format!("l0.l1.@a1_{i} -> l0.l1.@a1_{}\n", i + 1))
            .collect();
        let sigma = XmlFdSet::parse(&sigma_text)
            .unwrap()
            .resolve(&paths)
            .unwrap();
        let queries: Vec<ResolvedFd> = (1..n)
            .flat_map(|i| {
                [
                    XmlFd::parse(&format!("l0.l1.@a1_0 -> l0.l1.@a1_{i}")).unwrap(),
                    XmlFd::parse(&format!("l0.l1.@a1_{i} -> l0.l1")).unwrap(),
                ]
            })
            .map(|fd| fd.resolve(&paths).unwrap())
            .collect();
        group.bench_with_input(BenchmarkId::new("uncached", n), &queries, |b, qs| {
            b.iter(|| {
                let chase = Chase::new(&dtd, &paths);
                (0..REPEATS)
                    .map(|_| {
                        qs.iter()
                            .filter(|q| chase.implies(black_box(&sigma), q))
                            .count()
                    })
                    .sum::<usize>()
            })
        });
        group.bench_with_input(BenchmarkId::new("cached", n), &queries, |b, qs| {
            b.iter(|| {
                let chase = Chase::new(&dtd, &paths);
                let cache = ImplicationCache::new(&chase, &sigma);
                (0..REPEATS)
                    .map(|_| {
                        qs.iter()
                            .filter(|q| cache.implies(black_box(&sigma), q))
                            .count()
                    })
                    .sum::<usize>()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    exp1_university,
    exp2_tree_tuples,
    exp3_nested,
    exp4_normalize,
    exp5_ebxml,
    exp6_dblp,
    exp7_bcnf_xnf,
    exp8_implication_simple,
    exp9_disjunctive,
    exp10_conp,
    exp11_xnf_check,
    exp12_lossless,
    exp13_ablation,
    exp14_fd_check,
    exp15_implication_cache
);
criterion_main!(benches);
