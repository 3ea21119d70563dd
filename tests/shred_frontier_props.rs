//! The frontier of monotone verdicts against the exhaustive derivation.
//!
//! On a simple chase, `compile_schema` answers a table's left-hand sides
//! from the verdicts the chase already gave: a superset of an implied set
//! is implied, a subset of a refuted one refuted. This suite holds its
//! design equal to the one that asking the chase about every left-hand
//! side gives (`crates/core/src/shred/reference.rs`, included by path):
//! the same tables, the same per-table FD lists in the same order, the
//! same unique keys. Coverage:
//!
//! * generated simple specs, some with tables past
//!   `FD_ENUMERATION_WIDTH` candidate columns;
//! * generated disjunctive specs, where a reached exclusive group must
//!   send every left-hand side to the chase, at the reference's chase
//!   count;
//! * a table of 7 attributes, past the enumeration width;
//! * the paper specs and the oracle corpus.
//!
//! Debug builds also re-ask the chase about every verdict the frontier
//! infers (a `debug_assert!` in `shred.rs`). CI's `relational` job runs
//! this suite in release with `PROPTEST_CASES=5000`.

#[path = "../crates/core/src/shred/reference.rs"]
mod reference;

use proptest::prelude::*;
use std::path::PathBuf;
use xnf::core::fd::ResolvedFd;
use xnf::core::implication::{Chase, Implication, ImplicationCache};
use xnf::core::{compile_schema, Result, ShredSchema, XmlFdSet, FD_ENUMERATION_WIDTH};
use xnf::dtd::Dtd;
use xnf::relational::shred::{ColumnRole, RelDesign};
use xnf::relational::{AttrSet, Fd, FdSet};
use xnf_gen::dtd::{disjunctive_dtd, simple_dtd, SimpleDtdParams};
use xnf_gen::fd::{random_fds, FdParams};
use xnf_govern::{Budget, Recorder};

const PAPER_SPECS: [&str; 3] = ["university", "dblp", "ebxml"];
const CORPUS: &[u64] = &[3449, 5195, 6742, 11775, 12710, 17154, 19327, 19683];

fn read_rel(rel: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("reading {}: {e}", p.display()))
}

fn load_spec(dtd_rel: &str, fds_rel: &str) -> (Dtd, XmlFdSet) {
    let dtd = xnf::dtd::parse_dtd(&read_rel(dtd_rel)).unwrap();
    let sigma = XmlFdSet::parse(&read_rel(fds_rel)).unwrap();
    (dtd, sigma)
}

fn counting_budget() -> Budget {
    Budget::builder().recorder(Recorder::enabled()).build()
}

fn chase_runs(budget: &Budget) -> u64 {
    budget
        .recorder()
        .sites()
        .into_iter()
        .find(|&(site, _)| site == "chase.run")
        .map_or(0, |(_, tally)| tally.visits)
}

/// The two derivations of one spec: `(compile_schema's schema, its chase
/// runs, the reference design, the reference's chase runs)`.
fn both(dtd: &Dtd, sigma: &XmlFdSet) -> (ShredSchema, u64, RelDesign, u64) {
    let budget = counting_budget();
    let schema = compile_schema(dtd, sigma, &budget).expect("spec compiles");
    let runs = chase_runs(&budget);
    let budget = counting_budget();
    let design = reference::exhaustive_design(dtd, sigma, &schema, &budget).unwrap();
    (schema, runs, design, chase_runs(&budget))
}

/// Whether the chase over `dtd` reaches an exclusive-disjunction group,
/// which makes it split and keeps `compile_schema` on the exhaustive loop.
fn has_exclusive_group(dtd: &Dtd) -> bool {
    let paths = dtd.paths().unwrap();
    let chase = Chase::new(dtd, &paths);
    paths
        .iter()
        .any(|p| chase.structural_facts(p).group.is_some())
}

/// The most key-candidate columns (parent, attribute and text columns)
/// of any table of `schema`.
fn widest_table(schema: &ShredSchema) -> usize {
    (0..schema.num_tables())
        .map(|ix| {
            (1..schema.design.tables[ix].columns.len())
                .filter(|&c| schema.column_path(ix, c).is_some())
                .count()
        })
        .max()
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_simple_specs_derive_the_reference_design(
        seed in 0..u64::MAX,
        elements in 2..8usize,
        max_attrs in 0..9usize,
        fds in 0..5usize,
        max_lhs in 1..4usize,
    ) {
        let mut rng = xnf_gen::rng(seed);
        let dtd = simple_dtd(
            &mut rng,
            &SimpleDtdParams {
                elements,
                max_children: 3,
                max_attrs,
                text_leaf_prob: 0.4,
            },
        );
        let sigma = random_fds(&dtd, &mut rng, &FdParams { count: fds, max_lhs });
        let (schema, _, design, _) = both(&dtd, &sigma);
        prop_assert_eq!(schema.design, design);
    }

    #[test]
    fn generated_disjunctive_specs_derive_the_reference_design(
        seed in 0..u64::MAX,
        elements in 2..7usize,
        max_attrs in 0..4usize,
        fds in 0..5usize,
        group_size in 2..4usize,
    ) {
        let mut rng = xnf_gen::rng(seed);
        let params = SimpleDtdParams {
            elements,
            max_children: 3,
            max_attrs,
            text_leaf_prob: 0.4,
        };
        let dtd = disjunctive_dtd(&mut rng, &params, 1, group_size);
        let sigma = random_fds(&dtd, &mut rng, &FdParams { count: fds, max_lhs: 2 });
        let (schema, runs, design, reference_runs) = both(&dtd, &sigma);
        prop_assert_eq!(schema.design, design);
        if has_exclusive_group(&dtd) {
            prop_assert_eq!(runs, reference_runs);
        }
    }
}

/// Generated simple specs reach tables past the enumeration width, where
/// the left-hand sides are singletons, pairs and Σ's own sets.
#[test]
fn generated_specs_reach_past_the_enumeration_width() {
    let wide = (0..200u64).any(|seed| {
        let mut rng = xnf_gen::rng(seed);
        let dtd = simple_dtd(
            &mut rng,
            &SimpleDtdParams {
                elements: 4,
                max_children: 3,
                max_attrs: 8,
                text_leaf_prob: 0.4,
            },
        );
        let schema = compile_schema(&dtd, &XmlFdSet::new(), &Budget::unlimited()).unwrap();
        widest_table(&schema) > FD_ENUMERATION_WIDTH
    });
    assert!(
        wide,
        "no generated table is wider than the enumeration width"
    );
}

#[test]
fn a_table_of_seven_attributes_derives_the_reference_design() {
    let dtd = xnf::dtd::parse_dtd(
        "<!ELEMENT r (e*)>\n<!ELEMENT e EMPTY>\n\
         <!ATTLIST e a1 CDATA #REQUIRED a2 CDATA #REQUIRED a3 CDATA #REQUIRED \
         a4 CDATA #REQUIRED a5 CDATA #REQUIRED a6 CDATA #REQUIRED a7 CDATA #REQUIRED>",
    )
    .unwrap();
    let sigma = XmlFdSet::parse(
        "r.e.@a1, r.e.@a2, r.e.@a3 -> r.e\n\
         r.e.@a4 -> r.e.@a5\n\
         r.e.@a5, r.e.@a6 -> r.e.@a7",
    )
    .unwrap();
    let (schema, runs, design, reference_runs) = both(&dtd, &sigma);
    assert_eq!(widest_table(&schema), 8);
    assert_eq!(schema.design, design);
    let e = schema.design.table("e").unwrap();
    assert_eq!(e.unique_keys[0], ["a1", "a2", "a3"]);
    assert!(
        runs < reference_runs,
        "{runs} chase runs, the reference {reference_runs}"
    );
}

#[test]
fn paper_specs_and_the_corpus_derive_the_reference_design() {
    for name in PAPER_SPECS {
        let (dtd, sigma) = load_spec(
            &format!("examples/specs/{name}.dtd"),
            &format!("examples/specs/{name}.fds"),
        );
        let (schema, runs, design, reference_runs) = both(&dtd, &sigma);
        assert_eq!(schema.design, design, "{name}");
        assert!(!has_exclusive_group(&dtd), "{name} is simple");
        assert!(
            runs < reference_runs,
            "{name}: {runs} chase runs, the reference {reference_runs}"
        );
    }
    for seed in CORPUS {
        let (dtd, sigma) = load_spec(
            &format!("tests/oracle_corpus/seed-{seed}.dtd"),
            &format!("tests/oracle_corpus/seed-{seed}.fds"),
        );
        let (schema, _, design, _) = both(&dtd, &sigma);
        assert_eq!(schema.design, design, "corpus seed {seed}");
    }
}
