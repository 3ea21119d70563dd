//! Simple DTDs are decided by propagation alone (Theorem 3), certified on
//! the optional-over-starred shapes whose implications hinge on presence.
//!
//! On the presence-dichotomy specs (`xnf_gen::dichotomy`) and on random
//! simple DTDs, every query must
//!
//! * visit no `chase.split` checkpoint — the chase answers from the
//!   saturated goal;
//! * come with a verified witness document when "not implied"
//!   (`CounterexampleSearch::find`: `T ⊨ D`, `T ⊨ Σ`, `T ⊭ φ`);
//! * hold on sampled Σ-satisfying documents when "implied";
//! * keep its verdict with the contrapositive rule switched off, which
//!   the chase's completeness argument on simple DTDs never uses.
//!
//! CI runs this suite at a raised `PROPTEST_CASES` as a completeness
//! sweep.

use proptest::prelude::*;
use xnf::core::fd::ResolvedFd;
use xnf::core::implication::{ChaseConfig, CounterexampleSearch, Implication};
use xnf::core::{Chase, XmlFd, XmlFdSet};
use xnf::dtd::Dtd;
use xnf_gen::dichotomy::presence_dichotomy;
use xnf_gen::doc::{satisfying_documents, DocParams};
use xnf_gen::dtd::{simple_dtd, SimpleDtdParams};
use xnf_gen::fd::{random_fds, FdParams};
use xnf_govern::Budget;

fn show(sigma: &XmlFdSet) -> String {
    sigma
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("; ")
}

fn certify(dtd: &Dtd, sigma: &XmlFdSet, queries: &[XmlFd], seed: u64) -> Result<(), TestCaseError> {
    let paths = dtd.paths().unwrap();
    let resolved = sigma.resolve(&paths).unwrap();
    let budget = Budget::builder().build();
    let chase = Chase::new(dtd, &paths).with_budget(budget.clone());
    let search = CounterexampleSearch::new(dtd, &paths);
    let no_contrapositive = Chase::with_config(
        dtd,
        &paths,
        ChaseConfig {
            contrapositive_rule: false,
            ..ChaseConfig::default()
        },
    );
    let docs = satisfying_documents(
        dtd,
        sigma,
        &mut xnf_gen::rng(seed ^ 0xd1c0),
        &DocParams {
            reps: (0, 2),
            value_alphabet: 2, // small alphabet → many agreements
            max_nodes: 200,
        },
        8,
        48,
    );
    let tuple_sets: Vec<_> = docs
        .iter()
        .filter_map(|doc| xnf::core::tuples_d(doc, dtd, &paths).ok())
        .filter(|tuples| tuples.len() <= 256)
        .collect();
    for fd in queries {
        let r: ResolvedFd = fd.resolve(&paths).unwrap();
        let implied = chase.try_implies(&resolved, &r).unwrap();
        prop_assert_eq!(
            no_contrapositive.implies(&resolved, &r),
            implied,
            "the contrapositive rule decided {} under {{{}}} (seed {})",
            fd,
            show(sigma),
            seed
        );
        if implied {
            for tuples in &tuple_sets {
                prop_assert!(
                    r.check_tuples(tuples),
                    "SOUNDNESS BUG: {} is not implied by {{{}}}: a Σ-satisfying \
                     document refutes it (seed {})",
                    fd,
                    show(sigma),
                    seed
                );
            }
        } else {
            prop_assert!(
                search.find(&resolved, &r).is_some(),
                "COMPLETENESS GAP: the chase refutes {} under {{{}}} but no \
                 verified witness was constructed (seed {})",
                fd,
                show(sigma),
                seed
            );
        }
    }
    prop_assert!(
        !budget.sites().contains(&"chase.split"),
        "a simple DTD split (seed {}): {:?}",
        seed,
        budget.sites()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dichotomy_specs_are_decided_without_splits(seed in 0u64..1_000_000) {
        let spec = presence_dichotomy(&mut xnf_gen::rng(seed));
        certify(&spec.dtd, &spec.sigma, &spec.queries, seed)?;
    }

    #[test]
    fn simple_dtds_are_decided_without_splits(seed in 0u64..1_000_000, elements in 3usize..10) {
        let mut rng = xnf_gen::rng(seed);
        let dtd = simple_dtd(
            &mut rng,
            &SimpleDtdParams {
                elements,
                max_children: 3,
                max_attrs: 2,
                text_leaf_prob: 0.4,
            },
        );
        let sigma = random_fds(&dtd, &mut rng, &FdParams { count: 3, max_lhs: 2 });
        let queries: Vec<XmlFd> = random_fds(&dtd, &mut rng, &FdParams { count: 4, max_lhs: 2 })
            .iter()
            .cloned()
            .collect();
        certify(&dtd, &sigma, &queries, seed)?;
    }
}
