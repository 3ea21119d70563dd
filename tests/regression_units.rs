//! Deterministic replays of every shrunk case recorded in the checked-in
//! `*.proptest-regressions` files.
//!
//! The shrunk values in those files are *concrete inputs* to the property
//! bodies (generator seeds and size parameters), so each one can be
//! replayed exactly, independent of any proptest RNG stream. Each failure
//! proptest ever recorded is pinned here as a plain `#[test]` so the bug
//! it exposed stays fixed even if the surrounding property distributions
//! drift.

use xnf::core::implication::{CounterexampleSearch, Implication};
use xnf::core::{is_xnf, normalize, trees_d, tuples_d, NormalizeOptions};
use xnf_dtd::classify::{simple_multiplicities, Multiplicity};
use xnf_dtd::derivative;
use xnf_dtd::glushkov::PositionTree;
use xnf_dtd::Regex;
use xnf_gen::doc::{random_document, DocParams};
use xnf_gen::dtd::{disjunctive_dtd, simple_dtd, SimpleDtdParams};
use xnf_gen::fd::{random_fds, FdParams};

// ---------------------------------------------------------------------
// tests/dtd_props.proptest-regressions
//   cc b2a06e… # shrinks to re = Epsilon
//   cc e14c5a… # shrinks to re = Alt([Epsilon, Epsilon])
// ---------------------------------------------------------------------

const UNLIMITED: &xnf_govern::Budget = &xnf_govern::Budget::unlimited();

/// Whether `word ∈ L(re)`, by the position tree.
fn member(re: &Regex, word: &[&str]) -> bool {
    PositionTree::new(re, UNLIMITED)
        .and_then(|tree| tree.matches(word.iter().copied(), UNLIMITED))
        .expect("an unlimited budget cannot exhaust")
}

/// Runs every single-regex property from `dtd_props` on one value.
fn check_regex_properties(re: &Regex) {
    // shortest_word_is_always_a_member
    let w = derivative::shortest_word(re);
    let refs: Vec<&str> = w.iter().map(String::as_str).collect();
    assert!(member(re, &refs), "{w:?} is not in L({re})");
    // regex_display_parse_roundtrip
    let s = re.simplified();
    let text = s.to_string();
    let cm = xnf_dtd::parse::parse_content_model(&text).unwrap();
    let reparsed = cm.as_regex().cloned().unwrap_or(Regex::Epsilon);
    let words: [&[&str]; 8] = [
        &[],
        &["a"],
        &["b"],
        &["a", "a"],
        &["a", "b"],
        &["b", "a"],
        &["a", "b", "c"],
        &["c", "c"],
    ];
    for word in words {
        assert_eq!(
            member(&s, word),
            member(&reparsed, word),
            "roundtrip changed the language of {s} (word {word:?})"
        );
        // position_tree_and_derivatives_agree + simplified_preserves_language
        assert_eq!(
            member(re, word),
            derivative::matches(re, word.iter().copied(), UNLIMITED).unwrap(),
            "engines disagree on {re} vs {word:?}"
        );
        assert_eq!(
            member(re, word),
            member(&s, word),
            "simplification changed the language: {re} vs {s}"
        );
    }
    // simplicity_is_sound (on the empty word, the only member here)
    if let Some(m) = simple_multiplicities(re) {
        if member(re, &[]) {
            for letter in ["a", "b", "c"] {
                match m.get(letter) {
                    None | Some(Multiplicity::Opt) | Some(Multiplicity::Star) => {}
                    Some(other) => {
                        panic!("ε ∈ L({re}) but {letter} has multiplicity {other:?}")
                    }
                }
            }
        }
    }
}

#[test]
fn dtd_props_cc_b2a06e_epsilon() {
    check_regex_properties(&Regex::Epsilon);
}

#[test]
fn dtd_props_cc_e14c5a_alt_of_epsilons() {
    check_regex_properties(&Regex::Alt(vec![Regex::Epsilon, Regex::Epsilon]));
}

// ---------------------------------------------------------------------
// tests/implication_validation.proptest-regressions
// ---------------------------------------------------------------------

fn impl_dtd_params(elements: usize) -> SimpleDtdParams {
    SimpleDtdParams {
        elements,
        max_children: 3,
        max_attrs: 2,
        text_leaf_prob: 0.4,
    }
}

/// The body of `implication_validation::check_both_directions`, with
/// `prop_assert!` replaced by `assert!`.
fn check_both_directions(dtd: &xnf::dtd::Dtd, seed: u64) {
    let mut rng = xnf_gen::rng(seed ^ 0x5eed);
    let sigma = random_fds(
        dtd,
        &mut rng,
        &FdParams {
            count: 3,
            max_lhs: 2,
        },
    );
    let candidates = random_fds(
        dtd,
        &mut rng,
        &FdParams {
            count: 4,
            max_lhs: 2,
        },
    );
    let paths = dtd.paths().unwrap();
    let resolved = sigma.resolve(&paths).unwrap();
    let search = CounterexampleSearch::new(dtd, &paths);

    for fd in candidates.iter() {
        let r = fd.resolve(&paths).unwrap();
        if search.chase().implies(&resolved, &r) {
            for doc_seed in 0..12u64 {
                let mut doc_rng = xnf_gen::rng(seed.wrapping_mul(31).wrapping_add(doc_seed));
                let doc = random_document(
                    dtd,
                    &mut doc_rng,
                    &DocParams {
                        reps: (0, 2),
                        value_alphabet: 2,
                        max_nodes: 300,
                    },
                );
                if doc.num_nodes() >= 300 {
                    continue;
                }
                let Ok(tuples) = tuples_d(&doc, dtd, &paths) else {
                    continue;
                };
                if tuples.len() > 256 {
                    continue;
                }
                if resolved.iter().all(|s| s.check_tuples(&tuples)) {
                    assert!(
                        r.check_tuples(&tuples),
                        "SOUNDNESS BUG: chase claims implication of {fd}, \
                         but a sampled document refutes it (seed {seed}/{doc_seed})"
                    );
                }
            }
        } else {
            let witness = search.find(&resolved, &r);
            assert!(
                witness.is_some(),
                "COMPLETENESS GAP: chase refutes {fd} but no verified \
                 witness was constructed (seed {seed})"
            );
        }
    }
}

fn replay_disjunctive(seed: u64, elements: usize, disjunctions: usize) {
    let mut rng = xnf_gen::rng(seed);
    let dtd = disjunctive_dtd(&mut rng, &impl_dtd_params(elements), disjunctions, 2);
    check_both_directions(&dtd, seed);
}

fn replay_simple_implication(seed: u64, elements: usize) {
    let mut rng = xnf_gen::rng(seed);
    let dtd = simple_dtd(&mut rng, &impl_dtd_params(elements));
    check_both_directions(&dtd, seed);
}

#[test]
fn implication_cc_33c79d_disjunctive_43465_5_1() {
    replay_disjunctive(43465, 5, 1);
}

#[test]
fn implication_cc_8c4e6f_disjunctive_95705_6_1() {
    replay_disjunctive(95705, 6, 1);
}

#[test]
fn implication_cc_4c45a2_disjunctive_79125_6_1() {
    replay_disjunctive(79125, 6, 1);
}

#[test]
fn implication_cc_bbf911_disjunctive_6560_6_1() {
    replay_disjunctive(6560, 6, 1);
}

#[test]
fn implication_cc_be26e5_simple_3372_6() {
    replay_simple_implication(3372, 6);
}

#[test]
fn implication_cc_b378f2_simple_71503_7() {
    replay_simple_implication(71503, 7);
}

#[test]
fn implication_cc_23b166_simple_75400_6() {
    replay_simple_implication(75400, 6);
}

// ---------------------------------------------------------------------
// tests/normalization_props.proptest-regressions
// ---------------------------------------------------------------------

/// The body of `normalization_terminates_in_xnf` (Theorem 2 +
/// Proposition 6) for one (seed, elements), with asserts.
fn replay_normalization(seed: u64, elements: usize) {
    let mut rng = xnf_gen::rng(seed);
    let dtd = simple_dtd(&mut rng, &impl_dtd_params(elements));
    let sigma = random_fds(
        &dtd,
        &mut rng,
        &FdParams {
            count: 3,
            max_lhs: 2,
        },
    );
    let result = match normalize(&dtd, &sigma, &NormalizeOptions::default()) {
        Ok(r) => r,
        Err(xnf::core::CoreError::BadFdPath(_)) => return,
        Err(other) => panic!("{other}"),
    };
    assert!(
        is_xnf(&result.dtd, &result.sigma).unwrap(),
        "seed {seed}: result not in XNF"
    );
    for w in result.ap_trace.windows(2) {
        assert!(
            w[1] < w[0],
            "AP did not strictly decrease: {:?}",
            result.ap_trace
        );
    }
    assert_eq!(*result.ap_trace.last().unwrap(), 0, "final AP must be 0");

    // sigma_only_variant_reaches_xnf on the same inputs.
    let mut rng = xnf_gen::rng(seed);
    let dtd = simple_dtd(&mut rng, &impl_dtd_params(elements));
    let sigma = random_fds(
        &dtd,
        &mut rng,
        &FdParams {
            count: 3,
            max_lhs: 2,
        },
    );
    let opts = NormalizeOptions {
        use_implication: false,
        ..NormalizeOptions::default()
    };
    match normalize(&dtd, &sigma, &opts) {
        Ok(r) => assert!(
            is_xnf(&r.dtd, &r.sigma).unwrap(),
            "Σ-only variant not in XNF"
        ),
        Err(xnf::core::CoreError::BadFdPath(_)) => {}
        Err(other) => panic!("{other}"),
    }
}

#[test]
fn normalization_cc_7c6e60_39088_7() {
    replay_normalization(39088, 7);
}

#[test]
fn normalization_cc_be170e_46461_5() {
    replay_normalization(46461, 5);
}

#[test]
fn normalization_cc_33bd31_56278_7() {
    replay_normalization(56278, 7);
}

#[test]
fn normalization_cc_0d92dd_10375_4() {
    replay_normalization(10375, 4);
}

// ---------------------------------------------------------------------
// tests/roundtrip_props.proptest-regressions
//   cc baf7d5… # shrinks to seed = 44, elements = 4, keep = 1
// ---------------------------------------------------------------------

#[test]
fn roundtrip_cc_baf7d5_proposition_3b_44_4_1() {
    let (seed, elements, keep) = (44u64, 4usize, 1usize);
    let mut rng = xnf_gen::rng(seed);
    let dtd = simple_dtd(
        &mut rng,
        &SimpleDtdParams {
            elements,
            max_children: 3,
            max_attrs: 2,
            text_leaf_prob: 0.5,
        },
    );
    let doc = random_document(
        &dtd,
        &mut rng,
        &DocParams {
            reps: (0, 2),
            value_alphabet: 3,
            max_nodes: 400,
        },
    );
    assert!(doc.num_nodes() < 400, "regression doc draw was capped");
    let paths = dtd.paths().unwrap();
    let tuples = tuples_d(&doc, &dtd, &paths).unwrap();
    assert!(tuples.len() <= 64, "regression tuple set too large");
    let subset: Vec<_> = tuples
        .iter()
        .take(keep.min(tuples.len()))
        .cloned()
        .collect();
    let rebuilt = trees_d(&subset, &paths).unwrap();
    let rebuilt_tuples = tuples_d(&rebuilt, &dtd, &paths).unwrap();
    let str_paths: Vec<_> = paths
        .iter()
        .filter(|&p| !paths.is_element_path(p))
        .collect();
    let elem_paths: Vec<_> = paths.iter().filter(|&p| paths.is_element_path(p)).collect();
    for t in &subset {
        assert!(
            rebuilt_tuples.iter().any(|rt| {
                str_paths
                    .iter()
                    .all(|&p| t.get(p).is_null() || t.get(p) == rt.get(p))
                    && elem_paths
                        .iter()
                        .all(|&p| t.get(p).is_null() || !rt.get(p).is_null())
            }),
            "a tuple of X is not subsumed in tuples(trees(X)) up to renaming"
        );
    }

    // theorem_1_roundtrip on the same (seed, elements).
    let mut rng = xnf_gen::rng(seed);
    let dtd = simple_dtd(
        &mut rng,
        &SimpleDtdParams {
            elements,
            max_children: 3,
            max_attrs: 2,
            text_leaf_prob: 0.5,
        },
    );
    let doc = random_document(
        &dtd,
        &mut rng,
        &DocParams {
            reps: (0, 2),
            value_alphabet: 3,
            max_nodes: 400,
        },
    );
    if doc.num_nodes() < 400 {
        let paths = dtd.paths().unwrap();
        let tuples = tuples_d(&doc, &dtd, &paths).unwrap();
        if tuples.len() <= 512 {
            let rebuilt = trees_d(&tuples, &paths).unwrap();
            assert!(
                xnf::xml::unordered_eq(&rebuilt, &doc),
                "Theorem 1 roundtrip"
            );
        }
    }
}
