//! Regression test for the E16 generator quirk: `simple_dtd` used to drop
//! children beyond `max_children` from the content model while keeping
//! their declarations, producing elements unreachable from the root
//! (lint code XNF007). Generated specs must now be lint-clean.

use xnf_gen::dtd::{disjunctive_dtd, simple_dtd, SimpleDtdParams};
use xnf_lint::{lint_spec, Code};

fn assert_clean(dtd: &xnf_dtd::Dtd, context: &str) {
    let report = lint_spec(&dtd.to_string(), None);
    assert!(
        !report.codes().contains(&Code::UnreachableElement),
        "{context}: generated DTD has unreachable elements (XNF007)\n{}",
        report.render_human()
    );
    assert!(
        !report.has_errors(),
        "{context}: generated DTD has lint errors\n{}",
        report.render_human()
    );
}

#[test]
fn simple_dtds_are_lint_clean() {
    // Small max_children against many elements is exactly the overflowing
    // regime of the E16 quirk.
    for seed in 0..200u64 {
        for (elements, max_children) in [(10, 1), (16, 2), (24, 3), (40, 2)] {
            let params = SimpleDtdParams {
                elements,
                max_children,
                ..SimpleDtdParams::default()
            };
            let d = simple_dtd(&mut xnf_gen::rng(seed), &params);
            assert_clean(&d, &format!("seed {seed}, {elements}x{max_children}"));
        }
    }
}

#[test]
fn disjunctive_dtds_are_lint_clean() {
    for seed in 0..100u64 {
        let params = SimpleDtdParams {
            elements: 12,
            max_children: 2,
            ..SimpleDtdParams::default()
        };
        let d = disjunctive_dtd(&mut xnf_gen::rng(seed), &params, 2, 3);
        assert_clean(&d, &format!("seed {seed}"));
    }
}

#[test]
fn every_declared_element_is_referenced() {
    // Structural form of the same property, independent of the linter.
    for seed in 0..100u64 {
        let params = SimpleDtdParams {
            elements: 20,
            max_children: 1,
            ..SimpleDtdParams::default()
        };
        let d = simple_dtd(&mut xnf_gen::rng(seed), &params);
        let paths = d.paths().expect("simple DTDs enumerate paths");
        // Every element appears at some path reachable from the root.
        for e in d.elements() {
            let name = d.name(e);
            let reachable = paths
                .iter()
                .any(|p| paths.last_elem(p).is_some_and(|le| d.name(le) == name));
            assert!(reachable, "seed {seed}: element {name} unreachable");
        }
    }
}
