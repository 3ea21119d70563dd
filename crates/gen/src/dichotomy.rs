//! Presence-dichotomy specs: small simple DTDs whose implications hinge
//! on whether an optional element is present.
//!
//! The shape is an optional element over a starred child, `e0 = (e1?)`,
//! `e1 = (e2?, e4*)`, with the `+` and required variants of each letter,
//! a sibling `e3` under the root and attributes on every level. Σ relates
//! the optional element (or its attributes) to the starred child, and
//! sometimes the starred child back to the sibling. The queries run from
//! the root or its attributes to the grandchildren. These are the
//! queries where a two-tuple chase must reason about presence; the
//! randomized DTD families rarely reach them.

use rand::prelude::IndexedRandom;
use rand::Rng;
use xnf_core::{XmlFd, XmlFdSet};
use xnf_dtd::{ContentModel, Dtd, Path, Regex};

/// A presence-dichotomy spec: see [`presence_dichotomy`].
#[derive(Debug, Clone)]
pub struct DichotomySpec {
    /// The simple DTD.
    pub dtd: Dtd,
    /// Σ: FDs from `e1`, `e1.e2` or their attributes to `e1.e4` or its
    /// values, and at times from `e4`'s values to the sibling `e3`.
    pub sigma: XmlFdSet,
    /// Candidate FDs from the root or its attributes to the
    /// grandchildren.
    pub queries: Vec<XmlFd>,
}

/// One of the four per-letter shapes of a trivial content model, the
/// optional one (`a?`) three times as likely as each other;
/// `repeatable_only` draws `a*` or `a+`.
fn letter(rng: &mut impl Rng, name: &str, repeatable_only: bool) -> Regex {
    let leaf = Regex::elem(name);
    let pick = if repeatable_only {
        rng.random_range(0..4) % 2 + 2
    } else {
        rng.random_range(0..6)
    };
    match pick {
        0 => leaf,
        1 | 4 | 5 => leaf.opt(),
        2 => leaf.star(),
        _ => leaf.plus(),
    }
}

fn attrs(rng: &mut impl Rng, elem: &str, lo: usize) -> Vec<String> {
    let n = rng.random_range(lo..=2);
    (0..n).map(|i| format!("a{}_{i}", &elem[1..])).collect()
}

/// Generates one presence-dichotomy spec (see the module doc).
pub fn presence_dichotomy(rng: &mut impl Rng) -> DichotomySpec {
    let e0_attrs = attrs(rng, "e0", 1);
    let e1_attrs = attrs(rng, "e1", 0);
    let e2_attrs = attrs(rng, "e2", 1);
    let with_e2 = rng.random_range(0..4) != 0;
    let e3_text = rng.random_bool(0.5);
    let e4_text = rng.random_range(0..4) == 0;
    let e3_attrs = if e3_text {
        Vec::new()
    } else {
        attrs(rng, "e3", 1)
    };
    let e4_attrs = if e4_text {
        Vec::new()
    } else {
        attrs(rng, "e4", 1)
    };

    let mut e1_content = Vec::new();
    if with_e2 {
        e1_content.push(letter(rng, "e2", false));
    }
    e1_content.push(letter(rng, "e4", true));
    let leaf = |text: bool| {
        if text {
            ContentModel::Text
        } else {
            ContentModel::Regex(Regex::Epsilon)
        }
    };
    let root = Regex::seq([letter(rng, "e1", false), letter(rng, "e3", false)]);
    let mut b = Dtd::builder("e0")
        .decl("e0", ContentModel::Regex(root), e0_attrs.clone())
        .decl(
            "e1",
            ContentModel::Regex(Regex::seq(e1_content)),
            e1_attrs.clone(),
        )
        .decl("e3", leaf(e3_text), e3_attrs.clone())
        .decl("e4", leaf(e4_text), e4_attrs.clone());
    if with_e2 {
        b = b.decl("e2", ContentModel::Regex(Regex::Epsilon), e2_attrs.clone());
    }
    let dtd = b.build().expect("dichotomy DTDs are well-formed");

    let fd = |lhs: &String, rhs: &String| {
        let path = |s: &String| -> Path { s.parse().expect("generated paths parse") };
        XmlFd::new([path(lhs)], [path(rhs)]).expect("both sides are non-empty")
    };
    let values = |prefix: &str, attrs: &[String], text: bool| -> Vec<String> {
        if text {
            vec![format!("{prefix}.S")]
        } else {
            attrs.iter().map(|a| format!("{prefix}.@{a}")).collect()
        }
    };
    // Σ's premises: the optional element, its child e2, their attributes.
    let mut premises = vec!["e0.e1".to_string()];
    premises.extend(values("e0.e1", &e1_attrs, false));
    if with_e2 {
        premises.push("e0.e1.e2".to_string());
        premises.extend(values("e0.e1.e2", &e2_attrs, false));
    }
    let e4_values = values("e0.e1.e4", &e4_attrs, e4_text);
    let e3_values = values("e0.e3", &e3_attrs, e3_text);
    let mut starred = vec!["e0.e1.e4".to_string()];
    starred.extend(e4_values.iter().cloned());

    let mut fds = Vec::new();
    for _ in 0..rng.random_range(1..=3) {
        let lhs = premises.choose(rng).expect("e0.e1 is a premise");
        let rhs = starred.choose(rng).expect("e0.e1.e4 is starred");
        fds.push(fd(lhs, rhs));
    }
    if rng.random_bool(0.5) {
        let lhs = starred.choose(rng).expect("non-empty");
        let mut sibling = vec!["e0.e3".to_string()];
        sibling.extend(e3_values.iter().cloned());
        let rhs = sibling.choose(rng).expect("non-empty");
        fds.push(fd(lhs, rhs));
    }
    let sigma = XmlFdSet::from_fds(fds);

    let mut sources = vec!["e0".to_string()];
    sources.extend(values("e0", &e0_attrs, false));
    let mut targets = starred;
    if with_e2 {
        targets.push("e0.e1.e2".to_string());
        targets.extend(values("e0.e1.e2", &e2_attrs, false));
    }
    targets.extend(e3_values);
    let queries = (0..4)
        .map(|_| {
            let lhs = sources.choose(rng).expect("e0 is a source");
            let rhs = targets.choose(rng).expect("e0.e1.e4 is a target");
            fd(lhs, rhs)
        })
        .collect();
    DichotomySpec {
        dtd,
        sigma,
        queries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xnf_dtd::classify::DtdShapes;

    #[test]
    fn dichotomy_specs_are_simple_and_resolve() {
        for seed in 0..64 {
            let spec = presence_dichotomy(&mut crate::rng(seed));
            assert!(DtdShapes::analyze(&spec.dtd).is_simple(), "seed {seed}");
            let paths = spec.dtd.paths().unwrap();
            assert!(spec.sigma.resolve(&paths).is_ok(), "seed {seed}");
            assert!(!spec.sigma.is_empty(), "seed {seed}");
            assert_eq!(spec.queries.len(), 4, "seed {seed}");
            for q in &spec.queries {
                assert!(q.resolve(&paths).is_ok(), "seed {seed}: {q}");
            }
        }
    }

    #[test]
    fn the_roadmap_shape_is_reachable() {
        // e1 optional over a starred e4, with no e2: the shape of the
        // former split case.
        let found = (0..256).any(|seed| {
            let d = presence_dichotomy(&mut crate::rng(seed)).dtd;
            let content = |e: &str| d.content(d.elem_id(e).unwrap()).as_regex().cloned();
            d.elem_id("e2").is_none()
                && matches!(content("e1"), Some(Regex::Star(_)))
                && matches!(content("e0"), Some(Regex::Seq(parts)) if matches!(parts[0], Regex::Opt(_)))
        });
        assert!(found);
    }
}
