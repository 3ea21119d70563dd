//! Predictive lint rules (codes `XNF2xx`): what the Figure 4
//! normalization *would do* to the spec, computed statically.
//!
//! The tier is opt-in ([`crate::OptIn::Predictive`]): it drives
//! [`xnf_core::analyze`](fn@xnf_core::analyze) — the static decomposition
//! planner — over `(D, Σ)` and then applies pure rules to the resulting
//! [`Analysis`]. Unlike the semantic tier, nothing here says the spec is
//! *wrong*; the diagnostics forecast the cost and shape of normalizing it:
//!
//! * `XNF200` — an FD is anomalous: the spec is not in XNF and the
//!   planner names the offending path and the move that repairs it.
//! * `XNF201` — the predicted plan creates many fresh element types;
//!   the normalized schema will diverge substantially from the input.
//! * `XNF202` — a large cluster of interacting FDs: rewrites inside it
//!   cascade, so the decomposition order matters.
//! * `XNF203` — a dead attribute: no FD constrains it, it rides along
//!   unchanged through every step.
//! * `XNF204` — normalization needs many fixpoint iterations; the spec
//!   is far from normal form.
//!
//! The split between the governed driver ([`lint_predictive`]) and the
//! pure rule pass ([`from_analysis`]) keeps the rules trivially testable
//! against hand-built analyses.

use crate::report::{Code, Diagnostic, SourceKind};
use crate::structural::DtdCtx;
use xnf_core::analyze::{analyze, Analysis, AnalyzeOptions};
use xnf_core::normalize::Step;
use xnf_core::{CoreError, XmlFdSet};
use xnf_govern::{Budget, Exhausted};

/// `XNF201` fires when the predicted plan introduces at least this many
/// fresh element types.
pub const SCHEMA_BLOW_UP_MIN_ELEMENTS: usize = 4;

/// `XNF202` fires for interaction clusters of at least this many FDs.
pub const CLUSTER_MIN_FDS: usize = 3;

/// `XNF204` fires when the predicted run needs at least this many
/// fixpoint iterations.
pub const ITERATION_BOUND: u64 = 5;

/// Runs the predictive tier: [`analyze`] under `budget`, then the pure
/// rules. Skips silently when Σ does not resolve (the semantic tier
/// already reported `XNF102`) — predictive diagnostics are only
/// meaningful for specs the normalizer would accept. A budget exhaustion
/// aborts the whole lint (no partial report escapes).
pub fn lint_predictive(
    ctx: &DtdCtx<'_>,
    sigma: &XmlFdSet,
    budget: &Budget,
    out: &mut Vec<Diagnostic>,
) -> Result<(), Exhausted> {
    let options = AnalyzeOptions {
        budget: budget.clone(),
        ..AnalyzeOptions::default()
    };
    let analysis = match analyze(ctx.dtd, sigma, &options) {
        Ok(a) => a,
        Err(CoreError::Exhausted(e)) => return Err(e),
        // Unresolvable paths, degenerate FDs, recursion: already flagged
        // by the structural/semantic tiers under their own codes.
        Err(_) => return Ok(()),
    };
    if let Some(e) = analysis.exhausted {
        return Err(e);
    }
    out.extend(from_analysis(&analysis));
    Ok(())
}

/// The pure rule pass: maps a completed [`Analysis`] to `XNF2xx`
/// diagnostics. Deterministic in the analysis alone — no chase, no
/// budget — so thresholds and messages can be unit-tested directly.
pub fn from_analysis(analysis: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // XNF200: one diagnostic per anomaly, with provenance.
    for anomaly in &analysis.anomalies {
        let mut d = Diagnostic::new(
            Code::AnomalousFd,
            SourceKind::Fds,
            format!(
                "FD `{}` is anomalous: the spec is not in XNF at `{}`",
                anomaly.fd, anomaly.path
            ),
        )
        .note(format!("predicted repair: {}", anomaly.predicted_move));
        if let Some(step) = anomaly.resolved_by_step {
            d = d.note(format!(
                "resolved by step {} of the predicted plan",
                step + 1
            ));
        }
        out.push(d);
    }

    // XNF201: count the fresh element types the plan creates.
    let fresh: usize = analysis
        .plan
        .iter()
        .map(|step| match step {
            Step::CreateElement { tau_children, .. } => 1 + tau_children.len(),
            _ => 0,
        })
        .sum();
    if fresh >= SCHEMA_BLOW_UP_MIN_ELEMENTS {
        out.push(
            Diagnostic::new(
                Code::SchemaBlowUp,
                SourceKind::Dtd,
                format!(
                    "the predicted decomposition creates {fresh} fresh element types \
                     (threshold {SCHEMA_BLOW_UP_MIN_ELEMENTS})"
                ),
            )
            .note("the normalized schema will look very different from the input"),
        );
    }

    // XNF202: large interaction clusters.
    for cluster in &analysis.graph.clusters {
        if cluster.len() >= CLUSTER_MIN_FDS {
            let names: Vec<&str> = cluster
                .iter()
                .filter_map(|&i| analysis.graph.nodes.get(i).map(String::as_str))
                .collect();
            out.push(
                Diagnostic::new(
                    Code::FdInteractionCluster,
                    SourceKind::Fds,
                    format!("{} FDs form one interaction cluster", cluster.len()),
                )
                .note(format!("cluster members: {}", names.join("; "))),
            );
        }
    }

    // XNF203: attributes no FD constrains.
    for attr in &analysis.dead_attributes {
        out.push(
            Diagnostic::new(
                Code::DeadAttribute,
                SourceKind::Dtd,
                format!("attribute `{attr}` is mentioned by no FD"),
            )
            .note("it rides along unchanged through every decomposition step"),
        );
    }

    // XNF204: the predicted fixpoint is long.
    if analysis.cost.iterations >= ITERATION_BOUND {
        out.push(
            Diagnostic::new(
                Code::FixpointIterationBound,
                SourceKind::Fds,
                format!(
                    "normalization needs {} fixpoint iterations ({} rewrite steps) \
                     to reach XNF",
                    analysis.cost.iterations,
                    analysis.plan.len()
                ),
            )
            .note(format!(
                "predicted governed cost: {} fuel ticks (exact)",
                analysis.cost.predicted_fuel
            )),
        );
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xnf_dtd::parse_dtd;

    fn run(dtd_src: &str, fds_src: &str) -> Vec<Diagnostic> {
        let dtd = parse_dtd(dtd_src).unwrap();
        let sigma = XmlFdSet::parse(fds_src).unwrap();
        let analysis = analyze(&dtd, &sigma, &AnalyzeOptions::default()).unwrap();
        from_analysis(&analysis)
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    /// The DBLP spec of Example 1.2: one anomalous FD, two dead
    /// attributes — `XNF200` and `XNF203` fire; the plan is one step, so
    /// `XNF201`/`XNF204` must stay silent.
    #[test]
    fn dblp_fires_anomaly_and_dead_attributes_only() {
        let diags = run(
            "<!ELEMENT db (conf*)>
             <!ELEMENT conf (title, issue+)>
             <!ELEMENT title (#PCDATA)>
             <!ELEMENT issue (inproceedings+)>
             <!ELEMENT inproceedings (author+, title, booktitle)>
             <!ATTLIST inproceedings
                 key CDATA #REQUIRED
                 pages CDATA #REQUIRED
                 year CDATA #REQUIRED>
             <!ELEMENT author (#PCDATA)>
             <!ELEMENT booktitle (#PCDATA)>",
            xnf_core::fd::DBLP_FDS,
        );
        let cs = codes(&diags);
        assert!(cs.contains(&Code::AnomalousFd), "{cs:?}");
        assert!(cs.contains(&Code::DeadAttribute), "{cs:?}");
        assert!(!cs.contains(&Code::SchemaBlowUp), "{cs:?}");
        assert!(!cs.contains(&Code::FixpointIterationBound), "{cs:?}");
        let anomaly = diags
            .iter()
            .find(|d| d.code == Code::AnomalousFd && d.message.contains("@year"))
            .expect("provenance names the @year path");
        assert!(
            anomaly.notes.iter().any(|n| n.contains("move-attribute")),
            "provenance names the move: {:?}",
            anomaly.notes
        );
    }

    /// A spec already in XNF with every attribute constrained produces
    /// no predictive diagnostics at all (the non-firing side of every
    /// rule).
    #[test]
    fn xnf_spec_is_predictively_clean() {
        let diags = run(
            "<!ELEMENT r (a*)> <!ELEMENT a EMPTY> <!ATTLIST a k CDATA #REQUIRED>",
            "r.a.@k -> r.a",
        );
        assert!(diags.is_empty(), "{:?}", codes(&diags));
    }

    /// The `e22_family` stress spec at k = 6: six anomalous FDs and a
    /// long fixpoint (≥ 5 iterations ⇒ `XNF204`). Its repairs are all
    /// attribute moves, so `XNF201` must stay silent.
    #[test]
    fn e22_family_fires_iteration_bound() {
        let (dtd, sigma) = xnf_core::analyze::e22_family(6);
        let analysis = analyze(&dtd, &sigma, &AnalyzeOptions::default()).unwrap();
        let diags = from_analysis(&analysis);
        let cs = codes(&diags);
        assert_eq!(
            cs.iter().filter(|&&c| c == Code::AnomalousFd).count(),
            6,
            "{cs:?}"
        );
        assert!(cs.contains(&Code::FixpointIterationBound), "{cs:?}");
        assert!(!cs.contains(&Code::SchemaBlowUp), "{cs:?}");
    }

    /// Two global attribute-to-attribute FDs each force a create-element
    /// repair (the paper's "new element type" move): 2 × (τ + one τᵢ)
    /// = 4 fresh element types ⇒ `XNF201` fires and counts them.
    #[test]
    fn create_element_repairs_fire_schema_blow_up() {
        let diags = run(
            "<!ELEMENT r (a*, b*)>
             <!ELEMENT a EMPTY> <!ATTLIST a k CDATA #REQUIRED v CDATA #REQUIRED>
             <!ELEMENT b EMPTY> <!ATTLIST b k CDATA #REQUIRED v CDATA #REQUIRED>",
            "r.a.@k -> r.a.@v\nr.b.@k -> r.b.@v",
        );
        let blow_up = diags
            .iter()
            .find(|d| d.code == Code::SchemaBlowUp)
            .expect("XNF201 fires");
        assert!(
            blow_up.message.contains("4 fresh element types"),
            "{}",
            blow_up.message
        );
    }

    /// Three FDs chained through shared paths form one cluster of three:
    /// `XNF202` fires and its note names all three members.
    #[test]
    fn chained_fds_fire_interaction_cluster() {
        let dtd = parse_dtd(
            "<!ELEMENT r (a*)>
             <!ELEMENT a (b)>
             <!ATTLIST a x CDATA #REQUIRED>
             <!ELEMENT b (c)>
             <!ATTLIST b y CDATA #REQUIRED>
             <!ELEMENT c EMPTY>
             <!ATTLIST c z CDATA #REQUIRED>",
        )
        .unwrap();
        let sigma = XmlFdSet::parse(
            "r.a.@x -> r.a.b.@y
             r.a.b.@y -> r.a.b.c.@z
             r.a.b.c.@z -> r.a.@x",
        )
        .unwrap();
        let analysis = analyze(&dtd, &sigma, &AnalyzeOptions::default()).unwrap();
        let diags = from_analysis(&analysis);
        let cluster = diags
            .iter()
            .find(|d| d.code == Code::FdInteractionCluster)
            .expect("cluster rule fires");
        assert!(cluster.message.contains("3 FDs"), "{}", cluster.message);
        assert!(
            cluster.notes.iter().any(|n| n.contains("@z")),
            "{:?}",
            cluster.notes
        );
    }

    /// Two independent FDs do not form a reportable cluster (the
    /// non-firing side of `XNF202`).
    #[test]
    fn independent_fds_do_not_cluster() {
        let diags = run(
            "<!ELEMENT r (a*, b*)>
             <!ELEMENT a EMPTY> <!ATTLIST a x CDATA #REQUIRED>
             <!ELEMENT b EMPTY> <!ATTLIST b y CDATA #REQUIRED>",
            "r.a.@x -> r.a\nr.b.@y -> r.b",
        );
        assert!(
            !codes(&diags).contains(&Code::FdInteractionCluster),
            "{:?}",
            codes(&diags)
        );
    }
}
