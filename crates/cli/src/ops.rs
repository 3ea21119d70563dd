//! Source-level operations shared by the `xnf-tool` subcommands and the
//! `xnf-serve` HTTP endpoints.
//!
//! [`is_xnf`], [`normalize_spec`], [`analyze_spec`] and [`lint_sources`]
//! are each the *entire* body of one subcommand and of one endpoint —
//! spec intake (governed parse plus lint gate), engine call, rendering,
//! and the partial-result/exhaustion policy — operating on in-memory
//! sources instead of file paths. `xnf_cli::run` reads the files, runs
//! one of them under its flags' budget, and writes the trace and metrics
//! files; `xnf-serve` calls the same function straight from request
//! bodies. One code path, two front ends: a differential suite
//! (`tests/serve_differential.rs`) holds the two byte-identical. `verify`
//! and `shred` have no endpoint: their bodies live in `xnf_cli::run` and
//! share only [`intake`] with the rest.

use std::fmt::Write as _;

use crate::CliError;
use xnf_core::fd::FdListing;
use xnf_core::lossless::{transform_document, verify_lossless};
use xnf_core::{normalize, NormalizeOptions, XmlFdSet};
use xnf_dtd::{Dtd, DtdListing};
use xnf_govern::{Budget, Recorder};

/// How a spec arrived, selecting the parser hardening profile:
/// [`Trust::Local`] applies [`xnf_dtd::ParseLimits::default`] (files the
/// operator chose to open), [`Trust::Network`] applies
/// [`xnf_dtd::ParseLimits::untrusted`] (request bodies from
/// authenticated but unknown clients).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trust {
    /// Local files: generous limits.
    Local,
    /// Network payloads: strict limits.
    Network,
}

impl Trust {
    fn dtd_limits(self) -> xnf_dtd::ParseLimits {
        match self {
            Trust::Local => xnf_dtd::ParseLimits::default(),
            Trust::Network => xnf_dtd::ParseLimits::untrusted(),
        }
    }

    fn xml_limits(self) -> xnf_xml::ParseLimits {
        match self {
            Trust::Local => xnf_xml::ParseLimits::default(),
            Trust::Network => xnf_xml::ParseLimits::untrusted(),
        }
    }
}

/// Parses an XML document under `budget` and the `trust` profile's
/// limits.
///
/// # Errors
///
/// Syntax errors as [`CliError::Lib`], exhaustion as
/// [`CliError::Exhausted`].
pub fn parse_xml(src: &str, trust: Trust, budget: &Budget) -> Result<xnf_xml::XmlTree, CliError> {
    Ok(xnf_xml::parse_governed(src, trust.xml_limits(), budget)?)
}

/// The lint gate a spec [`intake`] runs on its parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// No gate: `--no-lint`, `analyze`, and the service's cache key.
    Off,
    /// The preflight of `is-xnf`, `normalize` and `verify`.
    Engine,
    /// `shred`'s preflight: the engine gate plus the shred tier
    /// (`XNF3xx`), so recursive DTDs and mixed content fail with the
    /// shredding-specific diagnostic instead of a bare engine error.
    Shred,
}

impl Gate {
    /// `gate`, or [`Gate::Off`] under `--no-lint`.
    pub(crate) fn unless(no_lint: bool, gate: Gate) -> Gate {
        if no_lint {
            Gate::Off
        } else {
            gate
        }
    }
}

/// The one parse of a spec, shared by [`intake`] and [`lint_sources`]:
/// the DTD's listing under the `trust` profile's limits and `budget`,
/// and Σ's listing (unmetered), inside one `spec.parse` span on the
/// budget's recorder.
fn parse_spec<'d, 'f>(
    dtd_src: &'d str,
    fds_src: Option<&'f str>,
    trust: Trust,
    budget: &Budget,
) -> (DtdListing<'d>, Option<FdListing<'f>>) {
    let _span = budget.recorder().span("spec.parse", "parse");
    let dtd = DtdListing::read(dtd_src, trust.dtd_limits(), budget);
    (dtd, fds_src.map(FdListing::read))
}

/// The one spec intake of every spec-level operation: parses `(D, Σ)`
/// once — the DTD's [`DtdListing`] under the `trust` profile's limits
/// and `budget`, and Σ's [`FdListing`], inside one `spec.parse` span on
/// the budget's recorder — then runs the lint `gate`
/// ([`xnf_lint::preflight`]) on those same listings. A clean gate costs
/// no chase; a failing one renders its full report under `budget`.
///
/// # Errors
///
/// Exhaustion — in the parse or in a failing gate's report — as
/// [`CliError::Exhausted`]; a failing gate as [`CliError::Lint`] with
/// the rendered report; parse errors as [`CliError::Lib`].
pub fn intake(
    dtd_src: &str,
    fds_src: &str,
    trust: Trust,
    gate: Gate,
    budget: &Budget,
) -> Result<(Dtd, XmlFdSet), CliError> {
    let (dtd, fds) = parse_spec(dtd_src, Some(fds_src), trust, budget);
    if gate != Gate::Off {
        let shred_tier = gate == Gate::Shred;
        if let Some(report) = xnf_lint::preflight(&dtd, fds.as_ref(), shred_tier, budget)? {
            return Err(CliError::Lint(format!(
                "{}preflight lint failed; fix the errors above or rerun with --no-lint\n",
                report.render_human()
            )));
        }
    }
    let sigma = fds.map_or_else(|| Ok(XmlFdSet::new()), FdListing::into_set);
    Ok((dtd.into_dtd()?, sigma?))
}

/// Options of [`is_xnf`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IsXnfOptions {
    /// Skip the lint preflight.
    pub no_lint: bool,
    /// Parser hardening profile (default [`Trust::Local`]).
    pub trust: Option<Trust>,
}

/// The `is-xnf` operation: spec intake, anomalous-FD search, verdict
/// rendering.
///
/// # Errors
///
/// Lint errors as [`CliError::Lint`], budget exhaustion as
/// [`CliError::Exhausted`], parse/engine failures as [`CliError::Lib`].
pub fn is_xnf(
    dtd_src: &str,
    fds_src: &str,
    options: &IsXnfOptions,
    budget: &Budget,
) -> Result<String, CliError> {
    let _op_span = budget.recorder().span("op.is-xnf", "op");
    let mut out = String::new();
    let trust = options.trust.unwrap_or(Trust::Local);
    let gate = Gate::unless(options.no_lint, Gate::Engine);
    let (dtd, sigma) = intake(dtd_src, fds_src, trust, gate, budget)?;
    let violations = xnf_core::anomalous_fds_governed(&dtd, &sigma, budget)?;
    if violations.is_empty() {
        writeln!(out, "in XNF: yes")?;
    } else {
        writeln!(out, "in XNF: NO — {} anomalous FD(s):", violations.len())?;
        for v in violations {
            writeln!(out, "  {}", v.fd)?;
        }
    }
    Ok(out)
}

/// Options of [`normalize_spec`], mirroring the `normalize` subcommand
/// flags.
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalizeSpecOptions<'a> {
    /// `--sigma-only`: disable the implication oracle (Proposition 7).
    pub sigma_only: bool,
    /// `--stats`: append the run-statistics block.
    pub stats: bool,
    /// Skip the lint preflight.
    pub no_lint: bool,
    /// `--doc`: transform this document along the step trace and verify
    /// losslessness.
    pub doc_src: Option<&'a str>,
    /// Parser hardening profile (default [`Trust::Local`]).
    pub trust: Option<Trust>,
}

/// The `normalize` operation: spec intake, the Figure 4 algorithm,
/// full rendering (steps, revised `(D, Σ)`, optional stats and document
/// transform).
///
/// Counter totals of the run are merged into `recorder` (the CLI's
/// `--metrics` sink and the server's shared recorder) before rendering.
///
/// # Errors
///
/// On budget exhaustion the rendered partial trace is returned as
/// [`CliError::Exhausted`] — the output is complete and well-formed but
/// must not read as success. Lint errors as [`CliError::Lint`],
/// parse/engine failures as [`CliError::Lib`].
pub fn normalize_spec(
    dtd_src: &str,
    fds_src: &str,
    options: &NormalizeSpecOptions<'_>,
    budget: &Budget,
    recorder: &Recorder,
) -> Result<String, CliError> {
    let _op_span = budget.recorder().span("op.normalize", "op");
    let mut out = String::new();
    let trust = options.trust.unwrap_or(Trust::Local);
    let gate = Gate::unless(options.no_lint, Gate::Engine);
    let (dtd, sigma) = intake(dtd_src, fds_src, trust, gate, budget)?;
    let norm_options = NormalizeOptions {
        use_implication: !options.sigma_only,
        budget: budget.clone(),
        // Only `--doc` replays the steps on a document.
        record_stages: options.doc_src.is_some(),
    };
    let result = normalize(&dtd, &sigma, &norm_options)?;
    recorder.merge(&result.stats.chase);
    recorder.add("normalize.iterations", result.stats.iterations);
    recorder.add("normalize.steps", result.steps.len() as u64);
    if let Some(e) = &result.exhausted {
        writeln!(out, "*** PARTIAL RESULT — budget exhausted: {e} ***")?;
        writeln!(
            out,
            "*** every step below is fully applied, but the design is NOT \
             certified XNF; rerun with a larger budget ***"
        )?;
    }
    writeln!(out, "=== steps ({}) ===", result.steps.len())?;
    for s in &result.steps {
        writeln!(out, "{s:?}")?;
    }
    writeln!(out, "=== revised DTD ===\n{}", result.dtd)?;
    writeln!(out, "=== revised FDs ===\n{}", result.sigma)?;
    if options.stats {
        let s = &result.stats;
        let c = &s.chase;
        let hits = c.get("cache.hits");
        let misses = c.get("cache.misses");
        let queries = hits + misses;
        let hit_rate = if queries == 0 {
            0.0
        } else {
            100.0 * hits as f64 / queries as f64
        };
        writeln!(out, "=== stats ===")?;
        writeln!(out, "iterations:        {}", s.iterations)?;
        writeln!(out, "chase runs:        {}", c.get("chase.runs"))?;
        writeln!(out, "rule firings:      {}", c.get("chase.rule_firings"))?;
        writeln!(out, "ternary flips:     {}", c.get("chase.ternary_flips"))?;
        writeln!(
            out,
            "implication cache: {hits} hits / {misses} misses ({hit_rate:.1}% hit rate)",
        )?;
        writeln!(
            out,
            "wall time:         search {:?}, decide {:?}, guards {:?}, apply {:?}",
            s.search_time, s.decide_time, s.guard_time, s.apply_time
        )?;
    }
    if let Some(doc_src) = options.doc_src {
        let tree = parse_xml(doc_src, trust, &Budget::unlimited())?;
        let transformed = transform_document(&dtd, &result, &tree)?;
        writeln!(out, "=== transformed document ===")?;
        out.push_str(&xnf_xml::to_string_pretty(&transformed));
        let report = verify_lossless(&dtd, &result, &tree)?;
        writeln!(
            out,
            "lossless round-trip: {}",
            if report.ok() { "verified" } else { "FAILED" }
        )?;
    }
    // A partial trace is still shown in full, but the run must not
    // look like a success: exit code 4 (HTTP 503), like every
    // exhaustion.
    if result.exhausted.is_some() {
        return Err(CliError::Exhausted(out));
    }
    Ok(out)
}

/// Output format of [`analyze_spec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalyzeFormat {
    /// The sectioned human rendering.
    #[default]
    Human,
    /// The machine-readable JSON document (`docs/analyze.schema.json`).
    Json,
    /// The FD interaction graph in Graphviz DOT.
    Dot,
}

/// Options of [`analyze_spec`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzeSpecOptions {
    /// Output format.
    pub format: AnalyzeFormat,
    /// `--sigma-only`: disable the implication oracle.
    pub sigma_only: bool,
    /// Parser hardening profile (default [`Trust::Local`]).
    pub trust: Option<Trust>,
}

/// The `analyze` operation: parse and the static decomposition planner,
/// rendered in the requested format.
///
/// # Errors
///
/// A truncated analysis returns its rendering as
/// [`CliError::Exhausted`]; parse/engine failures as [`CliError::Lib`].
pub fn analyze_spec(
    dtd_src: &str,
    fds_src: &str,
    options: &AnalyzeSpecOptions,
    budget: &Budget,
) -> Result<String, CliError> {
    let _op_span = budget.recorder().span("op.analyze", "op");
    let mut out = String::new();
    let trust = options.trust.unwrap_or(Trust::Local);
    let (dtd, sigma) = intake(dtd_src, fds_src, trust, Gate::Off, budget)?;
    let analyze_options = xnf_core::AnalyzeOptions {
        use_implication: !options.sigma_only,
        budget: budget.clone(),
    };
    let analysis = xnf_core::analyze(&dtd, &sigma, &analyze_options)?;
    match options.format {
        AnalyzeFormat::Json => out.push_str(&analysis.to_json()),
        AnalyzeFormat::Dot => out.push_str(&analysis.graph.to_dot()),
        AnalyzeFormat::Human => {
            if let Some(e) = &analysis.exhausted {
                writeln!(out, "*** PARTIAL ANALYSIS — budget exhausted: {e} ***")?;
            }
            writeln!(out, "=== anomalies ({}) ===", analysis.anomalies.len())?;
            for a in &analysis.anomalies {
                let resolved = match a.resolved_by_step {
                    Some(k) => format!("resolved by step {}", k + 1),
                    None => "unresolved in the predicted plan".to_string(),
                };
                writeln!(
                    out,
                    "{}\n  at {} — {} ({resolved})",
                    a.fd, a.path, a.predicted_move
                )?;
            }
            writeln!(
                out,
                "=== minimal cover ({} of {} input FD(s)) ===",
                analysis.cover.len(),
                sigma.len()
            )?;
            for fd in &analysis.cover {
                writeln!(out, "{fd}")?;
            }
            writeln!(
                out,
                "=== fd graph ({} node(s), {} feed edge(s), {} cluster(s)) ===",
                analysis.graph.nodes.len(),
                analysis.graph.feeds.len(),
                analysis.graph.clusters.len()
            )?;
            for cluster in &analysis.graph.clusters {
                if cluster.len() > 1 {
                    writeln!(out, "cluster of {}:", cluster.len())?;
                    for &ix in cluster {
                        writeln!(out, "  {}", analysis.graph.nodes[ix])?;
                    }
                }
            }
            writeln!(
                out,
                "=== dead attributes ({}) ===",
                analysis.dead_attributes.len()
            )?;
            for attr in &analysis.dead_attributes {
                writeln!(out, "{attr}")?;
            }
            writeln!(
                out,
                "=== predicted plan ({} step(s)) ===",
                analysis.plan.len()
            )?;
            for s in &analysis.plan {
                writeln!(out, "{s:?}")?;
            }
            let c = &analysis.cost;
            writeln!(out, "=== predicted cost ===")?;
            writeln!(out, "iterations:      {}", c.iterations)?;
            writeln!(out, "chase runs:      {}", c.chase_runs)?;
            writeln!(
                out,
                "cache:           {} lookups, {} hits, {} misses",
                c.cache_lookups, c.cache_hits, c.cache_misses
            )?;
            writeln!(out, "predicted fuel:  {}", c.predicted_fuel)?;
            writeln!(out, "analyze fuel:    {}", c.analyze_fuel)?;
        }
    }
    // A partial analysis must not look like a success: exit 4 / 503.
    if analysis.exhausted.is_some() {
        return Err(CliError::Exhausted(out));
    }
    Ok(out)
}

/// Options of [`lint_sources`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LintSpecOptions {
    /// `--format json` instead of the human rendering.
    pub json: bool,
    /// `--predictive`: add the XNF2xx forecast tier (needs FDs).
    pub predictive: bool,
    /// Parser hardening profile (default [`Trust::Local`]).
    pub trust: Option<Trust>,
}

/// The `lint` operation over raw sources: parses the spec once, through
/// the step [`intake`] parses with, under the `trust` profile's limits
/// and `budget`, and lints that parse. A text over the limits lints as
/// XNF001.
///
/// # Errors
///
/// A report with hard errors comes back as [`CliError::Lint`] carrying
/// the *rendered report* (the CLI exits 1, the server answers 200 with
/// the diagnostics as the product); exhaustion as
/// [`CliError::Exhausted`].
pub fn lint_sources(
    dtd_src: &str,
    fds_src: Option<&str>,
    options: &LintSpecOptions,
    budget: &Budget,
) -> Result<String, CliError> {
    let _op_span = budget.recorder().span("op.lint", "op");
    if options.predictive && fds_src.is_none() {
        return Err(CliError::Usage(
            "--predictive needs an FD file (the XNF2xx tier analyzes (D, \u{3a3}))".into(),
        ));
    }
    let trust = options.trust.unwrap_or(Trust::Local);
    let (dtd, fds) = parse_spec(dtd_src, fds_src, trust, budget);
    let opt_in = if options.predictive {
        xnf_lint::OptIn::Predictive
    } else {
        xnf_lint::OptIn::None
    };
    let report = xnf_lint::lint(&dtd, fds.as_ref(), opt_in, budget)?;
    let rendered = if options.json {
        let mut j = report.to_json();
        j.push('\n');
        j
    } else {
        report.render_human()
    };
    if report.has_errors() {
        return Err(CliError::Lint(rendered));
    }
    Ok(rendered)
}
