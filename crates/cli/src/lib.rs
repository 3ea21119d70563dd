//! # `xnf-cli` — the `xnf-tool` command line front end
//!
//! Subcommands (all file arguments are paths; FDs use the text syntax
//! `courses.course.@cno -> courses.course`, one per line, `#` comments):
//!
//! ```text
//! xnf-tool parse-dtd  <dtd>                  # echo + classify (simple/disjunctive/general, N_D)
//! xnf-tool paths      <dtd>                  # list paths(D), marking EPaths
//! xnf-tool tuples     <dtd> <xml>            # print the tuples_D(T) relation
//! xnf-tool check      <dtd> <xml> <fds>      # conformance + per-FD satisfaction
//! xnf-tool implies    <dtd> <fds> <fd…>      # (D,Σ) ⊢ φ, with witness on refutation
//! xnf-tool is-xnf     <dtd> <fds> [--no-lint]
//!                                            # XNF test, listing anomalous FDs
//! xnf-tool lint       <dtd> [<fds>] [--format json] [--predictive]
//!                                            # static analysis (codes XNF001…); nonzero exit on errors;
//!                                            # --predictive adds the XNF2xx forecast tier
//! xnf-tool analyze    <dtd> <fds> [--format human|json|dot] [--sigma-only]
//!                                            # static decomposition planner: predicted plan, cost,
//!                                            # minimal cover, FD graph, anomaly provenance — without
//!                                            # running normalize
//! xnf-tool normalize  <dtd> <fds> [--sigma-only] [--doc <xml>] [--stats] [--threads <n>] [--no-lint]
//!                                            # run the Figure 4 algorithm
//! xnf-tool verify     <dtd> <fds> [--docs <n>] [--seed <s>] [--no-lint]
//!                                            # end-to-end oracle: normalize, check is-xnf on the
//!                                            # output, and verify losslessness on generated
//!                                            # Σ-satisfying documents (default 100)
//! xnf-tool shred      <dtd> <fds> <xml> [--format sql|json] [--out <f>] [--force] [--no-lint]
//!                                            # compile (D, Σ) to a relational schema and shred the
//!                                            # document into rows (SQL DDL + INSERTs, or JSON); the
//!                                            # round trip back to the document is verified before
//!                                            # anything is emitted. Refuses non-XNF specs (they
//!                                            # materialize redundancy) unless --force
//! xnf-tool keys       <dtd> <fds> <elem-path> [max-size]
//!                                            # discover minimal (relative) keys
//! xnf-tool mvd        <dtd> <xml> <mvd…>     # check MVDs ("lhs ->> dep | indep")
//! ```
//!
//! The governed subcommands — `normalize`, `is-xnf`, `lint`, `analyze`,
//! `verify`, `shred` — additionally accept resource limits:
//!
//! ```text
//! --timeout <secs>      wall-clock deadline (fractional seconds)
//! --fuel <units>        checkpoint fuel (chase steps, derivative steps, …)
//! --max-memory <bytes>  peak governed-allocation cap
//! ```
//!
//! With no limit given the engine runs ungoverned, byte-identical to the
//! flagless invocation. When a limit trips, the command stops cleanly
//! with exit code 4: `normalize` prints the partial step trace completed
//! so far, clearly marked non-final; the others print the structured
//! exhaustion message.
//!
//! The same subcommands accept observability flags (see `xnf-obs`):
//!
//! ```text
//! --trace <file>        write a span trace (default format: Chrome trace
//!                       JSON — load in chrome://tracing or Perfetto)
//! --metrics <file>      write counters/histograms (default: Prometheus text)
//! --obs-format <fmt>    override both: chrome|jsonl|prometheus
//! ```
//!
//! With neither flag the recorder stays disabled and output is
//! byte-identical to the flagless run. Trace/metrics files are written
//! even when the run exhausts its budget — a trace of the partial run is
//! exactly what the flags are for.
//!
//! `normalize` and `is-xnf` run the linter as a preflight: hard lint
//! errors abort with the rendered report and a nonzero exit before the
//! engine touches the spec; `--no-lint` opts out. Warnings and infos never
//! block (and stay silent in preflight — use `lint` to see them). `shred`
//! preflights with the shred tier included (`xnf_lint::lint_spec_shred`),
//! so recursive DTDs and mixed content fail with the `XNF3xx` explanation
//! rather than a bare engine error.
//!
//! The command logic lives in [`run`] so it is unit-testable; `main` only
//! forwards `std::env::args` and prints.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ops;

use std::fmt;
use std::fs;
use std::time::Duration;
use xnf_core::implication::{CounterexampleSearch, Implication};
use xnf_core::{NormalizeOptions, XmlFd, XmlFdSet};
use xnf_dtd::classify::{DtdClass, DtdShapes};
use xnf_dtd::Dtd;
use xnf_govern::{Budget, Recorder};
use xnf_obs::ObsFormat;

/// CLI errors: usage problems, I/O, or any library error.
#[derive(Debug)]
pub enum CliError {
    /// Wrong arguments; the string is the usage text.
    Usage(String),
    /// File read failure.
    Io(String, std::io::Error),
    /// An error from the xnf libraries.
    Lib(String),
    /// Lint diagnostics with at least one error; the string is the fully
    /// rendered report (`main` prints it to stdout, without a prefix).
    Lint(String),
    /// A failed `verify` run; the string is the fully rendered report
    /// (`main` prints it to stdout, without a prefix, and exits nonzero).
    Verify(String),
    /// A `--timeout`/`--fuel`/`--max-memory` limit tripped; the string is
    /// the full output so far (for `normalize`, the partial step trace
    /// marked non-final; otherwise the structured exhaustion message).
    /// `main` prints it to stdout, without a prefix, and exits with 4.
    Exhausted(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(u) => write!(f, "usage: {u}"),
            CliError::Io(path, e) => write!(f, "cannot read `{path}`: {e}"),
            CliError::Lib(e) => write!(f, "{e}"),
            CliError::Lint(report) => write!(f, "{report}"),
            CliError::Verify(report) => write!(f, "{report}"),
            CliError::Exhausted(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<xnf_govern::Exhausted> for CliError {
    fn from(e: xnf_govern::Exhausted) -> Self {
        CliError::Exhausted(format!("budget exhausted: {e}\n"))
    }
}

impl From<xnf_dtd::DtdError> for CliError {
    fn from(e: xnf_dtd::DtdError) -> Self {
        match e {
            xnf_dtd::DtdError::Exhausted(e) => e.into(),
            e => CliError::Lib(e.to_string()),
        }
    }
}

impl From<xnf_core::CoreError> for CliError {
    fn from(e: xnf_core::CoreError) -> Self {
        match e {
            xnf_core::CoreError::Exhausted(e) => e.into(),
            e => CliError::Lib(e.to_string()),
        }
    }
}

impl From<xnf_xml::XmlError> for CliError {
    fn from(e: xnf_xml::XmlError) -> Self {
        match e {
            xnf_xml::XmlError::Exhausted(e) => e.into(),
            e => CliError::Lib(e.to_string()),
        }
    }
}

// Formatting into the output `String` cannot fail in practice; routing
// the impossible error through `Lib` keeps the command bodies free of
// `.expect` calls (enforced by the repository's panic audit).
impl From<std::fmt::Error> for CliError {
    fn from(e: std::fmt::Error) -> Self {
        CliError::Lib(format!("formatting output: {e}"))
    }
}

fn read(path: &str) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(|e| CliError::Io(path.to_string(), e))
}

fn load_dtd(path: &str) -> Result<Dtd, CliError> {
    Ok(xnf_dtd::parse_dtd(&read(path)?)?)
}

fn load_fds(path: &str) -> Result<XmlFdSet, CliError> {
    Ok(XmlFdSet::parse(&read(path)?)?)
}

fn load_xml(path: &str) -> Result<xnf_xml::XmlTree, CliError> {
    Ok(xnf_xml::parse(&read(path)?)?)
}

/// Parses a DTD under the subcommand's budget, so governed runs meter
/// (and, with a recorder installed, trace) the parse phase too. With an
/// ungoverned budget this is exactly [`xnf_dtd::parse_dtd`].
fn parse_governed_dtd(src: &str, budget: &Budget) -> Result<Dtd, CliError> {
    Ok(xnf_dtd::parse_dtd_governed(
        src,
        xnf_dtd::ParseLimits::default(),
        budget,
    )?)
}

/// Runs the linter over raw spec sources and fails with the rendered
/// report when it finds hard errors. Clean specs (and specs with only
/// warnings or infos) pass silently.
pub(crate) fn preflight_lint(dtd_src: &str, fds_src: Option<&str>) -> Result<(), CliError> {
    let report = xnf_lint::lint_spec(dtd_src, fds_src);
    if report.has_errors() {
        Err(CliError::Lint(format!(
            "{}preflight lint failed; fix the errors above or rerun with --no-lint\n",
            report.render_human()
        )))
    } else {
        Ok(())
    }
}

/// [`preflight_lint`] plus the opt-in shred tier (`XNF3xx`): the `shred`
/// subcommand refuses recursive DTDs and mixed content with the full
/// shredding-specific diagnostic instead of a bare engine error.
fn preflight_lint_shred(dtd_src: &str, fds_src: Option<&str>) -> Result<(), CliError> {
    let report = xnf_lint::lint_spec_shred(dtd_src, fds_src, &Budget::unlimited())?;
    if report.has_errors() {
        Err(CliError::Lint(format!(
            "{}preflight lint failed; fix the errors above or rerun with --no-lint\n",
            report.render_human()
        )))
    } else {
        Ok(())
    }
}

/// The shared `--timeout <secs>` / `--fuel <units>` / `--max-memory
/// <bytes>` flags of the governed subcommands. With none given,
/// [`BudgetFlags::build`] returns [`Budget::unlimited`] so the flagless
/// invocation stays byte-identical to the ungoverned engine.
#[derive(Default)]
struct BudgetFlags {
    timeout: Option<f64>,
    fuel: Option<u64>,
    memory: Option<u64>,
}

impl BudgetFlags {
    /// Parses the governance flag at `args[*i]` and its value. Leaves
    /// `*i` on the value, matching the callers' trailing `i += 1`.
    fn set(&mut self, args: &[String], i: &mut usize) -> Result<(), CliError> {
        let flag = args[*i].clone();
        *i += 1;
        let value = args
            .get(*i)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--timeout" => {
                let secs: f64 = value.parse().map_err(|_| {
                    CliError::Usage("--timeout needs a number of seconds (e.g. 2.5)".into())
                })?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(CliError::Usage(
                        "--timeout needs a finite, non-negative number of seconds".into(),
                    ));
                }
                self.timeout = Some(secs);
            }
            "--fuel" => {
                self.fuel = Some(value.parse().map_err(|_| {
                    CliError::Usage("--fuel needs a number of checkpoint units".into())
                })?);
            }
            "--max-memory" => {
                self.memory =
                    Some(value.parse().map_err(|_| {
                        CliError::Usage("--max-memory needs a number of bytes".into())
                    })?);
            }
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
        Ok(())
    }

    fn build(&self) -> Budget {
        if self.timeout.is_none() && self.fuel.is_none() && self.memory.is_none() {
            return Budget::unlimited();
        }
        self.build_with(Recorder::disabled())
    }

    /// Builds a *governed* budget carrying `recorder` — used when any
    /// observability output was requested, since only a governed budget
    /// can carry a recorder. Limits stay optional.
    fn build_with(&self, recorder: Recorder) -> Budget {
        let mut b = Budget::builder().recorder(recorder);
        if let Some(secs) = self.timeout {
            b = b.deadline(Duration::from_secs_f64(secs));
        }
        if let Some(units) = self.fuel {
            b = b.fuel(units);
        }
        if let Some(bytes) = self.memory {
            b = b.memory(bytes);
        }
        b.build()
    }
}

/// Matches the flags [`BudgetFlags::set`] accepts (callers dispatch on
/// this before handing the argument over).
const BUDGET_FLAGS: [&str; 3] = ["--timeout", "--fuel", "--max-memory"];

/// The shared `--trace <file>` / `--metrics <file>` / `--obs-format
/// <fmt>` flags of the governed subcommands. `--trace` captures the span
/// timeline (Chrome trace JSON by default — load it in `chrome://tracing`
/// or Perfetto); `--metrics` captures counters, checkpoint-site tallies,
/// and duration histograms (Prometheus text by default); `--obs-format`
/// overrides either (`chrome|jsonl|prometheus`). With neither file flag
/// given, the recorder stays disabled and the invocation is
/// byte-identical to the unflagged one.
#[derive(Default)]
struct ObsFlags {
    trace: Option<String>,
    metrics: Option<String>,
    format: Option<ObsFormat>,
    recorder: Recorder,
    /// Minted alongside the recorder; failing governed runs report it so
    /// the operator can correlate the report with the exported trace
    /// file (the CLI twin of the `x-request-id` the service echoes).
    trace_id: Option<String>,
}

impl ObsFlags {
    /// Parses the observability flag at `args[*i]` and its value. Leaves
    /// `*i` on the value, matching the callers' trailing `i += 1`.
    fn set(&mut self, args: &[String], i: &mut usize) -> Result<(), CliError> {
        let flag = args[*i].clone();
        *i += 1;
        let value = args
            .get(*i)
            .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--trace" => self.trace = Some(value.clone()),
            "--metrics" => self.metrics = Some(value.clone()),
            "--obs-format" => {
                self.format = Some(ObsFormat::parse(value).ok_or_else(|| {
                    CliError::Usage(format!("--obs-format needs one of {}", ObsFormat::NAMES))
                })?);
            }
            other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
        }
        Ok(())
    }

    /// Builds the subcommand's budget: ungoverned (or limits-only) when
    /// no observability output was requested; otherwise a governed budget
    /// carrying a freshly enabled recorder, kept here for [`write`].
    ///
    /// [`write`]: ObsFlags::write
    fn build_budget(&mut self, budget_flags: &BudgetFlags) -> Budget {
        if self.trace.is_none() && self.metrics.is_none() {
            return budget_flags.build();
        }
        self.recorder = Recorder::enabled();
        self.trace_id = Some(xnf_obs::mint_request_id());
        budget_flags.build_with(self.recorder.clone())
    }

    /// Appends the minted trace id to a failing run's report when
    /// `--trace` was given, so the operator knows which exported trace
    /// file belongs to the failure. Usage and I/O errors pass through
    /// untouched — they have no trace worth pointing at.
    fn tag_failure(&self, err: CliError) -> CliError {
        let (Some(id), Some(path)) = (&self.trace_id, &self.trace) else {
            return err;
        };
        let note = format!("trace id {id}: spans written to `{path}`");
        match err {
            CliError::Lib(m) => CliError::Lib(format!("{m}\n{note}")),
            CliError::Lint(m) => CliError::Lint(format!("{m}{note}\n")),
            CliError::Verify(m) => CliError::Verify(format!("{m}{note}\n")),
            CliError::Exhausted(m) => CliError::Exhausted(format!("{m}{note}\n")),
            other => other,
        }
    }

    /// Writes the requested export files. Callers invoke this right after
    /// the engine returns — *before* propagating its error — so traces
    /// and metrics survive exhaustion, where they matter most.
    fn write(&self) -> Result<(), CliError> {
        if let Some(path) = &self.trace {
            let format = self.format.unwrap_or(ObsFormat::ChromeTrace);
            fs::write(path, self.recorder.export(format))
                .map_err(|e| CliError::Io(path.clone(), e))?;
        }
        if let Some(path) = &self.metrics {
            let format = self.format.unwrap_or(ObsFormat::Prometheus);
            fs::write(path, self.recorder.export(format))
                .map_err(|e| CliError::Io(path.clone(), e))?;
        }
        Ok(())
    }
}

/// Matches the flags [`ObsFlags::set`] accepts.
const OBS_FLAGS: [&str; 3] = ["--trace", "--metrics", "--obs-format"];

const USAGE: &str = "xnf-tool <parse-dtd|paths|tuples|check|implies|is-xnf|lint|analyze|normalize\
                     |verify|shred|keys|mvd> …";

/// Runs one CLI invocation (without the program name) and returns the
/// output text.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let mut out = String::new();
    use std::fmt::Write;
    let cmd = args.first().map_or("", String::as_str);
    match cmd {
        "parse-dtd" => {
            let [_, dtd_path] = args else {
                return Err(CliError::Usage("xnf-tool parse-dtd <dtd>".into()));
            };
            let dtd = load_dtd(dtd_path)?;
            let shapes = DtdShapes::analyze(&dtd);
            writeln!(out, "{dtd}")?;
            writeln!(out, "root: {}", dtd.root_name())?;
            writeln!(out, "elements: {}", dtd.num_elements())?;
            writeln!(out, "size |D|: {}", dtd.size())?;
            writeln!(out, "recursive: {}", dtd.is_recursive())?;
            let class = match shapes.class() {
                DtdClass::Simple => "simple".to_string(),
                DtdClass::Disjunctive { nd } => format!("disjunctive (N_D = {nd})"),
                DtdClass::General => "general (not disjunctive)".to_string(),
            };
            writeln!(out, "class: {class}")?;
        }
        "paths" => {
            let [_, dtd_path] = args else {
                return Err(CliError::Usage("xnf-tool paths <dtd>".into()));
            };
            let dtd = load_dtd(dtd_path)?;
            let paths = dtd.paths()?;
            for p in paths.iter() {
                let kind = if paths.is_element_path(p) { "E" } else { " " };
                writeln!(out, "{kind} {}", paths.format(p))?;
            }
        }
        "tuples" => {
            let [_, dtd_path, xml_path] = args else {
                return Err(CliError::Usage("xnf-tool tuples <dtd> <xml>".into()));
            };
            let dtd = load_dtd(dtd_path)?;
            let tree = load_xml(xml_path)?;
            let paths = dtd.paths()?;
            let rel = xnf_core::tuples_relation(&tree, &dtd, &paths)?;
            writeln!(out, "{rel}")?;
            writeln!(out, "{} tuple(s)", rel.len())?;
        }
        "check" => {
            let [_, dtd_path, xml_path, fds_path] = args else {
                return Err(CliError::Usage("xnf-tool check <dtd> <xml> <fds>".into()));
            };
            let dtd = load_dtd(dtd_path)?;
            let tree = load_xml(xml_path)?;
            let fds = load_fds(fds_path)?;
            match xnf_xml::conforms(&tree, &dtd) {
                Ok(()) => writeln!(out, "conforms: yes")?,
                Err(e) => writeln!(out, "conforms: NO — {e}")?,
            }
            let paths = dtd.paths()?;
            for fd in fds.iter() {
                let ok = fd.satisfied_by(&tree, &dtd, &paths)?;
                writeln!(out, "{}  {fd}", if ok { "holds   " } else { "VIOLATED" })?;
            }
        }
        "implies" => {
            if args.len() < 4 {
                return Err(CliError::Usage(
                    "xnf-tool implies <dtd> <fds> <fd> [<fd>…]".into(),
                ));
            }
            let dtd = load_dtd(&args[1])?;
            let sigma = load_fds(&args[2])?;
            let paths = dtd.paths()?;
            let resolved = sigma.resolve(&paths)?;
            let search = CounterexampleSearch::new(&dtd, &paths);
            for fd_text in &args[3..] {
                let fd: XmlFd = fd_text.parse()?;
                let r = fd.resolve(&paths)?;
                if search.chase().implies(&resolved, &r) {
                    writeln!(out, "implied      {fd}")?;
                } else if let Some(w) = search.find(&resolved, &r) {
                    writeln!(out, "NOT implied  {fd}; witness:")?;
                    out.push_str(&xnf_xml::to_string_pretty(&w.tree));
                } else {
                    writeln!(out, "NOT implied  {fd} (no small witness constructed)")?;
                }
            }
        }
        "is-xnf" => {
            let mut no_lint = false;
            let mut budget_flags = BudgetFlags::default();
            let mut obs_flags = ObsFlags::default();
            let mut files: Vec<&str> = Vec::new();
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--no-lint" => no_lint = true,
                    flag if BUDGET_FLAGS.contains(&flag) => budget_flags.set(args, &mut i)?,
                    flag if OBS_FLAGS.contains(&flag) => obs_flags.set(args, &mut i)?,
                    flag if flag.starts_with("--") => {
                        return Err(CliError::Usage(format!("unknown flag `{flag}`")));
                    }
                    file => files.push(file),
                }
                i += 1;
            }
            let [dtd_path, fds_path] = files[..] else {
                return Err(CliError::Usage(
                    "xnf-tool is-xnf <dtd> <fds> [--no-lint] [--timeout <s>] [--fuel <n>] \
                     [--max-memory <b>] [--trace <f>] [--metrics <f>] [--obs-format <fmt>]"
                        .into(),
                ));
            };
            let dtd_src = read(dtd_path)?;
            let fds_src = read(fds_path)?;
            let budget = obs_flags.build_budget(&budget_flags);
            let options = ops::IsXnfOptions {
                no_lint,
                trust: None,
            };
            let result = ops::is_xnf(&dtd_src, &fds_src, &options, &budget);
            obs_flags.write()?;
            out.push_str(&result.map_err(|e| obs_flags.tag_failure(e))?);
        }
        "normalize" => {
            if args.len() < 3 {
                return Err(CliError::Usage(
                    "xnf-tool normalize <dtd> <fds> [--sigma-only] [--doc <xml>] [--stats] \
                     [--threads <n>] [--no-lint] [--timeout <s>] [--fuel <n>] [--max-memory <b>] \
                     [--trace <f>] [--metrics <f>] [--obs-format <fmt>]"
                        .into(),
                ));
            }
            let mut options = NormalizeOptions::default();
            let mut budget_flags = BudgetFlags::default();
            let mut obs_flags = ObsFlags::default();
            let mut doc_path: Option<&str> = None;
            let mut show_stats = false;
            let mut no_lint = false;
            let mut i = 3;
            while i < args.len() {
                match args[i].as_str() {
                    "--sigma-only" => options.use_implication = false,
                    "--stats" => show_stats = true,
                    "--no-lint" => no_lint = true,
                    flag if BUDGET_FLAGS.contains(&flag) => budget_flags.set(args, &mut i)?,
                    flag if OBS_FLAGS.contains(&flag) => obs_flags.set(args, &mut i)?,
                    "--threads" => {
                        i += 1;
                        options.threads =
                            args.get(i).and_then(|s| s.parse().ok()).ok_or_else(|| {
                                CliError::Usage("--threads needs a number (0 = all cores)".into())
                            })?;
                    }
                    "--doc" => {
                        i += 1;
                        doc_path = Some(
                            args.get(i)
                                .map(String::as_str)
                                .ok_or_else(|| CliError::Usage("--doc needs a file".into()))?,
                        );
                    }
                    other => {
                        return Err(CliError::Usage(format!("unknown flag `{other}`")));
                    }
                }
                i += 1;
            }
            let dtd_src = read(&args[1])?;
            let fds_src = read(&args[2])?;
            let doc_src = doc_path.map(read).transpose()?;
            let budget = obs_flags.build_budget(&budget_flags);
            let spec_options = ops::NormalizeSpecOptions {
                sigma_only: !options.use_implication,
                threads: options.threads,
                stats: show_stats,
                no_lint,
                doc_src: doc_src.as_deref(),
                trust: None,
            };
            // Counter totals are merged inside the op, and trace/metrics
            // files are written even when the engine failed or exhausted
            // — a trace of the partial run is exactly what the flags are
            // for.
            let result = ops::normalize_spec(
                &dtd_src,
                &fds_src,
                &spec_options,
                &budget,
                &obs_flags.recorder,
            );
            obs_flags.write()?;
            out.push_str(&result.map_err(|e| obs_flags.tag_failure(e))?);
        }
        "verify" => {
            let mut docs: usize = 100;
            let mut seed: u64 = 0xA1;
            let mut no_lint = false;
            let mut budget_flags = BudgetFlags::default();
            let mut obs_flags = ObsFlags::default();
            let mut files: Vec<&str> = Vec::new();
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--no-lint" => no_lint = true,
                    flag if BUDGET_FLAGS.contains(&flag) => budget_flags.set(args, &mut i)?,
                    flag if OBS_FLAGS.contains(&flag) => obs_flags.set(args, &mut i)?,
                    "--docs" => {
                        i += 1;
                        docs = args
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| CliError::Usage("--docs needs a number".into()))?;
                    }
                    "--seed" => {
                        i += 1;
                        seed = args
                            .get(i)
                            .and_then(|s| s.parse().ok())
                            .ok_or_else(|| CliError::Usage("--seed needs a number".into()))?;
                    }
                    flag if flag.starts_with("--") => {
                        return Err(CliError::Usage(format!("unknown flag `{flag}`")));
                    }
                    file => files.push(file),
                }
                i += 1;
            }
            let [dtd_path, fds_path] = files[..] else {
                return Err(CliError::Usage(
                    "xnf-tool verify <dtd> <fds> [--docs <n>] [--seed <s>] [--no-lint] \
                     [--timeout <s>] [--fuel <n>] [--max-memory <b>] \
                     [--trace <f>] [--metrics <f>] [--obs-format <fmt>]"
                        .into(),
                ));
            };
            let dtd_src = read(dtd_path)?;
            let fds_src = read(fds_path)?;
            if !no_lint {
                preflight_lint(&dtd_src, Some(&fds_src))?;
            }
            let budget = obs_flags.build_budget(&budget_flags);
            let parse_span = budget.recorder().span("spec.parse", "parse");
            let dtd = parse_governed_dtd(&dtd_src, &budget)?;
            let sigma = XmlFdSet::parse(&fds_src)?;
            drop(parse_span);
            let config = xnf_oracle::SpecOracleConfig {
                docs,
                seed,
                budget,
                ..xnf_oracle::SpecOracleConfig::default()
            };
            let report = xnf_oracle::check_spec(&dtd, &sigma, &config);
            obs_flags.write()?;
            let report = report.map_err(|e| obs_flags.tag_failure(CliError::from(e)))?;
            writeln!(
                out,
                "verify {dtd_path} + {fds_path} ({} step(s))",
                report.steps
            )?;
            out.push_str(&report.render());
            // A generation shortfall silently weakens the oracle, so it
            // fails the run just like a real finding does.
            let generated = report.docs_checked + report.docs_skipped;
            if !report.ok() || generated < report.docs_requested {
                out.push_str("verification FAILED\n");
                return Err(obs_flags.tag_failure(CliError::Verify(out)));
            }
            writeln!(out, "verification PASSED")?;
        }
        "shred" => {
            let mut format_json = false;
            let mut out_path: Option<&str> = None;
            let mut force = false;
            let mut no_lint = false;
            let mut budget_flags = BudgetFlags::default();
            let mut obs_flags = ObsFlags::default();
            let mut files: Vec<&str> = Vec::new();
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--force" => force = true,
                    "--no-lint" => no_lint = true,
                    flag if BUDGET_FLAGS.contains(&flag) => budget_flags.set(args, &mut i)?,
                    flag if OBS_FLAGS.contains(&flag) => obs_flags.set(args, &mut i)?,
                    "--format" => {
                        i += 1;
                        match args.get(i).map(String::as_str) {
                            Some("sql") => format_json = false,
                            Some("json") => format_json = true,
                            _ => {
                                return Err(CliError::Usage(
                                    "--format needs `sql` or `json`".into(),
                                ))
                            }
                        }
                    }
                    "--out" => {
                        i += 1;
                        out_path = Some(
                            args.get(i)
                                .map(String::as_str)
                                .ok_or_else(|| CliError::Usage("--out needs a file".into()))?,
                        );
                    }
                    flag if flag.starts_with("--") => {
                        return Err(CliError::Usage(format!("unknown flag `{flag}`")));
                    }
                    file => files.push(file),
                }
                i += 1;
            }
            let [dtd_path, fds_path, xml_path] = files[..] else {
                return Err(CliError::Usage(
                    "xnf-tool shred <dtd> <fds> <xml> [--format sql|json] [--out <f>] [--force] \
                     [--no-lint] [--timeout <s>] [--fuel <n>] [--max-memory <b>] \
                     [--trace <f>] [--metrics <f>] [--obs-format <fmt>]"
                        .into(),
                ));
            };
            let dtd_src = read(dtd_path)?;
            let fds_src = read(fds_path)?;
            if !no_lint {
                preflight_lint_shred(&dtd_src, Some(&fds_src))?;
            }
            let budget = obs_flags.build_budget(&budget_flags);
            let parse_span = budget.recorder().span("spec.parse", "parse");
            let dtd = parse_governed_dtd(&dtd_src, &budget)?;
            let sigma = XmlFdSet::parse(&fds_src)?;
            drop(parse_span);
            let tree = load_xml(xml_path)?;
            // The whole pipeline runs before a single byte is emitted:
            // exhaustion or any failure yields no partial SQL, and the
            // document→rows→document round trip is verified first.
            let run = || -> Result<(String, usize, usize), CliError> {
                if !force {
                    let violations = xnf_core::anomalous_fds_governed(&dtd, &sigma, &budget)?;
                    if !violations.is_empty() {
                        let mut msg = format!(
                            "spec is not in XNF — {} anomalous FD(s):\n",
                            violations.len()
                        );
                        for v in &violations {
                            msg.push_str(&format!("  {}\n", v.fd));
                        }
                        msg.push_str(
                            "shredding a non-XNF spec materializes redundancy in its tables \
                             (they are not BCNF); normalize first, or rerun with --force",
                        );
                        return Err(CliError::Lib(msg));
                    }
                }
                let schema = xnf_core::compile_schema(&dtd, &sigma, &budget)?;
                let doc = xnf_core::shred_document(&schema, &tree, &budget)?;
                let rebuilt = xnf_core::unshred_document(&schema, &doc, &budget)?;
                if !xnf_xml::ordered_eq(&tree, &rebuilt) {
                    return Err(CliError::Lib(
                        "round-trip check failed: the rebuilt document differs from the \
                         input (this is a bug — no output was written)"
                            .into(),
                    ));
                }
                let payload = if format_json {
                    format!(
                        "{{\n\"schema\": {},\n\"data\": {}\n}}\n",
                        schema.design.to_json(),
                        doc.to_json()
                    )
                } else {
                    let inserts = doc
                        .to_insert_sql(&schema.design)
                        .map_err(|e| CliError::Lib(e.to_string()))?;
                    format!("{}\n{inserts}", schema.design.to_sql())
                };
                Ok((payload, schema.num_tables(), doc.row_count()))
            };
            let result = run();
            obs_flags.write()?;
            let (payload, tables, rows) = result.map_err(|e| obs_flags.tag_failure(e))?;
            match out_path {
                Some(path) => {
                    fs::write(path, &payload).map_err(|e| CliError::Io(path.to_string(), e))?;
                    writeln!(
                        out,
                        "shredded {xml_path}: {tables} table(s), {rows} row(s), \
                         round trip verified -> {path}"
                    )?;
                }
                None => out.push_str(&payload),
            }
        }
        "analyze" => {
            #[derive(PartialEq)]
            enum Format {
                Human,
                Json,
                Dot,
            }
            let mut format = Format::Human;
            let mut options = xnf_core::AnalyzeOptions::default();
            let mut budget_flags = BudgetFlags::default();
            let mut obs_flags = ObsFlags::default();
            let mut files: Vec<&str> = Vec::new();
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--sigma-only" => options.use_implication = false,
                    flag if BUDGET_FLAGS.contains(&flag) => budget_flags.set(args, &mut i)?,
                    flag if OBS_FLAGS.contains(&flag) => obs_flags.set(args, &mut i)?,
                    "--format" => {
                        i += 1;
                        format = match args.get(i).map(String::as_str) {
                            Some("human") => Format::Human,
                            Some("json") => Format::Json,
                            Some("dot") => Format::Dot,
                            _ => {
                                return Err(CliError::Usage(
                                    "--format needs `human`, `json` or `dot`".into(),
                                ))
                            }
                        };
                    }
                    flag if flag.starts_with("--") => {
                        return Err(CliError::Usage(format!("unknown flag `{flag}`")));
                    }
                    file => files.push(file),
                }
                i += 1;
            }
            let [dtd_path, fds_path] = files[..] else {
                return Err(CliError::Usage(
                    "xnf-tool analyze <dtd> <fds> [--format human|json|dot] [--sigma-only] \
                     [--timeout <s>] [--fuel <n>] [--max-memory <b>] \
                     [--trace <f>] [--metrics <f>] [--obs-format <fmt>]"
                        .into(),
                ));
            };
            let dtd_src = read(dtd_path)?;
            let fds_src = read(fds_path)?;
            let budget = obs_flags.build_budget(&budget_flags);
            let spec_options = ops::AnalyzeSpecOptions {
                format: match format {
                    Format::Human => ops::AnalyzeFormat::Human,
                    Format::Json => ops::AnalyzeFormat::Json,
                    Format::Dot => ops::AnalyzeFormat::Dot,
                },
                sigma_only: !options.use_implication,
                trust: None,
            };
            let outcome = ops::analyze_spec(&dtd_src, &fds_src, &spec_options, &budget);
            obs_flags.write()?;
            out.push_str(&outcome.map_err(|e| obs_flags.tag_failure(e))?);
        }
        "lint" => {
            let mut format_json = false;
            let mut predictive = false;
            let mut budget_flags = BudgetFlags::default();
            let mut obs_flags = ObsFlags::default();
            let mut files: Vec<&str> = Vec::new();
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--predictive" => predictive = true,
                    flag if BUDGET_FLAGS.contains(&flag) => budget_flags.set(args, &mut i)?,
                    flag if OBS_FLAGS.contains(&flag) => obs_flags.set(args, &mut i)?,
                    "--format" => {
                        i += 1;
                        match args.get(i).map(String::as_str) {
                            Some("json") => format_json = true,
                            Some("human") => format_json = false,
                            _ => {
                                return Err(CliError::Usage(
                                    "--format needs `json` or `human`".into(),
                                ))
                            }
                        }
                    }
                    flag if flag.starts_with("--") => {
                        return Err(CliError::Usage(format!("unknown flag `{flag}`")));
                    }
                    file => files.push(file),
                }
                i += 1;
            }
            let (dtd_path, fds_path) = match files[..] {
                [dtd] => (dtd, None),
                [dtd, fds] => (dtd, Some(fds)),
                _ => {
                    return Err(CliError::Usage(
                        "xnf-tool lint <dtd> [<fds>] [--format json] [--predictive] \
                         [--timeout <s>] [--fuel <n>] [--max-memory <b>] \
                         [--trace <f>] [--metrics <f>] [--obs-format <fmt>]"
                            .into(),
                    ));
                }
            };
            if predictive && fds_path.is_none() {
                return Err(CliError::Usage(
                    "--predictive needs an FD file (the XNF2xx tier analyzes (D, \u{3a3}))".into(),
                ));
            }
            let dtd_src = read(dtd_path)?;
            let fds_src = fds_path.map(read).transpose()?;
            let budget = obs_flags.build_budget(&budget_flags);
            let options = ops::LintSpecOptions {
                json: format_json,
                predictive,
            };
            let rendered = ops::lint_sources(&dtd_src, fds_src.as_deref(), &options, &budget);
            obs_flags.write()?;
            out.push_str(&rendered.map_err(|e| obs_flags.tag_failure(e))?);
        }
        "keys" => {
            if args.len() < 4 {
                return Err(CliError::Usage(
                    "xnf-tool keys <dtd> <fds> <elem-path> [max-size]".into(),
                ));
            }
            let dtd = load_dtd(&args[1])?;
            let sigma = load_fds(&args[2])?;
            let target: xnf_dtd::Path = args[3]
                .parse()
                .map_err(|e: xnf_dtd::DtdError| CliError::Lib(e.to_string()))?;
            let max_size: usize = args
                .get(4)
                .map(|s| {
                    s.parse()
                        .map_err(|_| CliError::Usage("max-size must be a number".into()))
                })
                .transpose()?
                .unwrap_or(2);
            let keys = xnf_core::keys::find_keys(&dtd, &sigma, &target, max_size)?;
            if keys.is_empty() {
                writeln!(out, "no keys of size <= {max_size} for {target}")?;
            }
            for k in keys {
                writeln!(out, "{k}")?;
            }
        }
        "mvd" => {
            if args.len() < 4 {
                return Err(CliError::Usage(
                    "xnf-tool mvd <dtd> <xml> <mvd> [<mvd>…]".into(),
                ));
            }
            let dtd = load_dtd(&args[1])?;
            let tree = load_xml(&args[2])?;
            let paths = dtd.paths()?;
            for mvd_text in &args[3..] {
                let mvd: xnf_core::mvd::XmlMvd = mvd_text.parse()?;
                let ok = mvd.satisfied_by(&tree, &dtd, &paths)?;
                writeln!(out, "{}  {mvd}", if ok { "holds   " } else { "VIOLATED" })?;
            }
        }
        "" | "-h" | "--help" | "help" => {
            writeln!(out, "usage: {USAGE}")?;
        }
        other => {
            return Err(CliError::Usage(format!(
                "unknown command `{other}`; {USAGE}"
            )));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_tmp(name: &str, content: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push("xnf-cli-tests");
        std::fs::create_dir_all(&p).unwrap();
        p.push(name);
        std::fs::write(&p, content).unwrap();
        p.to_string_lossy().into_owned()
    }

    const DBLP_DTD: &str = "<!ELEMENT db (conf*)>
<!ELEMENT conf (title, issue+)>
<!ELEMENT title (#PCDATA)>
<!ELEMENT issue (inproceedings+)>
<!ELEMENT inproceedings (author+, title, booktitle)>
<!ATTLIST inproceedings key CDATA #REQUIRED pages CDATA #REQUIRED year CDATA #REQUIRED>
<!ELEMENT author (#PCDATA)>
<!ELEMENT booktitle (#PCDATA)>";

    const DBLP_FDS: &str = "db.conf.title.S -> db.conf
db.conf.issue -> db.conf.issue.inproceedings.@year";

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&args).expect("command succeeds")
    }

    #[test]
    fn parse_dtd_reports_class() {
        let dtd = write_tmp("d1.dtd", DBLP_DTD);
        let out = run_ok(&["parse-dtd", &dtd]);
        assert!(out.contains("class: simple"));
        assert!(out.contains("root: db"));
    }

    #[test]
    fn paths_lists_epaths() {
        let dtd = write_tmp("d2.dtd", DBLP_DTD);
        let out = run_ok(&["paths", &dtd]);
        assert!(out.contains("E db.conf.issue"));
        assert!(out.contains("  db.conf.issue.inproceedings.@year"));
    }

    #[test]
    fn is_xnf_detects_violation() {
        let dtd = write_tmp("d3.dtd", DBLP_DTD);
        let fds = write_tmp("d3.fds", DBLP_FDS);
        let out = run_ok(&["is-xnf", &dtd, &fds]);
        assert!(out.contains("in XNF: NO"));
        assert!(out.contains("@year"));
    }

    #[test]
    fn normalize_moves_year() {
        let dtd = write_tmp("d4.dtd", DBLP_DTD);
        let fds = write_tmp("d4.fds", DBLP_FDS);
        let out = run_ok(&["normalize", &dtd, &fds]);
        assert!(out.contains("MoveAttribute"));
        assert!(out.contains("<!ATTLIST issue\n    year CDATA #REQUIRED>"));
    }

    #[test]
    fn verify_runs_the_oracle_end_to_end() {
        let dtd = write_tmp("d7.dtd", DBLP_DTD);
        let fds = write_tmp("d7.fds", DBLP_FDS);
        let out = run_ok(&["verify", &dtd, &fds, "--docs", "10", "--seed", "3"]);
        assert!(out.contains("xnf output check: PASS"), "{out}");
        assert!(out.contains("verification PASSED"), "{out}");
    }

    #[test]
    fn verify_fails_on_a_generation_shortfall() {
        // An FD set whose repair loop cannot succeed from empty documents is
        // not constructible here, so force the shortfall path the simple
        // way: request more documents than max_attempts can ever yield by
        // pointing verify at a spec that needs none — then tamper with the
        // FD file so it no longer parses, exercising the error surface too.
        let dtd = write_tmp("d8.dtd", DBLP_DTD);
        let fds = write_tmp("d8.fds", "db.conf -> \n");
        let args: Vec<String> = ["verify", &dtd, &fds, "--no-lint"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&args).is_err());
    }

    #[test]
    fn normalize_stats_and_threads_flags() {
        let dtd = write_tmp("d4s.dtd", DBLP_DTD);
        let fds = write_tmp("d4s.fds", DBLP_FDS);
        let plain = run_ok(&["normalize", &dtd, &fds]);
        let out = run_ok(&["normalize", &dtd, &fds, "--stats", "--threads", "2"]);
        assert!(out.contains("=== stats ==="));
        assert!(out.contains("chase runs:"));
        assert!(out.contains("implication cache:"));
        assert!(out.contains("% hit rate"));
        // The stats block is purely additive, and threads never change
        // the revised design.
        assert!(out.starts_with(&plain));
        assert!(!plain.contains("=== stats ==="));
    }

    #[test]
    fn normalize_with_document_verifies_losslessness() {
        let dtd = write_tmp("d5.dtd", DBLP_DTD);
        let fds = write_tmp("d5.fds", DBLP_FDS);
        let xml = write_tmp(
            "d5.xml",
            r#"<db><conf><title>PODS</title><issue>
                <inproceedings key="p1" pages="1-10" year="2002">
                  <author>A</author><title>T</title><booktitle>B</booktitle>
                </inproceedings>
              </issue></conf></db>"#,
        );
        let out = run_ok(&["normalize", &dtd, &fds, "--doc", &xml]);
        assert!(out.contains("lossless round-trip: verified"));
        assert!(out.contains(r#"<issue year="2002">"#));
    }

    #[test]
    fn implies_prints_witness() {
        let dtd = write_tmp("d6.dtd", DBLP_DTD);
        let fds = write_tmp("d6.fds", DBLP_FDS);
        let out = run_ok(&[
            "implies",
            &dtd,
            &fds,
            "db.conf.issue -> db.conf.issue.inproceedings.@year",
            "db.conf.issue -> db.conf.issue.inproceedings",
        ]);
        assert!(out.contains("implied      db.conf.issue -> db.conf.issue.inproceedings.@year"));
        assert!(out.contains("NOT implied  db.conf.issue -> db.conf.issue.inproceedings"));
        assert!(out.contains("<db>") || out.contains("<db"));
    }

    #[test]
    fn check_reports_conformance_and_fds() {
        let dtd = write_tmp("d7.dtd", DBLP_DTD);
        let fds = write_tmp("d7.fds", DBLP_FDS);
        let xml = write_tmp(
            "d7.xml",
            r#"<db><conf><title>PODS</title><issue>
                <inproceedings key="p1" pages="1" year="2001">
                  <author>A</author><title>T</title><booktitle>B</booktitle>
                </inproceedings>
                <inproceedings key="p2" pages="2" year="2002">
                  <author>B</author><title>T2</title><booktitle>B</booktitle>
                </inproceedings>
              </issue></conf></db>"#,
        );
        let out = run_ok(&["check", &dtd, &xml, &fds]);
        assert!(out.contains("conforms: yes"));
        assert!(out.contains("VIOLATED"));
        assert!(out.contains("holds"));
    }

    #[test]
    fn tuples_prints_relation() {
        let dtd = write_tmp("d8.dtd", DBLP_DTD);
        let xml = write_tmp(
            "d8.xml",
            r#"<db><conf><title>PODS</title><issue>
                <inproceedings key="p1" pages="1" year="2001">
                  <author>A</author><author>B</author><title>T</title><booktitle>B</booktitle>
                </inproceedings>
              </issue></conf></db>"#,
        );
        let out = run_ok(&["tuples", &dtd, &xml]);
        assert!(out.contains("2 tuple(s)"));
        assert!(out.contains("db.conf.issue.inproceedings.@year"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(matches!(
            run(&["nonsense".to_string()]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["parse-dtd".to_string(), "/nonexistent".to_string()]),
            Err(CliError::Io(..))
        ));
        let bad = write_tmp("bad.dtd", "<!ELEMENT r (unclosed>");
        assert!(matches!(
            run(&["parse-dtd".to_string(), bad]),
            Err(CliError::Lib(_))
        ));
    }

    #[test]
    fn keys_discovers_relative_key() {
        let dtd = write_tmp(
            "d9.dtd",
            "<!ELEMENT courses (course*)>
<!ELEMENT course (title, taken_by)>
<!ATTLIST course cno CDATA #REQUIRED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT taken_by (student*)>
<!ELEMENT student (name, grade)>
<!ATTLIST student sno CDATA #REQUIRED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT grade (#PCDATA)>",
        );
        let fds = write_tmp(
            "d9.fds",
            "courses.course.@cno -> courses.course
courses.course, courses.course.taken_by.student.@sno -> courses.course.taken_by.student",
        );
        let out = run_ok(&["keys", &dtd, &fds, "courses.course.taken_by.student", "2"]);
        assert!(out.contains(
            "{courses.course, courses.course.taken_by.student.@sno} -> courses.course.taken_by.student"
        ));
        let out = run_ok(&["keys", &dtd, &fds, "courses.course"]);
        assert!(out.contains("{courses.course.@cno} -> courses.course"));
    }

    #[test]
    fn mvd_command_checks_swap_semantics() {
        let dtd = write_tmp(
            "d10.dtd",
            "<!ELEMENT courses (course*)>
<!ELEMENT course (title, taken_by)>
<!ATTLIST course cno CDATA #REQUIRED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT taken_by (student*)>
<!ELEMENT student (name, grade)>
<!ATTLIST student sno CDATA #REQUIRED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT grade (#PCDATA)>",
        );
        let xml = write_tmp(
            "d10.xml",
            r#"<courses><course cno="c1"><title>T</title><taken_by>
               <student sno="s1"><name>N1</name><grade>A</grade></student>
               <student sno="s2"><name>N2</name><grade>B</grade></student>
               </taken_by></course></courses>"#,
        );
        let out = run_ok(&[
            "mvd",
            &dtd,
            &xml,
            // Structural independence: title vs taken_by subtrees.
            "courses.course ->> courses.course.title.S | courses.course.taken_by.student.@sno",
            // Name and grade are tied through the student choice.
            "courses.course ->> courses.course.taken_by.student.name.S | courses.course.taken_by.student.grade.S",
        ]);
        assert!(out.contains("holds"));
        assert!(out.contains("VIOLATED"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run_ok(&["help"]);
        assert!(out.contains("usage:"));
    }

    #[test]
    fn lint_clean_spec_succeeds() {
        let dtd = write_tmp("l1.dtd", DBLP_DTD);
        let fds = write_tmp("l1.fds", DBLP_FDS);
        let out = run_ok(&["lint", &dtd, &fds]);
        assert!(out.contains("lint: clean"), "{out}");
    }

    #[test]
    fn lint_dtd_alone_reports_warnings_without_failing() {
        let dtd = write_tmp(
            "l2.dtd",
            "<!ELEMENT r (a)>\n<!ELEMENT a EMPTY>\n<!ELEMENT orphan EMPTY>",
        );
        let out = run_ok(&["lint", &dtd]);
        assert!(out.contains("warning[XNF007]"), "{out}");
        assert!(out.contains("lint: 0 errors, 1 warning"), "{out}");
    }

    #[test]
    fn lint_errors_surface_as_lint_failure() {
        let dtd = write_tmp("l3.dtd", "<!ELEMENT r (ghost)>");
        let args = vec!["lint".to_string(), dtd];
        match run(&args) {
            Err(CliError::Lint(report)) => {
                assert!(report.contains("error[XNF004]"), "{report}");
                assert!(report.contains("lint: 1 error"), "{report}");
            }
            other => panic!("expected lint failure, got {other:?}"),
        }
    }

    #[test]
    fn lint_format_json() {
        let dtd = write_tmp("l4.dtd", DBLP_DTD);
        let fds = write_tmp("l4.fds", DBLP_FDS);
        let out = run_ok(&["lint", &dtd, &fds, "--format", "json"]);
        assert!(out.contains("\"version\": 1"), "{out}");
        assert!(out.contains("\"clean\": true"), "{out}");
        // Errors render as JSON too when requested.
        let bad = write_tmp("l4bad.dtd", "<!ELEMENT r (ghost)>");
        match run(&["lint".to_string(), bad, "--format".into(), "json".into()]) {
            Err(CliError::Lint(report)) => {
                assert!(report.contains("\"code\": \"XNF004\""), "{report}");
                assert!(report.contains("\"clean\": false"), "{report}");
            }
            other => panic!("expected lint failure, got {other:?}"),
        }
    }

    #[test]
    fn lint_predictive_adds_the_forecast_tier() {
        let dtd = write_tmp("lp.dtd", DBLP_DTD);
        let fds = write_tmp("lp.fds", DBLP_FDS);
        // Without the flag the spec is clean; with it the XNF2xx
        // forecast surfaces (warnings never fail the command).
        let plain = run_ok(&["lint", &dtd, &fds]);
        assert!(plain.contains("lint: clean"), "{plain}");
        let predicted = run_ok(&["lint", &dtd, &fds, "--predictive"]);
        assert!(predicted.contains("warning[XNF200]"), "{predicted}");
        assert!(predicted.contains("info[XNF203]"), "{predicted}");
        // JSON carries the same codes.
        let json = run_ok(&["lint", &dtd, &fds, "--predictive", "--format", "json"]);
        assert!(json.contains("\"code\": \"XNF200\""), "{json}");
        // The flag needs an FD file.
        let args = vec!["lint".to_string(), dtd, "--predictive".into()];
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn analyze_predicts_the_dblp_plan() {
        let dtd = write_tmp("a1.dtd", DBLP_DTD);
        let fds = write_tmp("a1.fds", DBLP_FDS);
        let out = run_ok(&["analyze", &dtd, &fds]);
        assert!(out.contains("=== anomalies (1) ==="), "{out}");
        assert!(out.contains("move-attribute"), "{out}");
        assert!(out.contains("=== predicted plan"), "{out}");
        assert!(out.contains("MoveAttribute"), "{out}");
        assert!(out.contains("predicted fuel:"), "{out}");
        // The prediction agrees with the real run's step trace.
        let norm = run_ok(&["normalize", &dtd, &fds]);
        for line in out
            .lines()
            .skip_while(|l| !l.starts_with("=== predicted plan"))
            .skip(1)
            .take_while(|l| !l.starts_with("==="))
        {
            assert!(
                norm.contains(line),
                "plan step missing from normalize: {line}"
            );
        }
    }

    #[test]
    fn analyze_formats_json_and_dot() {
        let dtd = write_tmp("a2.dtd", DBLP_DTD);
        let fds = write_tmp("a2.fds", DBLP_FDS);
        let json = run_ok(&["analyze", &dtd, &fds, "--format", "json"]);
        assert!(json.contains("\"version\": 2"), "{json}");
        assert!(json.contains("\"plan\":"), "{json}");
        assert!(json.contains("\"predicted_fuel\":"), "{json}");
        let dot = run_ok(&["analyze", &dtd, &fds, "--format", "dot"]);
        assert!(dot.starts_with("digraph"), "{dot}");
        let args: Vec<String> = ["analyze", &dtd, &fds, "--format", "yaml"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(run(&args), Err(CliError::Usage(_))));
    }

    #[test]
    fn starved_analyze_exits_with_exhaustion() {
        let dtd = write_tmp("a3.dtd", DBLP_DTD);
        let fds = write_tmp("a3.fds", DBLP_FDS);
        let args: Vec<String> = ["analyze", &dtd, &fds, "--fuel", "25"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match run(&args) {
            Err(CliError::Exhausted(output)) => {
                assert!(
                    output.contains("PARTIAL ANALYSIS") || output.contains("budget exhausted"),
                    "{output}"
                );
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn normalize_preflight_blocks_bad_specs() {
        let dtd = write_tmp("l5.dtd", DBLP_DTD);
        let fds = write_tmp("l5.fds", "db.conf.ghost -> db.conf");
        let args: Vec<String> = ["normalize", &dtd, &fds]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match run(&args) {
            Err(CliError::Lint(report)) => {
                assert!(report.contains("error[XNF102]"), "{report}");
                assert!(report.contains("preflight lint failed"), "{report}");
            }
            other => panic!("expected preflight failure, got {other:?}"),
        }
        // --no-lint hands the spec straight to the engine, which rejects
        // the unknown path itself (a Lib error, not a Lint report).
        let mut args = args;
        args.push("--no-lint".into());
        assert!(matches!(run(&args), Err(CliError::Lib(_))));
    }

    #[test]
    fn is_xnf_preflight_blocks_and_no_lint_opts_out() {
        let dtd = write_tmp("l6.dtd", "<!ELEMENT r (ghost)>");
        let fds = write_tmp("l6.fds", "");
        let args: Vec<String> = ["is-xnf", &dtd, &fds]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match run(&args) {
            Err(CliError::Lint(report)) => {
                assert!(report.contains("error[XNF004]"), "{report}")
            }
            other => panic!("expected preflight failure, got {other:?}"),
        }
        let mut args = args;
        args.push("--no-lint".into());
        assert!(matches!(run(&args), Err(CliError::Lib(_))));
    }

    #[test]
    fn preflight_is_silent_on_clean_specs() {
        let dtd = write_tmp("l7.dtd", DBLP_DTD);
        let fds = write_tmp("l7.fds", DBLP_FDS);
        let linted = run_ok(&["is-xnf", &dtd, &fds]);
        let skipped = run_ok(&["is-xnf", &dtd, &fds, "--no-lint"]);
        assert_eq!(linted, skipped, "preflight must not change clean output");
    }

    #[test]
    fn generous_budget_flags_leave_output_identical() {
        let dtd = write_tmp("g1.dtd", DBLP_DTD);
        let fds = write_tmp("g1.fds", DBLP_FDS);
        for cmd in ["normalize", "is-xnf", "lint", "verify"] {
            let mut plain = vec![cmd, dtd.as_str(), fds.as_str()];
            if cmd == "verify" {
                plain.extend(["--docs", "5", "--seed", "3"]);
            }
            let mut governed = plain.clone();
            governed.extend([
                "--fuel",
                "100000000",
                "--timeout",
                "600",
                "--max-memory",
                "1000000000",
            ]);
            assert_eq!(
                run_ok(&plain),
                run_ok(&governed),
                "{cmd}: generous limits must not change the output"
            );
        }
    }

    #[test]
    fn starved_normalize_returns_partial_marked_non_final() {
        let dtd = write_tmp("g2.dtd", DBLP_DTD);
        let fds = write_tmp("g2.fds", DBLP_FDS);
        // Enough fuel to finish the (governed) DTD parse, little enough to
        // starve the normalize loop itself — the partial-trace path.
        let args: Vec<String> = ["normalize", &dtd, &fds, "--fuel", "20"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match run(&args) {
            Err(CliError::Exhausted(output)) => {
                assert!(output.contains("PARTIAL RESULT"), "{output}");
                assert!(output.contains("NOT"), "{output}");
                assert!(output.contains("=== steps ("), "{output}");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn starved_is_xnf_lint_and_verify_exhaust_cleanly() {
        let dtd = write_tmp("g3.dtd", DBLP_DTD);
        let fds = write_tmp("g3.fds", DBLP_FDS);
        for cmd in ["is-xnf", "lint", "verify"] {
            let args: Vec<String> = [cmd, &dtd, &fds, "--fuel", "2", "--no-lint"]
                .iter()
                .filter(|a| !(cmd == "lint" && **a == "--no-lint"))
                .map(|s| s.to_string())
                .collect();
            match run(&args) {
                Err(CliError::Exhausted(msg)) => {
                    assert!(msg.contains("budget exhausted"), "{cmd}: {msg}")
                }
                other => panic!("{cmd}: expected exhaustion, got {other:?}"),
            }
        }
    }

    const UNIVERSITY_DTD: &str = "<!ELEMENT courses (course*)>
<!ELEMENT course (title, taken_by)>
<!ATTLIST course cno CDATA #REQUIRED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT taken_by (student*)>
<!ELEMENT student (name, grade)>
<!ATTLIST student sno CDATA #REQUIRED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT grade (#PCDATA)>";

    const UNIVERSITY_FDS: &str = "courses.course.@cno -> courses.course
courses.course, courses.course.taken_by.student.@sno -> courses.course.taken_by.student
courses.course.taken_by.student.@sno -> courses.course.taken_by.student.name.S";

    #[test]
    fn shred_emits_sql_for_an_xnf_spec() {
        let dtd = write_tmp(
            "s1.dtd",
            "<!ELEMENT r (a*)> <!ELEMENT a (#PCDATA)> <!ATTLIST a k CDATA #REQUIRED>",
        );
        let fds = write_tmp("s1.fds", "r.a.@k -> r.a");
        let xml = write_tmp("s1.xml", r#"<r><a k="1">x</a><a k="2">y</a></r>"#);
        let out = run_ok(&["shred", &dtd, &fds, &xml]);
        assert!(out.contains("CREATE TABLE \"r\""), "{out}");
        assert!(out.contains("CREATE TABLE \"a\""), "{out}");
        assert!(out.contains("INSERT INTO \"a\""), "{out}");
        assert!(out.contains("'1'"), "{out}");
        // JSON carries the same schema and rows.
        let json = run_ok(&["shred", &dtd, &fds, &xml, "--format", "json"]);
        assert!(json.contains("\"schema\""), "{json}");
        assert!(json.contains("\"data\""), "{json}");
    }

    #[test]
    fn shred_refuses_non_xnf_specs_unless_forced() {
        let dtd = write_tmp("s2.dtd", UNIVERSITY_DTD);
        let fds = write_tmp("s2.fds", UNIVERSITY_FDS);
        let xml = write_tmp(
            "s2.xml",
            r#"<courses><course cno="c1"><title>T</title><taken_by>
               <student sno="s1"><name>N</name><grade>A</grade></student>
               </taken_by></course></courses>"#,
        );
        let args: Vec<String> = ["shred", &dtd, &fds, &xml]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match run(&args) {
            Err(CliError::Lib(msg)) => {
                assert!(msg.contains("not in XNF"), "{msg}");
                assert!(msg.contains("--force"), "{msg}");
            }
            other => panic!("expected refusal, got {other:?}"),
        }
        let mut args = args;
        args.push("--force".into());
        let out = run(&args).expect("--force shreds anyway");
        assert!(out.contains("CREATE TABLE \"student\""), "{out}");
    }

    #[test]
    fn shred_preflight_blocks_recursive_dtds() {
        let dtd = write_tmp("s3.dtd", "<!ELEMENT r (part)>\n<!ELEMENT part (part*)>");
        let fds = write_tmp("s3.fds", "");
        let xml = write_tmp("s3.xml", "<r><part/></r>");
        let args: Vec<String> = ["shred", &dtd, &fds, &xml]
            .iter()
            .map(|s| s.to_string())
            .collect();
        match run(&args) {
            Err(CliError::Lint(report)) => {
                assert!(report.contains("XNF300"), "{report}");
            }
            other => panic!("expected shred-tier lint failure, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_shred_writes_no_partial_file() {
        let dtd = write_tmp("s4.dtd", UNIVERSITY_DTD);
        let fds = write_tmp("s4.fds", UNIVERSITY_FDS);
        let xml = write_tmp(
            "s4.xml",
            r#"<courses><course cno="c1"><title>T</title><taken_by>
               <student sno="s1"><name>N</name><grade>A</grade></student>
               </taken_by></course></courses>"#,
        );
        let out_file = {
            let mut p = std::env::temp_dir();
            p.push("xnf-cli-tests");
            p.push("s4.sql");
            let _ = std::fs::remove_file(&p);
            p
        };
        for fuel in ["1", "30"] {
            let args: Vec<String> = [
                "shred",
                &dtd,
                &fds,
                &xml,
                "--force",
                "--no-lint",
                "--fuel",
                fuel,
                "--out",
                &out_file.to_string_lossy(),
            ]
            .iter()
            .map(|s| s.to_string())
            .collect();
            match run(&args) {
                Err(CliError::Exhausted(msg)) => {
                    assert!(msg.contains("budget exhausted"), "{msg}")
                }
                other => panic!("fuel {fuel}: expected exhaustion, got {other:?}"),
            }
            assert!(!out_file.exists(), "fuel {fuel}: partial SQL file written");
        }
        // With a generous budget the same invocation writes the file.
        let args: Vec<String> = [
            "shred",
            &dtd,
            &fds,
            &xml,
            "--force",
            "--no-lint",
            "--fuel",
            "100000000",
            "--out",
            &out_file.to_string_lossy(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let out = run(&args).expect("generous budget succeeds");
        assert!(out.contains("round trip verified"), "{out}");
        let sql = std::fs::read_to_string(&out_file).unwrap();
        assert!(sql.contains("CREATE TABLE \"courses\""), "{sql}");
    }

    #[test]
    fn failing_traced_runs_report_their_trace_id() {
        let dtd = write_tmp("t9.dtd", UNIVERSITY_DTD);
        let fds = write_tmp("t9.fds", UNIVERSITY_FDS);
        let trace = write_tmp("t9.trace.json", "");
        let args: Vec<String> = [
            "normalize",
            &dtd,
            &fds,
            "--no-lint",
            "--fuel",
            "20",
            "--trace",
            &trace,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let Err(CliError::Exhausted(report)) = run(&args) else {
            panic!("fuel 20 must exhaust");
        };
        // The report names the trace id and the file it points at, and
        // the id has the same 32-hex shape the service mints.
        let line = report
            .lines()
            .find(|l| l.starts_with("trace id "))
            .unwrap_or_else(|| panic!("no trace id in {report}"));
        let id = line
            .trim_start_matches("trace id ")
            .split(':')
            .next()
            .unwrap();
        assert_eq!(id.len(), 32, "{line}");
        assert!(id
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        assert!(line.contains(&trace), "{line}");
        // The trace file itself was still written.
        let exported = std::fs::read_to_string(&trace).unwrap();
        assert!(exported.contains("traceEvents"), "{exported}");
        // Without --trace the same failure carries no trace id line.
        let args: Vec<String> = ["normalize", &dtd, &fds, "--no-lint", "--fuel", "20"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let Err(CliError::Exhausted(report)) = run(&args) else {
            panic!("fuel 20 must exhaust");
        };
        assert!(!report.contains("trace id "), "{report}");
    }

    #[test]
    fn budget_flags_reject_bad_values() {
        let dtd = write_tmp("g4.dtd", DBLP_DTD);
        let fds = write_tmp("g4.fds", DBLP_FDS);
        for bad in [
            vec!["is-xnf", &dtd, &fds, "--fuel"],
            vec!["is-xnf", &dtd, &fds, "--fuel", "lots"],
            vec!["is-xnf", &dtd, &fds, "--timeout", "-1"],
            vec!["is-xnf", &dtd, &fds, "--timeout", "inf"],
            vec!["is-xnf", &dtd, &fds, "--max-memory", "big"],
        ] {
            let args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(
                matches!(run(&args), Err(CliError::Usage(_))),
                "{bad:?} must be a usage error"
            );
        }
    }
}
