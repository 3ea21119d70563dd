//! Static schema analysis and decomposition planning — `xnf analyze`.
//!
//! Answers, in one call, the questions a caller asks of `(D, Σ)` before
//! committing to a design:
//!
//! * **Why** is `(D, Σ)` anomalous — which FD, at which path, and which
//!   normalization move (step 2 move-attribute vs. step 3
//!   create-element) will fire for it ([`AnomalyInfo`]);
//! * **What** will the algorithm do — the exact ordered step list it
//!   emits, including the fresh elements and attributes it mints
//!   ([`Analysis::plan`]);
//! * **How much** will it cost — chase invocations and govern fuel, to
//!   the [`Budget`] tick ([`CostEstimate`]);
//! * plus a **minimal cover** of Σ and the **FD interaction graph**
//!   (which FDs share pivot paths or feed each other), exportable as
//!   JSON and DOT ([`FdGraph`]).
//!
//! # Plan and cost come from one normalize run
//!
//! `analyze` runs [`normalize`] on its input — single-threaded, on the
//! analysis' own metered budget — and reads the plan, the AP trace, the
//! revised `(D, Σ)` and the chase/cache counters off the
//! [`NormalizeResult`]. The plan is therefore the executed step trace,
//! and [`CostEstimate::predicted_fuel`] is the tick bill of that run:
//! the algorithm is deterministic, so a governed `normalize` with the
//! same options charges exactly as many ticks. What the analysis adds
//! is one provenance sweep over the preprocessed input, the minimal
//! cover, the graph and the dead attributes.

use crate::fd::{ResolvedFd, XmlFd, XmlFdSet};
use crate::implication::{Chase, ChaseOutcome, ImplicationCache};
use crate::normalize::{
    find_anomalous_fd, fix_lhs_element_paths, fold_text_paths, normalize, NormalizeOptions,
    NormalizeResult, NormalizeStats, Step,
};
use crate::{CoreError, Result};
use std::collections::{BTreeSet, HashMap};
use xnf_dtd::{Dtd, Path, PathSet, Step as PathStep};
use xnf_govern::{Budget, Exhausted};
use xnf_obs::escape as esc;

/// Options controlling [`analyze`].
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Mirror of [`NormalizeOptions::use_implication`]: plan the full
    /// algorithm (default) or the simplified Proposition 7 variant.
    pub use_implication: bool,
    /// Safety cap on steps (mirror of [`NormalizeOptions::max_steps`]).
    pub max_steps: usize,
    /// Resource budget for the analysis, the `normalize` run it makes
    /// included. Ungoverned callers still get exact fuel accounting: the
    /// analysis meters its work on an internal governed-but-limitless
    /// budget. On exhaustion the analysis degrades gracefully like
    /// `normalize`: a partial [`Analysis`] with [`Analysis::exhausted`]
    /// set.
    pub budget: Budget,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            use_implication: true,
            max_steps: 1000,
            budget: Budget::unlimited(),
        }
    }
}

/// Cost of the [`normalize`] run that [`analyze`] made, plus what the
/// analysis spent in total.
///
/// All `predicted_*` numbers describe a governed `normalize` run with
/// the same options and one thread: `predicted_fuel` is the number of
/// budget ticks ([`Budget::ticks`]) it charges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostEstimate {
    /// Main-loop iterations of the run (including the final all-clear
    /// one).
    pub iterations: u64,
    /// Transformation steps of the run (= `plan.len()`).
    pub steps: u64,
    /// Chase invocations (`chase.run` charges) of the run.
    pub chase_runs: u64,
    /// Implication-oracle lookups (`cache.lookup` charges).
    pub cache_lookups: u64,
    /// Lookups served from the per-iteration memo.
    pub cache_hits: u64,
    /// Lookups that fell through to the chase.
    pub cache_misses: u64,
    /// Budget ticks the run charged.
    pub predicted_fuel: u64,
    /// Budget ticks the whole analysis spent: the run plus provenance
    /// and the minimal cover.
    pub analyze_fuel: u64,
}

/// Provenance of one anomalous FD of the *input* specification: where
/// the anomaly sits and how the predicted plan will resolve it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnomalyInfo {
    /// The anomalous FD, rendered (`S → p.@l` with `S → parent(p.@l)`
    /// not implied).
    pub fd: String,
    /// The offending value path `p.@l` (or `p.S`).
    pub path: String,
    /// The normalization move that will resolve this path:
    /// `"move-attribute"` (step 2), `"create-element"` (step 3),
    /// `"fold-text"` (a mid-loop fold feeding a later step), or
    /// `"rewrite"` (resolved by the Σ-rewriting of another step).
    pub predicted_move: String,
    /// Index into [`Analysis::plan`] of the resolving step, when one
    /// targets this path directly.
    pub resolved_by_step: Option<usize>,
}

/// The FD interaction graph over the minimal cover: which FDs feed each
/// other and which compete for pivot paths.
///
/// Purely structural (path-set intersections, no chase): node `i` is
/// `nodes[i]`; a directed `feeds` edge `i → j` means an RHS path of `i`
/// appears in the LHS of `j` (resolving `j` consumes what `i`
/// determines); an undirected `shares_pivot` edge means two FDs' LHS
/// sets intersect, so the normalization steps they trigger anchor at
/// shared paths and interact. `clusters` are the connected components
/// over both edge kinds — FDs in one cluster must be reasoned about
/// together when predicting schema blow-up.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FdGraph {
    /// Rendered FDs, one per node.
    pub nodes: Vec<String>,
    /// Directed edges `(i, j)`: an RHS path of `i` is an LHS path of `j`.
    pub feeds: Vec<(usize, usize)>,
    /// Undirected edges `(i, j)` with `i < j`: the LHS sets intersect.
    pub shares_pivot: Vec<(usize, usize)>,
    /// Connected components over both edge kinds, each sorted, listed by
    /// smallest member.
    pub clusters: Vec<Vec<usize>>,
}

impl FdGraph {
    /// Builds the interaction graph over `fds` (structural, no chase).
    pub fn new(fds: &[XmlFd]) -> FdGraph {
        let lhs_sets: Vec<BTreeSet<&Path>> =
            fds.iter().map(|fd| fd.lhs().iter().collect()).collect();
        let rhs_sets: Vec<BTreeSet<&Path>> =
            fds.iter().map(|fd| fd.rhs().iter().collect()).collect();
        let mut feeds = Vec::new();
        let mut shares_pivot = Vec::new();
        for i in 0..fds.len() {
            for (j, lhs) in lhs_sets.iter().enumerate() {
                if i != j && !rhs_sets[i].is_disjoint(lhs) {
                    feeds.push((i, j));
                }
            }
            for j in i + 1..fds.len() {
                if !lhs_sets[i].is_disjoint(&lhs_sets[j]) {
                    shares_pivot.push((i, j));
                }
            }
        }
        // Union-find over both edge kinds.
        let mut parent: Vec<usize> = (0..fds.len()).collect();
        fn find(parent: &mut Vec<usize>, x: usize) -> usize {
            if parent[x] != x {
                let root = find(parent, parent[x]);
                parent[x] = root;
            }
            parent[x]
        }
        for &(i, j) in feeds.iter().chain(&shares_pivot) {
            let (a, b) = (find(&mut parent, i), find(&mut parent, j));
            if a != b {
                parent[a] = b;
            }
        }
        let mut by_root: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..fds.len() {
            let root = find(&mut parent, i);
            by_root.entry(root).or_default().push(i);
        }
        let mut clusters: Vec<Vec<usize>> = by_root.into_values().collect();
        for c in &mut clusters {
            c.sort_unstable();
        }
        clusters.sort();
        FdGraph {
            nodes: fds.iter().map(|fd| fd.to_string()).collect(),
            feeds,
            shares_pivot,
            clusters,
        }
    }

    /// Renders the graph in Graphviz DOT: solid arrows for `feeds`,
    /// dashed undirected edges for `shares_pivot`.
    pub fn to_dot(&self) -> String {
        let mut out =
            String::from("digraph fd_interactions {\n  rankdir=LR;\n  node [shape=box];\n");
        for (i, label) in self.nodes.iter().enumerate() {
            out.push_str(&format!("  n{i} [label=\"{}\"];\n", dot_escape(label)));
        }
        for &(i, j) in &self.feeds {
            out.push_str(&format!("  n{i} -> n{j};\n"));
        }
        for &(i, j) in &self.shares_pivot {
            out.push_str(&format!(
                "  n{i} -> n{j} [dir=none, style=dashed, label=\"pivot\"];\n"
            ));
        }
        out.push_str("}\n");
        out
    }
}

/// The output of [`analyze`].
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The DTD the predicted plan will produce.
    pub dtd: Dtd,
    /// The FD set the predicted plan will produce.
    pub sigma: XmlFdSet,
    /// A minimal cover of the *input* Σ: single-path right-hand sides,
    /// left-reduced, with redundant FDs removed (up to the chase
    /// oracle's power — the chase is sound, so every removal is
    /// justified; an unproven implication conservatively keeps the FD).
    pub cover: Vec<XmlFd>,
    /// The FD interaction graph over `cover`.
    pub graph: FdGraph,
    /// Provenance for each anomalous FD of the (preprocessed) input.
    pub anomalies: Vec<AnomalyInfo>,
    /// Attribute paths of the input DTD mentioned by no FD of Σ: no
    /// decomposition step can ever move them, so they stay glued to
    /// their element under every predicted plan.
    pub dead_attributes: Vec<String>,
    /// The plan: the [`normalize`] run's [`Step`] trace.
    pub plan: Vec<Step>,
    /// The run's `|AP(D, Σ)|` trace ([`NormalizeResult::ap_trace`]).
    pub ap_trace: Vec<usize>,
    /// Cost prediction and the analysis' own spend.
    pub cost: CostEstimate,
    /// `Some` iff the analysis budget ran out: the result is partial —
    /// `plan` is a prefix of the full trace and `cover`/`graph` may be
    /// empty (compare [`NormalizeResult::exhausted`]).
    pub exhausted: Option<Exhausted>,
}

/// Analyzes `(D, Σ)`: runs the [`normalize`] it plans (one thread,
/// metered) and adds anomaly provenance, a minimal cover, the FD
/// interaction graph and dead attributes.
pub fn analyze(dtd: &Dtd, sigma: &XmlFdSet, options: &AnalyzeOptions) -> Result<Analysis> {
    if dtd.is_recursive() {
        return Err(CoreError::RecursiveNormalization);
    }
    // The analysis meters itself on a governed budget: the caller's, or
    // (for ungoverned callers) an internal limitless one, so tick deltas
    // are observable either way.
    let meter = if options.budget.is_governed() {
        options.budget.clone()
    } else {
        Budget::builder().build()
    };
    let fuel_start = meter.ticks();

    // ---------------- Preprocessing (identical to `normalize`) --------
    let mut work_dtd = dtd.clone();
    let mut steps: Vec<Step> = Vec::new();
    let mut fds: Vec<XmlFd> = sigma.iter().flat_map(XmlFd::split_rhs).collect();
    {
        let _span = meter.recorder().span("analyze.preprocess", "analyze");
        fold_text_paths(&mut work_dtd, &mut fds, &mut steps)?;
        fix_lhs_element_paths(&mut work_dtd, &mut fds, &mut steps)?;
    }
    let work_sigma = XmlFdSet::from_fds(fds);

    // ---------------- Anomaly provenance ------------------------------
    // One sweep over the preprocessed spec: its violations are the
    // input's anomalous FDs.
    let provenance = {
        let _span = meter.recorder().span("analyze.provenance", "analyze");
        let paths = work_dtd.paths()?;
        let resolved = work_sigma.resolve(&paths)?;
        let chase = Chase::new(&work_dtd, &paths).with_budget(meter.clone());
        let oracle = ImplicationCache::new(&chase, &resolved);
        find_anomalous_fd(&oracle, &paths, &resolved, 1, &meter).map(|violations| {
            violations
                .into_iter()
                .map(|(fd, p)| (fd.to_fd(&paths).to_string(), paths.path(p)))
                .collect::<Vec<_>>()
        })
    };

    // ---------------- The plan: run normalize -------------------------
    let run_start = meter.ticks();
    let (initial_violations, run) = match provenance {
        Ok(violations) => {
            let norm_options = NormalizeOptions {
                use_implication: options.use_implication,
                max_steps: options.max_steps,
                threads: 1,
                budget: meter.clone(),
            };
            (violations, normalize(dtd, sigma, &norm_options)?)
        }
        // Out of budget before the run: the plan stops at preprocessing.
        Err(e) => (
            Vec::new(),
            NormalizeResult {
                dtd: work_dtd,
                sigma: work_sigma,
                steps,
                ap_trace: Vec::new(),
                stages: Vec::new(),
                stats: NormalizeStats::default(),
                exhausted: Some(e),
            },
        ),
    };
    let predicted_fuel = meter.ticks() - run_start;

    // ---------------- Cover, graph, dead attributes -------------------
    let paths = dtd.paths()?;
    let mut exhausted = run.exhausted;
    let cover = if exhausted.is_none() {
        match minimal_cover(dtd, &paths, sigma, &meter) {
            Ok(cover) => cover,
            Err(CoreError::Exhausted(e)) => {
                exhausted = Some(e);
                Vec::new()
            }
            Err(e) => return Err(e),
        }
    } else {
        Vec::new()
    };
    let graph = {
        let _span = meter.recorder().span("analyze.graph", "analyze");
        FdGraph::new(&cover)
    };
    let dead_attributes = dead_attributes(&paths, sigma);
    let anomalies = attribute_anomalies(&initial_violations, &run.steps);

    let counters = &run.stats.chase;
    let cost = CostEstimate {
        iterations: run.stats.iterations,
        steps: run.steps.len() as u64,
        chase_runs: counters.get("chase.runs"),
        cache_lookups: counters.get("cache.hits") + counters.get("cache.misses"),
        cache_hits: counters.get("cache.hits"),
        cache_misses: counters.get("cache.misses"),
        predicted_fuel,
        analyze_fuel: meter.ticks() - fuel_start,
    };
    Ok(Analysis {
        dtd: run.dtd,
        sigma: run.sigma,
        cover,
        graph,
        anomalies,
        dead_attributes,
        plan: run.steps,
        ap_trace: run.ap_trace,
        cost,
        exhausted,
    })
}

/// The backward slice of `fds` that can influence an implication query
/// with right-hand side `rhs`: the fixpoint of "an FD is relevant iff
/// some path it writes interferes with the goal set", where the goal
/// set grows by each relevant FD's sides. Two paths interfere when one
/// step-prefixes the other — vertex equality propagates up the
/// ancestor chain, down through single-occurrence children, and from
/// an element to its attribute and text coordinates, so any
/// comparable pair is conservatively treated as coupled; incomparable
/// coordinates cannot pass facts to each other.
fn relevant_fds(fds: &[XmlFd], rhs: &[Path]) -> Vec<XmlFd> {
    let interferes =
        |a: &Path, b: &Path| a.steps().starts_with(b.steps()) || b.steps().starts_with(a.steps());
    let mut goal: Vec<Path> = rhs.to_vec();
    let mut relevant = vec![false; fds.len()];
    loop {
        let mut grew = false;
        for (i, fd) in fds.iter().enumerate() {
            if relevant[i] {
                continue;
            }
            if fd
                .rhs()
                .iter()
                .any(|q| goal.iter().any(|g| interferes(q, g)))
            {
                relevant[i] = true;
                goal.extend(fd.lhs().iter().cloned());
                goal.extend(fd.rhs().iter().cloned());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    fds.iter()
        .zip(&relevant)
        .filter(|(_, &r)| r)
        .map(|(f, _)| f.clone())
        .collect()
}

/// A textbook minimal cover of Σ, with the chase as the implication
/// oracle: split right-hand sides, left-reduce each FD, then drop FDs
/// implied by the rest. Deterministic: candidates are processed in the
/// canonical (sorted) Σ order.
///
/// Each implication test chases only the [`relevant_fds`] slice of the
/// premise set. The slice is a subset of the full premises, so by
/// monotonicity every `Implied` verdict — hence every reduction the
/// cover performs — stays sound even if the relevance closure were too
/// tight; a missed relevance could only leave the cover less reduced.
/// On specs whose FDs live in disjoint subtrees the slice is empty and
/// a redundancy test costs one premise-free chase instead of a full
/// saturation over Σ.
fn minimal_cover(
    dtd: &Dtd,
    paths: &PathSet,
    sigma: &XmlFdSet,
    meter: &Budget,
) -> Result<Vec<XmlFd>> {
    let _span = meter.recorder().span("analyze.cover", "analyze");
    let chase = Chase::new(dtd, paths).with_budget(meter.clone());
    let implied = |fds: &[XmlFd], fd: &XmlFd| -> Result<bool> {
        meter.checkpoint("analyze.cover")?;
        let resolved: Vec<ResolvedFd> = relevant_fds(fds, fd.rhs())
            .iter()
            .map(|f| f.resolve(paths))
            .collect::<Result<_>>()?;
        let target = fd.resolve(paths)?;
        Ok(matches!(
            chase.try_run(&resolved, &target)?,
            ChaseOutcome::Implied
        ))
    };
    let split = XmlFdSet::from_fds(sigma.iter().flat_map(XmlFd::split_rhs));
    let mut fds: Vec<XmlFd> = split.iter().cloned().collect();
    // Left-reduction: drop extraneous LHS paths while the rest of the
    // current Σ still implies the smaller FD.
    for i in 0..fds.len() {
        let mut lhs: Vec<Path> = fds[i].lhs().to_vec();
        let rhs: Vec<Path> = fds[i].rhs().to_vec();
        let mut j = 0;
        while lhs.len() > 1 && j < lhs.len() {
            let mut smaller = lhs.clone();
            smaller.remove(j);
            let candidate = XmlFd::new(smaller.clone(), rhs.clone()).expect("non-empty sides");
            if implied(&fds, &candidate)? {
                lhs = smaller;
                fds[i] = XmlFd::new(lhs.clone(), rhs.clone()).expect("non-empty sides");
            } else {
                j += 1;
            }
        }
    }
    // Re-canonicalize (reduction can create duplicates), then drop FDs
    // implied by the remaining ones.
    let mut fds: Vec<XmlFd> = XmlFdSet::from_fds(fds).iter().cloned().collect();
    let mut i = 0;
    while i < fds.len() {
        let fd = fds.remove(i);
        if implied(&fds, &fd)? {
            continue; // redundant: stay at position i
        }
        fds.insert(i, fd);
        i += 1;
    }
    Ok(fds)
}

/// The E22 benchmark family: `k` independent key/value fragments, each
/// carrying one anomalous FD `root.keyNN → root.valNN.itemNN.@aNN`.
///
/// Canonical Σ order follows the resolved LHS path ids (the `key`
/// elements, declared in forward order), while normalize resolves
/// anomalies by smallest anomalous RHS path id (the `val` fragments,
/// declared in *reverse*). Each iteration therefore removes the
/// canonically-last remaining FD and re-chases every cross-fragment
/// query on its fresh per-iteration cache: `k` iterations over a
/// shrinking Σ, the many-iteration regime experiment E22 times.
pub fn e22_family(k: usize) -> (Dtd, XmlFdSet) {
    let keys = (1..=k).map(|i| format!("key{i:02}*")).collect::<Vec<_>>();
    let vals = (1..=k)
        .rev()
        .map(|i| format!("val{i:02}*"))
        .collect::<Vec<_>>();
    let mut dtd_src = format!(
        "<!ELEMENT root ({}, {})>\n",
        keys.join(", "),
        vals.join(", ")
    );
    let mut fds_src = String::new();
    for i in 1..=k {
        dtd_src.push_str(&format!(
            "<!ELEMENT key{i:02} EMPTY>\n<!ELEMENT val{i:02} (item{i:02}*)>\n\
             <!ELEMENT item{i:02} EMPTY>\n<!ATTLIST item{i:02} a{i:02} CDATA #REQUIRED>\n"
        ));
        fds_src.push_str(&format!(
            "root.key{i:02} -> root.val{i:02}.item{i:02}.@a{i:02}\n"
        ));
    }
    let dtd = xnf_dtd::parse_dtd(&dtd_src).expect("generated family DTD parses");
    let sigma = XmlFdSet::parse(&fds_src).expect("generated family FDs parse");
    (dtd, sigma)
}

/// Attribute paths of `paths` that no FD of `sigma` mentions.
fn dead_attributes(paths: &PathSet, sigma: &XmlFdSet) -> Vec<String> {
    let mentioned: BTreeSet<Path> = sigma
        .iter()
        .flat_map(|fd| fd.lhs().iter().chain(fd.rhs()).cloned())
        .collect();
    paths
        .iter()
        .filter(|&p| matches!(paths.step(p), PathStep::Attr(_)))
        .map(|p| paths.path(p))
        .filter(|p| !mentioned.contains(p))
        .map(|p| p.to_string())
        .collect()
}

/// Matches each initial violation to the plan step that resolves its
/// path (see [`AnomalyInfo::predicted_move`]).
fn attribute_anomalies(violations: &[(String, Path)], steps: &[Step]) -> Vec<AnomalyInfo> {
    violations
        .iter()
        .map(|(fd, path)| {
            let hit = steps.iter().enumerate().find_map(|(i, step)| match step {
                Step::MoveAttribute { from, .. } if from == path => Some((i, "move-attribute")),
                Step::CreateElement { value_attr, .. } if value_attr == path => {
                    Some((i, "create-element"))
                }
                Step::FoldText { elem_path, .. } if Some(elem_path) == path.parent().as_ref() => {
                    Some((i, "fold-text"))
                }
                _ => None,
            });
            AnomalyInfo {
                fd: fd.clone(),
                path: path.to_string(),
                predicted_move: hit.map_or("rewrite", |(_, kind)| kind).to_string(),
                resolved_by_step: hit.map(|(i, _)| i),
            }
        })
        .collect()
}

impl Analysis {
    /// Renders the analysis as a self-contained JSON document
    /// (`docs/analyze.schema.json` pins the shape; `version` gates
    /// consumers against future changes).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 2,\n");
        out.push_str(&format!("  \"dtd\": \"{}\",\n", esc(&self.dtd.to_string())));
        out.push_str(&format!(
            "  \"sigma\": \"{}\",\n",
            esc(&self.sigma.to_string())
        ));
        out.push_str(&format!(
            "  \"cover\": [{}],\n",
            join(
                self.cover
                    .iter()
                    .map(|fd| format!("\"{}\"", esc(&fd.to_string())))
            )
        ));
        out.push_str("  \"graph\": {\n");
        out.push_str(&format!(
            "    \"nodes\": [{}],\n",
            join(self.graph.nodes.iter().map(|n| format!("\"{}\"", esc(n))))
        ));
        out.push_str(&format!(
            "    \"feeds\": [{}],\n",
            join(self.graph.feeds.iter().map(|&(i, j)| format!("[{i}, {j}]")))
        ));
        out.push_str(&format!(
            "    \"shares_pivot\": [{}],\n",
            join(
                self.graph
                    .shares_pivot
                    .iter()
                    .map(|&(i, j)| format!("[{i}, {j}]"))
            )
        ));
        out.push_str(&format!(
            "    \"clusters\": [{}]\n  }},\n",
            join(
                self.graph
                    .clusters
                    .iter()
                    .map(|c| format!("[{}]", join(c.iter().map(|i| i.to_string()))))
            )
        ));
        out.push_str(&format!(
            "  \"anomalies\": [{}],\n",
            join(self.anomalies.iter().map(|a| format!(
                "{{\"fd\": \"{}\", \"path\": \"{}\", \"predicted_move\": \"{}\", \
                 \"resolved_by_step\": {}}}",
                esc(&a.fd),
                esc(&a.path),
                esc(&a.predicted_move),
                a.resolved_by_step
                    .map_or("null".to_string(), |i| i.to_string())
            )))
        ));
        out.push_str(&format!(
            "  \"dead_attributes\": [{}],\n",
            join(
                self.dead_attributes
                    .iter()
                    .map(|p| format!("\"{}\"", esc(p)))
            )
        ));
        out.push_str(&format!(
            "  \"plan\": [{}],\n",
            join(self.plan.iter().map(step_json))
        ));
        out.push_str(&format!(
            "  \"ap_trace\": [{}],\n",
            join(self.ap_trace.iter().map(|n| n.to_string()))
        ));
        let c = &self.cost;
        out.push_str(&format!(
            "  \"cost\": {{\"iterations\": {}, \"steps\": {}, \"chase_runs\": {}, \
             \"cache_lookups\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"predicted_fuel\": {}, \"analyze_fuel\": {}}},\n",
            c.iterations,
            c.steps,
            c.chase_runs,
            c.cache_lookups,
            c.cache_hits,
            c.cache_misses,
            c.predicted_fuel,
            c.analyze_fuel,
        ));
        out.push_str(&format!(
            "  \"exhausted\": {}\n}}\n",
            self.exhausted
                .as_ref()
                .map_or("null".to_string(), |e| format!(
                    "\"{}\"",
                    esc(&e.to_string())
                ))
        ));
        out
    }
}

/// One plan step as a JSON object (`kind` discriminates).
fn step_json(step: &Step) -> String {
    match step {
        Step::FoldText { elem_path, attr } => format!(
            "{{\"kind\": \"fold_text\", \"elem_path\": \"{}\", \"attr\": \"{}\"}}",
            esc(&elem_path.to_string()),
            esc(attr)
        ),
        Step::AddId { elem_path, attr } => format!(
            "{{\"kind\": \"add_id\", \"elem_path\": \"{}\", \"attr\": \"{}\"}}",
            esc(&elem_path.to_string()),
            esc(attr)
        ),
        Step::MoveAttribute { from, to, new_attr } => format!(
            "{{\"kind\": \"move_attribute\", \"from\": \"{}\", \"to\": \"{}\", \
             \"new_attr\": \"{}\"}}",
            esc(&from.to_string()),
            esc(&to.to_string()),
            esc(new_attr)
        ),
        Step::CreateElement {
            q,
            lhs_attrs,
            value_attr,
            tau,
            tau_children,
        } => format!(
            "{{\"kind\": \"create_element\", \"q\": \"{}\", \"lhs_attrs\": [{}], \
             \"value_attr\": \"{}\", \"tau\": \"{}\", \"tau_children\": [{}]}}",
            esc(&q.to_string()),
            join(
                lhs_attrs
                    .iter()
                    .map(|p| format!("\"{}\"", esc(&p.to_string())))
            ),
            esc(&value_attr.to_string()),
            esc(tau),
            join(tau_children.iter().map(|t| format!("\"{}\"", esc(t))))
        ),
    }
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(", ")
}

/// DOT label escaping (labels are FD renderings: quotes and backslashes).
fn dot_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fd::{DBLP_FDS, UNIVERSITY_FDS};
    use crate::fixtures::{dblp_dtd, university_dtd};

    /// Runs `normalize` on a governed-but-limitless budget, returning
    /// the result plus the exact tick bill.
    fn normalize_metered(dtd: &Dtd, sigma: &XmlFdSet) -> (crate::NormalizeResult, u64) {
        let budget = Budget::builder().build();
        let r = normalize(
            dtd,
            sigma,
            &NormalizeOptions {
                budget: budget.clone(),
                ..NormalizeOptions::default()
            },
        )
        .unwrap();
        assert!(r.exhausted.is_none());
        (r, budget.ticks())
    }

    fn assert_plan_matches(dtd: &Dtd, fds: &str) -> (Analysis, u64) {
        let sigma = XmlFdSet::parse(fds).unwrap();
        let a = analyze(dtd, &sigma, &AnalyzeOptions::default()).unwrap();
        assert!(a.exhausted.is_none());
        let (r, ticks) = normalize_metered(dtd, &sigma);
        assert_eq!(a.plan, r.steps, "predicted plan diverged from the trace");
        assert_eq!(a.ap_trace, r.ap_trace);
        assert_eq!(a.dtd.to_string(), r.dtd.to_string());
        assert_eq!(a.sigma.to_string(), r.sigma.to_string());
        assert_eq!(a.cost.iterations, r.stats.iterations);
        assert_eq!(a.cost.steps, r.steps.len() as u64);
        assert_eq!(a.cost.chase_runs, r.stats.chase.get("chase.runs"));
        assert_eq!(a.cost.cache_hits, r.stats.chase.get("cache.hits"));
        assert_eq!(a.cost.cache_misses, r.stats.chase.get("cache.misses"));
        (a, ticks)
    }

    #[test]
    fn dblp_plan_and_counters_match_normalize() {
        let (a, ticks) = assert_plan_matches(&dblp_dtd(), DBLP_FDS);
        assert_eq!(a.cost.predicted_fuel, ticks);
    }

    #[test]
    fn university_plan_and_counters_match_normalize() {
        let (a, ticks) = assert_plan_matches(&university_dtd(), UNIVERSITY_FDS);
        assert_eq!(a.cost.predicted_fuel, ticks);
    }

    #[test]
    fn xnf_input_predicts_empty_plan_with_exact_fuel() {
        let dtd = university_dtd();
        let sigma = XmlFdSet::parse("courses.course.@cno -> courses.course").unwrap();
        let a = analyze(&dtd, &sigma, &AnalyzeOptions::default()).unwrap();
        assert!(a.plan.is_empty());
        assert!(a.anomalies.is_empty());
        assert_eq!(a.ap_trace, vec![0]);
        let (_, ticks) = normalize_metered(&dtd, &sigma);
        assert_eq!(a.cost.predicted_fuel, ticks);
    }

    #[test]
    fn provenance_names_the_dblp_move() {
        let a = analyze(
            &dblp_dtd(),
            &XmlFdSet::parse(DBLP_FDS).unwrap(),
            &AnalyzeOptions::default(),
        )
        .unwrap();
        let year = a
            .anomalies
            .iter()
            .find(|an| an.path == "db.conf.issue.inproceedings.@year")
            .expect("the @year anomaly is detected");
        assert_eq!(year.predicted_move, "move-attribute");
        assert_eq!(year.resolved_by_step, Some(0));
    }

    #[test]
    fn cover_drops_redundant_and_reduces_lhs() {
        let dtd = dblp_dtd();
        // FD2 plus a weakened copy with an extraneous LHS path, plus an
        // exact duplicate phrased with a two-path RHS: the cover must
        // collapse all of it back to the split originals.
        let sigma = XmlFdSet::parse(
            "db.conf.issue.inproceedings.@key -> db.conf.issue.inproceedings\n\
             db.conf.issue.inproceedings.@key, db.conf.issue.inproceedings.@pages \
             -> db.conf.issue.inproceedings",
        )
        .unwrap();
        let a = analyze(&dtd, &sigma, &AnalyzeOptions::default()).unwrap();
        assert_eq!(
            a.cover.iter().map(|fd| fd.to_string()).collect::<Vec<_>>(),
            vec!["db.conf.issue.inproceedings.@key -> db.conf.issue.inproceedings"]
        );
    }

    #[test]
    fn graph_connects_sharing_and_feeding_fds() {
        let dtd = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        let a = analyze(&dtd, &sigma, &AnalyzeOptions::default()).unwrap();
        assert_eq!(a.graph.nodes.len(), a.cover.len());
        assert!(!a.graph.clusters.is_empty());
        let in_some_cluster: usize = a.graph.clusters.iter().map(Vec::len).sum();
        assert_eq!(in_some_cluster, a.graph.nodes.len());
        let dot = a.graph.to_dot();
        assert!(dot.starts_with("digraph"));
        for i in 0..a.graph.nodes.len() {
            assert!(dot.contains(&format!("n{i} ")));
        }
    }

    #[test]
    fn dblp_dead_attributes_are_key_and_pages() {
        let a = analyze(
            &dblp_dtd(),
            &XmlFdSet::parse(DBLP_FDS).unwrap(),
            &AnalyzeOptions::default(),
        )
        .unwrap();
        assert_eq!(
            a.dead_attributes,
            vec![
                "db.conf.issue.inproceedings.@key",
                "db.conf.issue.inproceedings.@pages"
            ]
        );
    }

    #[test]
    fn paper_specs_stay_tick_exact_with_bounded_overhead() {
        // The prediction is the run's own tick bill, and the analysis'
        // one-shot overhead on top of that run (provenance + cover +
        // graph) stays within one more normalize run.
        for (dtd, fds) in [(university_dtd(), UNIVERSITY_FDS), (dblp_dtd(), DBLP_FDS)] {
            let sigma = XmlFdSet::parse(fds).unwrap();
            let a = analyze(&dtd, &sigma, &AnalyzeOptions::default()).unwrap();
            let (_, ticks) = normalize_metered(&dtd, &sigma);
            assert_eq!(a.cost.predicted_fuel, ticks);
            assert!(
                a.cost.analyze_fuel <= 2 * ticks,
                "analyze spent {} vs normalize {ticks}",
                a.cost.analyze_fuel
            );
        }
    }

    #[test]
    fn governed_analyze_degrades_gracefully() {
        let dtd = university_dtd();
        let sigma = XmlFdSet::parse(UNIVERSITY_FDS).unwrap();
        let full = analyze(&dtd, &sigma, &AnalyzeOptions::default()).unwrap();
        let mut saw_partial = false;
        for fuel in [1, 10, 100, 1_000, 10_000] {
            let opts = AnalyzeOptions {
                budget: Budget::builder().fuel(fuel).build(),
                ..AnalyzeOptions::default()
            };
            let a = analyze(&dtd, &sigma, &opts).unwrap();
            match &a.exhausted {
                Some(_) => {
                    saw_partial = true;
                    assert!(a.plan.len() <= full.plan.len());
                    assert_eq!(a.plan[..], full.plan[..a.plan.len()]);
                }
                None => {
                    assert_eq!(a.plan, full.plan);
                    assert_eq!(a.cover, full.cover);
                }
            }
        }
        assert!(saw_partial, "tiny budgets must exhaust");
    }

    #[test]
    fn rerun_with_larger_budget_converges() {
        let dtd = dblp_dtd();
        let sigma = XmlFdSet::parse(DBLP_FDS).unwrap();
        let full = analyze(&dtd, &sigma, &AnalyzeOptions::default()).unwrap();
        let mut fuel = 1u64;
        loop {
            let opts = AnalyzeOptions {
                budget: Budget::builder().fuel(fuel).build(),
                ..AnalyzeOptions::default()
            };
            let a = analyze(&dtd, &sigma, &opts).unwrap();
            if a.exhausted.is_none() {
                assert_eq!(a.plan, full.plan);
                assert_eq!(a.cost.predicted_fuel, full.cost.predicted_fuel);
                break;
            }
            fuel *= 4;
            assert!(fuel < 1 << 40, "never converged");
        }
    }

    #[test]
    fn recursive_dtd_rejected() {
        let d = xnf_dtd::parse_dtd(
            "<!ELEMENT r (part)>
             <!ELEMENT part (part*)>",
        )
        .unwrap();
        assert!(matches!(
            analyze(&d, &XmlFdSet::new(), &AnalyzeOptions::default()),
            Err(CoreError::RecursiveNormalization)
        ));
    }

    #[test]
    fn json_export_is_well_formed() {
        let a = analyze(
            &dblp_dtd(),
            &XmlFdSet::parse(DBLP_FDS).unwrap(),
            &AnalyzeOptions::default(),
        )
        .unwrap();
        let json = a.to_json();
        assert!(json.contains("\"version\": 2"));
        assert!(json.contains("\"predicted_fuel\""));
        assert!(json.contains("\"move_attribute\""));
        // Balanced braces/brackets outside strings — a cheap
        // well-formedness smoke (the schema job in CI does it properly).
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut escaped = false;
        for c in json.chars() {
            if escaped {
                escaped = false;
                continue;
            }
            match c {
                '\\' if in_str => escaped = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }
}
