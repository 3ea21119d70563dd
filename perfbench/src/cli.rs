//! The `xnf-tool` workloads: every operation goes through
//! `xnf_cli::run`, the CLI's entry point, on spec and document files —
//! the binary's whole path minus process start-up.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::SeedableRng as _;

use crate::inputs::{self, Rng, Spec};
use crate::layers::{span_name, Layers, SpanRec};
use crate::{calib, median_of, phase_medians, Outcome, Samples, PHASES, SETUPS};

/// One timed invocation and the output it must reproduce.
struct Call {
    op: &'static str,
    args: Vec<String>,
    expect: String,
}

/// The E22 family sizes: enough Figure-4 iterations for the chase and
/// the per-iteration implication cache to dominate, small enough that a
/// pass over every (size, op) pair takes well under a second.
const FAMILY_KS: [usize; 3] = [4, 8, 12];

/// Hubs of the E20 wide spec, as E20 sizes it.
const WIDE_HUBS: usize = 12;

const SPEC_OPS: [&str; 4] = ["is-xnf", "normalize", "analyze", "lint"];

pub fn chase_family(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let make = |dir: &Path| {
        let mut rng = Rng::seed_from_u64(seed);
        let mut specs: Vec<Spec> = FAMILY_KS
            .iter()
            .map(|&k| inputs::family_spec(k, &mut rng))
            .collect();
        specs.push(inputs::wide_spec(WIDE_HUBS, &mut rng));
        let calls = build(dir, &specs, &[]);
        // The family is built so that normalization takes exactly k
        // MoveAttribute steps (one per key FD); the wide spec takes one
        // repair per planted anomaly.
        for (spec, k) in specs.iter().zip(FAMILY_KS.iter().chain([&WIDE_HUBS])) {
            let steps = steps_of(&calls, &spec.name);
            assert_eq!(steps, *k, "{}: normalize must take {k} steps", spec.name);
        }
        calls
    };
    run(seconds, trace, make)
}

pub fn paper_docs(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let make = |dir: &Path| {
        let mut rng = Rng::seed_from_u64(seed);
        let specs: Vec<Spec> = (0..inputs::PAPER_SPECS.len())
            .map(|i| inputs::paper_spec(i, &mut rng))
            .collect();
        let docs: Vec<String> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| inputs::paper_document(i, s, &mut rng))
            .collect();
        let calls = build(dir, &specs, &docs);
        // The repairs the paper walks through: the university's FD3
        // folds `name` into an attribute and moves it to a new `info`
        // element (Fig. 1b), DBLP's @year moves to `issue`, and ebXML
        // is already in XNF.
        for (name, want) in [("university", 2), ("dblp", 1), ("ebxml", 0)] {
            assert_eq!(steps_of(&calls, name), want, "{name}: normalize steps");
        }
        calls
    };
    run(seconds, trace, make)
}

fn steps_of(calls: &[Call], spec: &str) -> usize {
    let call = calls
        .iter()
        .find(|c| c.op == "normalize" && c.args[1].contains(&format!("/{spec}.")))
        .expect("every spec is normalized");
    section_count(&call.expect, "=== steps (").expect("normalize prints its step count")
}

/// Parses the number after `marker`, as in `=== steps (3) ===`.
fn section_count(text: &str, marker: &str) -> Option<usize> {
    let rest = &text[text.find(marker)? + marker.len()..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?]
        .parse()
        .ok()
}

fn path_str(p: &Path) -> String {
    p.to_str().expect("work paths are UTF-8").to_string()
}

fn write(dir: &Path, name: &str, text: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write a workload input file");
    path_str(&path)
}

fn cli(args: &[String]) -> Result<String, String> {
    xnf_cli::run(args).map_err(|e| format!("{}: {e}", args.join(" ")))
}

/// Writes the inputs, runs every call once for its reference output,
/// and checks the outputs against the paper's guarantees: normalize
/// produces an XNF design (Theorem 2), analyze predicts exactly the
/// plan normalize executes, a spec is XNF iff normalize has nothing to
/// do, lint finds no hard error, and shred's round trip verifies.
fn build(dir: &Path, specs: &[Spec], docs: &[String]) -> Vec<Call> {
    let mut calls = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let d = write(dir, &format!("{}.dtd", spec.name), &spec.dtd);
        let f = write(dir, &format!("{}.fds", spec.name), &spec.fds);
        let mut ops: Vec<(&'static str, Vec<String>)> = SPEC_OPS
            .iter()
            .map(|&op| (op, vec![op.to_string(), d.clone(), f.clone()]))
            .collect();
        if let Some(doc) = docs.get(i) {
            let x = write(dir, &format!("{}.xml", spec.name), doc);
            let args = ["shred", &d, &f, &x, "--force", "--format", "json"];
            ops.push(("shred", args.iter().map(|s| s.to_string()).collect()));
        }
        let outputs: Vec<String> = ops
            .iter()
            .map(|(_, args)| cli(args).unwrap_or_else(|e| panic!("reference run failed: {e}")))
            .collect();
        check_spec(dir, spec, &ops, &outputs);
        for ((op, args), expect) in ops.into_iter().zip(outputs) {
            calls.push(Call { op, args, expect });
        }
    }
    calls
}

fn check_spec(dir: &Path, spec: &Spec, ops: &[(&'static str, Vec<String>)], outputs: &[String]) {
    let out = |op: &str| {
        let ix = ops.iter().position(|(o, _)| *o == op).expect("op present");
        outputs[ix].as_str()
    };
    let normalized = out("normalize");
    let steps = section_count(normalized, "=== steps (").expect("step count");
    let in_xnf = out("is-xnf").starts_with("in XNF: yes");
    assert_eq!(in_xnf, steps == 0, "{}: is-xnf vs normalize", spec.name);
    let plan = section_count(out("analyze"), "=== predicted plan (").expect("plan size");
    assert_eq!(plan, steps, "{}: analyze plan vs normalize", spec.name);
    let revised_dtd = between(normalized, "=== revised DTD ===\n", "=== revised FDs ===\n");
    let revised_fds = &normalized[normalized
        .find("=== revised FDs ===\n")
        .expect("revised FDs")
        + "=== revised FDs ===\n".len()..];
    let d = write(dir, &format!("{}.revised.dtd", spec.name), revised_dtd);
    let f = write(dir, &format!("{}.revised.fds", spec.name), revised_fds);
    let verdict = cli(&["is-xnf".to_string(), d, f]).expect("revised spec checks");
    assert!(
        verdict.starts_with("in XNF: yes"),
        "{}: the normalized design must be in XNF, got {verdict}",
        spec.name
    );
    if ops.iter().any(|(o, _)| *o == "shred") {
        assert!(
            out("shred").starts_with("{\n\"schema\""),
            "{}: shred emits the JSON design",
            spec.name
        );
    }
}

fn between<'a>(text: &'a str, start: &str, end: &str) -> &'a str {
    let s = text.find(start).expect("section start") + start.len();
    let e = s + text[s..].find(end).expect("section end");
    &text[s..e]
}

/// Runs a workload in a fresh work directory.
fn run(seconds: f64, trace: bool, make: impl Fn(&Path) -> Vec<Call>) -> Outcome {
    let work = WorkDir::create();
    measure(&work.0, seconds, trace, make)
}

/// A per-process directory for input files, beside the sources inside
/// the checkout; removed on drop, also when a check fails.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> WorkDir {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).expect("create the work directory");
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no concurrent run still has its directory.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Sets up [`SETUPS`] times (reporting the median), then runs whole
/// passes over the calls in each of [`PHASES`] phases until `seconds`
/// have elapsed. Every timing is calibrated against the kernel run just
/// before its pass (see [`calib`]).
fn measure(dir: &Path, seconds: f64, trace: bool, make: impl Fn(&Path) -> Vec<Call>) -> Outcome {
    let mut setup_times = Vec::new();
    let mut calls = Vec::new();
    for _ in 0..SETUPS {
        let scale = calib::scale(1);
        let t0 = Instant::now();
        calls = make(dir);
        setup_times.push(t0.elapsed().as_secs_f64() * scale);
    }
    let trace_path: PathBuf = dir.join("trace.jsonl");
    let trace_args = [
        "--trace".to_string(),
        path_str(&trace_path),
        "--obs-format".to_string(),
        "jsonl".to_string(),
    ];

    let mut phases = Vec::new();
    let mut layers = Layers::default();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    let phase = Duration::from_secs_f64(seconds / PHASES as f64);
    for _ in 0..PHASES {
        let mut samples = Samples::default();
        let until = Instant::now() + phase;
        loop {
            let scale = calib::scale(1);
            for call in &calls {
                let args: Vec<String> = if trace {
                    call.args.iter().chain(&trace_args).cloned().collect()
                } else {
                    call.args.clone()
                };
                let t0 = Instant::now();
                let result = std::hint::black_box(xnf_cli::run(std::hint::black_box(&args)));
                let wall = t0.elapsed().mul_f64(scale);
                attempted += 1;
                match result {
                    Ok(out) => correct &= out == call.expect,
                    Err(_) => {
                        failed += 1;
                        correct = false;
                    }
                }
                samples.record(call.op, wall);
                if trace {
                    // The CLI's recorder keeps every span (it has no span
                    // cap), and every op opens at least one; a trace with
                    // none on the calling thread was cut short.
                    let covered = read_trace(&trace_path, &mut layers, scale);
                    correct &= covered > 0;
                    layers.cli_unspanned_ns += (wall.as_nanos() as u64).saturating_sub(covered);
                }
            }
            samples.end_pass();
            if Instant::now() >= until {
                break;
            }
        }
        // A single caller runs back to back: throughput is calls over
        // the (calibrated) time they took.
        let busy_s = samples.all.iter().sum::<f64>() / 1e3;
        phases.push(samples.e2e_metrics(busy_s));
    }

    let metrics = if trace {
        layers.metrics(attempted)
    } else {
        let mut m = phase_medians(&phases);
        m.push(("setup_s".into(), median_of(&mut setup_times), "s"));
        m
    };
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

/// Folds one exported JSONL trace (`--obs-format jsonl`) into `layers`,
/// span times multiplied by `scale`; returns the (scaled) time its
/// outermost spans cover on the calling thread.
fn read_trace(path: &Path, layers: &mut Layers, scale: f64) -> u64 {
    let text = std::fs::read_to_string(path).expect("the CLI wrote its trace");
    let mut spans = Vec::new();
    for line in text.lines() {
        let v = xnf_serve::json::parse(line).expect("trace lines are JSON");
        let field = |k: &str| v.get(k).expect("trace field present");
        let num = |k: &str| match field(k) {
            xnf_serve::json::Json::Num(n) => *n,
            _ => panic!("trace field `{k}` is numeric"),
        };
        let name = || field("name").as_str().expect("name").to_string();
        match field("type").as_str() {
            Some("span") => spans.push(SpanRec {
                name: span_name(&name()),
                ts_ns: (num("ts_us") * 1e3 * scale).round() as u64,
                dur_ns: (num("dur_us") * 1e3 * scale).round() as u64,
                tid: num("tid") as u64,
            }),
            Some("site") => layers.checkpoints += num("visits") as u64,
            Some("counter") => layers.add_counter(&name(), num("value") as u64),
            _ => {}
        }
    }
    // The thread that entered the CLI opened the earliest span.
    let caller = spans
        .iter()
        .min_by_key(|s| (s.ts_ns, std::cmp::Reverse(s.dur_ns)))
        .map(|s| s.tid);
    layers.add_spans(&mut spans, &caller.into_iter().collect())
}
