//! Exporters: Chrome trace JSON, JSONL event stream, Prometheus text.
//!
//! Every JSON record here is a flat object of known shape, so it is
//! assembled with `write!`, its strings escaped by [`quoted`].

use crate::json::quoted;
use crate::{Histogram, Recorder, SpanEvent};
use std::fmt::Write as _;

/// Output format for an export file; parsed from the CLI's
/// `--obs-format` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsFormat {
    /// Chrome trace event format (load in `chrome://tracing`/Perfetto).
    ChromeTrace,
    /// One JSON object per line.
    Jsonl,
    /// Prometheus text exposition format.
    Prometheus,
}

impl ObsFormat {
    /// Parses a CLI format name (`chrome`, `jsonl`, or `prometheus`).
    pub fn parse(s: &str) -> Option<ObsFormat> {
        match s {
            "chrome" => Some(ObsFormat::ChromeTrace),
            "jsonl" => Some(ObsFormat::Jsonl),
            "prometheus" => Some(ObsFormat::Prometheus),
            _ => None,
        }
    }

    /// The CLI names this parser accepts, for usage messages.
    pub const NAMES: &'static str = "chrome|jsonl|prometheus";
}

/// Renders nanoseconds as a decimal microsecond literal with nanosecond
/// precision (`1234` ns → `1.234`): Chrome trace timestamps are doubles
/// in microseconds, and sub-microsecond spans must not collapse to 0.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Replaces characters outside `[a-zA-Z0-9_]` for Prometheus metric and
/// label-value hygiene (site labels like `chase.saturate.queue` become
/// part of a label value, which allows dots, but counter-derived metric
/// names do not).
fn sanitize_metric(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Escapes `s` for use as a Prometheus label *value* per the text
/// exposition format: backslash, double quote, and line feed are the
/// only characters that need escaping (`\\`, `\"`, `\n`). Untrusted
/// strings (e.g. tenant names) must pass through here before landing
/// inside `label="…"`, or a name like `a"b` corrupts the exposition.
pub fn escape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a span list as a complete Chrome trace event document — the
/// shared body of [`Recorder::chrome_trace`] and the flight recorder's
/// per-request trace endpoint.
pub fn chrome_trace_events(spans: &[SpanEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"ph\":\"X\",\"name\":{},\"cat\":{},\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
            quoted(span.name),
            quoted(span.cat),
            micros(span.ts_ns),
            micros(span.dur_ns),
            span.tid
        );
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

impl Recorder {
    /// Renders one of the three export formats.
    pub fn export(&self, format: ObsFormat) -> String {
        match format {
            ObsFormat::ChromeTrace => self.chrome_trace(),
            ObsFormat::Jsonl => self.jsonl(),
            ObsFormat::Prometheus => self.prometheus(),
        }
    }

    /// Renders the span timeline in Chrome trace event format: a JSON
    /// object with a `traceEvents` array of complete (`ph:"X"`) events,
    /// loadable in `chrome://tracing` and Perfetto.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_events(&self.spans())
    }

    /// Renders every recorded event as one JSON object per line: spans
    /// first (completion order), then checkpoint-site tallies, counters,
    /// and histogram summaries.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for span in self.spans() {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"name\":{},\"cat\":{},\"ts_us\":{},\"dur_us\":{},\"tid\":{}}}",
                quoted(span.name),
                quoted(span.cat),
                micros(span.ts_ns),
                micros(span.dur_ns),
                span.tid
            );
        }
        for (site, tally) in self.sites() {
            let _ = writeln!(
                out,
                "{{\"type\":\"site\",\"site\":{},\"visits\":{},\"units\":{}}}",
                quoted(site),
                tally.visits,
                tally.units
            );
        }
        for (name, value) in self.counters() {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}",
                quoted(name),
                value
            );
        }
        for (name, h) in self.histograms() {
            let _ = writeln!(
                out,
                "{{\"type\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{}}}",
                quoted(name),
                h.count,
                h.sum
            );
        }
        out
    }

    /// Renders counters, checkpoint-site tallies, and span-duration
    /// histograms in Prometheus text exposition format.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let sites = self.sites();
        if !sites.is_empty() {
            out.push_str("# TYPE xnf_checkpoint_visits_total counter\n");
            for (site, tally) in &sites {
                let _ = writeln!(
                    out,
                    "xnf_checkpoint_visits_total{{site=\"{}\"}} {}",
                    escape_label(site),
                    tally.visits
                );
            }
            out.push_str("# TYPE xnf_checkpoint_units_total counter\n");
            for (site, tally) in &sites {
                let _ = writeln!(
                    out,
                    "xnf_checkpoint_units_total{{site=\"{}\"}} {}",
                    escape_label(site),
                    tally.units
                );
            }
        }
        for (name, value) in self.counters() {
            let metric = format!("xnf_{}_total", sanitize_metric(name));
            let _ = writeln!(out, "# TYPE {metric} counter\n{metric} {value}");
        }
        let histograms = self.histograms();
        if !histograms.is_empty() {
            out.push_str("# TYPE xnf_duration_microseconds histogram\n");
            for (name, h) in &histograms {
                let labels = format!("name=\"{}\"", escape_label(name));
                write_histogram(&mut out, "xnf_duration_microseconds", &labels, h);
            }
        }
        out
    }
}

/// Appends one histogram to `out` in Prometheus text exposition format
/// under `metric`, each line carrying `labels` (escaped already):
/// cumulative `_bucket` lines with `le = 2^k − 1` bounds up to the
/// highest non-empty bucket, then `+Inf`, `_sum` and `_count`.
pub(crate) fn write_histogram(out: &mut String, metric: &str, labels: &str, h: &Histogram) {
    let max = h.max_bucket().unwrap_or(0);
    let mut cumulative = 0u64;
    for (k, count) in h.buckets.iter().enumerate().take(max + 1) {
        cumulative += count;
        // Bucket k holds values < 2^k, i.e. le = 2^k − 1.
        let le = (1u128 << k) - 1;
        let _ = writeln!(out, "{metric}_bucket{{{labels},le=\"{le}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{metric}_bucket{{{labels},le=\"+Inf\"}} {}", h.count);
    let _ = writeln!(out, "{metric}_sum{{{labels}}} {}", h.sum);
    let _ = writeln!(out, "{metric}_count{{{labels}}} {}", h.count);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Recorder {
        let r = Recorder::enabled();
        {
            let _outer = r.span("normalize.iteration", "normalize");
            let _inner = r.span("chase.run", "implication");
        }
        r.count_site("chase.run", 0);
        r.count_site("nfa.build.node", 2);
        r.add("chase.runs", 3);
        r
    }

    #[test]
    fn chrome_trace_has_required_fields_per_event() {
        let trace = sample().chrome_trace();
        crate::json::parse(&trace).expect("the trace is JSON");
        assert!(trace.contains("\"traceEvents\""), "{trace}");
        // Every event line carries the five required Chrome fields.
        let events: Vec<&str> = trace.lines().filter(|l| l.contains("\"ph\"")).collect();
        assert_eq!(events.len(), 2, "{trace}");
        for ev in events {
            for field in [
                "\"ph\":\"X\"",
                "\"ts\":",
                "\"dur\":",
                "\"name\":",
                "\"cat\":",
            ] {
                assert!(ev.contains(field), "missing {field} in {ev}");
            }
        }
        assert!(trace.contains("\"name\":\"chase.run\""), "{trace}");
        assert!(trace.contains("\"cat\":\"implication\""), "{trace}");
    }

    #[test]
    fn chrome_trace_spans_nest() {
        let r = sample();
        let spans = r.spans();
        // chase.run completes first and is contained in the iteration.
        assert_eq!(spans[0].name, "chase.run");
        assert_eq!(spans[1].name, "normalize.iteration");
        assert_eq!(spans[0].tid, spans[1].tid);
        assert!(spans[1].ts_ns <= spans[0].ts_ns);
        assert!(spans[0].ts_ns + spans[0].dur_ns <= spans[1].ts_ns + spans[1].dur_ns);
    }

    #[test]
    fn micros_keeps_nanosecond_precision() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(1_234), "1.234");
        assert_eq!(micros(1_000_000), "1000.000");
    }

    #[test]
    fn jsonl_lines_are_each_valid_json() {
        let out = sample().jsonl();
        assert!(!out.is_empty());
        for line in out.lines() {
            crate::json::parse(line).expect("each line is JSON");
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(out.contains("\"type\":\"span\""), "{out}");
        assert!(out.contains("\"type\":\"site\""), "{out}");
        assert!(out.contains("\"type\":\"counter\""), "{out}");
        assert!(out.contains("\"type\":\"histogram\""), "{out}");
    }

    #[test]
    fn prometheus_exposition_shape() {
        let out = sample().prometheus();
        assert!(
            out.contains("xnf_checkpoint_visits_total{site=\"chase.run\"} 1"),
            "{out}"
        );
        assert!(
            out.contains("xnf_checkpoint_units_total{site=\"nfa.build.node\"} 2"),
            "{out}"
        );
        assert!(out.contains("# TYPE xnf_chase_runs_total counter"), "{out}");
        assert!(out.contains("xnf_chase_runs_total 3"), "{out}");
        assert!(out.contains("xnf_duration_microseconds_bucket"), "{out}");
        assert!(
            out.contains("xnf_duration_microseconds_count{name=\"chase.run\"} 1"),
            "{out}"
        );
        // Cumulative buckets end at +Inf with the total count.
        assert!(
            out.contains("xnf_duration_microseconds_bucket{name=\"chase.run\",le=\"+Inf\"} 1"),
            "{out}"
        );
    }

    /// One recorder histogram in full: cumulative buckets up to the
    /// highest non-empty one, then `+Inf`, `_sum` and `_count`, with the
    /// name escaped.
    #[test]
    fn prometheus_histogram_is_pinned() {
        let r = Recorder::enabled();
        for value in [0, 5, 5] {
            r.observe("queue.\"wait", value);
        }
        assert_eq!(
            r.prometheus(),
            "# TYPE xnf_duration_microseconds histogram\n\
             xnf_duration_microseconds_bucket{name=\"queue.\\\"wait\",le=\"0\"} 1\n\
             xnf_duration_microseconds_bucket{name=\"queue.\\\"wait\",le=\"1\"} 1\n\
             xnf_duration_microseconds_bucket{name=\"queue.\\\"wait\",le=\"3\"} 1\n\
             xnf_duration_microseconds_bucket{name=\"queue.\\\"wait\",le=\"7\"} 3\n\
             xnf_duration_microseconds_bucket{name=\"queue.\\\"wait\",le=\"+Inf\"} 3\n\
             xnf_duration_microseconds_sum{name=\"queue.\\\"wait\"} 10\n\
             xnf_duration_microseconds_count{name=\"queue.\\\"wait\"} 3\n"
        );
    }

    #[test]
    fn export_dispatches_on_format() {
        let r = sample();
        assert_eq!(r.export(ObsFormat::ChromeTrace), r.chrome_trace());
        assert_eq!(r.export(ObsFormat::Jsonl), r.jsonl());
        assert_eq!(r.export(ObsFormat::Prometheus), r.prometheus());
        assert_eq!(ObsFormat::parse("chrome"), Some(ObsFormat::ChromeTrace));
        assert_eq!(ObsFormat::parse("jsonl"), Some(ObsFormat::Jsonl));
        assert_eq!(ObsFormat::parse("prometheus"), Some(ObsFormat::Prometheus));
        assert_eq!(ObsFormat::parse("xml"), None);
    }

    #[test]
    fn label_escaping_neutralizes_hostile_values() {
        // The exposition format escapes exactly `\`, `"`, and newline
        // in label values; everything else passes through untouched.
        assert_eq!(escape_label("a\"b\n"), "a\\\"b\\n");
        assert_eq!(escape_label("back\\slash"), "back\\\\slash");
        assert_eq!(escape_label("chase.run"), "chase.run");
        assert_eq!(escape_label("tab\tstays"), "tab\tstays");
    }
}
