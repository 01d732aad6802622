//! Renderers for [`ObsSnapshot`]: human-readable table, JSON, Prometheus text.
//!
//! All three are hand-rendered strings, following the same convention as the
//! repository's `BENCH_*.json` writers: stable key order, no trailing whitespace, so
//! outputs diff cleanly across runs.

use crate::histogram::HistogramSnapshot;
use crate::registry::ObsSnapshot;
use std::fmt::Write as _;

/// Quantiles reported by every renderer.
const QUANTILES: [(&str, f64); 3] = [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)];

fn fmt_us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

/// Render the snapshot as an indented, human-readable summary table.
///
/// This is what the example binaries print at end-of-run: span totals,
/// per-outcome tallies, a latency row per stage (queue / exec / end-to-end,
/// microseconds), and every non-zero event counter.
pub fn render_table(snap: &ObsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  observability summary ({}):",
        if snap.enabled {
            "tracing on"
        } else {
            "tracing off"
        }
    );
    let _ = writeln!(
        out,
        "    jobs: {} started, {} finished, {} open (ring {}/{}, {} dropped)",
        snap.spans.started,
        snap.spans.finished,
        snap.spans.open,
        snap.spans.finished.min(snap.spans.ring_capacity as u64),
        snap.spans.ring_capacity,
        snap.spans.dropped
    );
    let outcomes: Vec<String> = snap
        .spans
        .outcomes
        .iter()
        .filter(|&&(_, n)| n > 0)
        .map(|&(label, n)| format!("{label} {n}"))
        .collect();
    if !outcomes.is_empty() {
        let _ = writeln!(out, "    outcomes: {}", outcomes.join(", "));
    }
    let stages = [
        ("queue", &snap.queue_latency),
        ("exec", &snap.exec_latency),
        ("e2e", &snap.e2e_latency),
    ];
    if stages.iter().any(|(_, h)| !h.is_empty()) {
        let _ = writeln!(
            out,
            "    latency (µs) {:>10} {:>10} {:>10} {:>10} {:>8}",
            "p50", "p90", "p99", "max", "count"
        );
        for (stage, hist) in stages {
            if hist.is_empty() {
                continue;
            }
            let q = |q: f64| fmt_us(hist.quantile(q).unwrap_or(0));
            let _ = writeln!(
                out,
                "      {stage:<10} {:>10} {:>10} {:>10} {:>10} {:>8}",
                q(0.50),
                q(0.90),
                q(0.99),
                fmt_us(hist.max),
                hist.count
            );
        }
    }
    let mut events: Vec<String> = snap
        .counters
        .iter()
        .filter(|&&(_, n)| n > 0)
        .map(|&(name, n)| format!("{name} {n}"))
        .collect();
    events.extend(
        snap.labeled
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(name, n)| format!("{name} {n}")),
    );
    let _ = writeln!(
        out,
        "    events: {}",
        if events.is_empty() {
            "(none)".to_string()
        } else {
            events.join(", ")
        }
    );
    out
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn hist_json(hist: &HistogramSnapshot) -> String {
    let mut buckets = String::from("[");
    let mut first = true;
    for (idx, &n) in hist.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if !first {
            buckets.push_str(", ");
        }
        first = false;
        let _ = write!(buckets, "[{idx}, {n}]");
    }
    buckets.push(']');
    let quantiles: Vec<String> = QUANTILES
        .iter()
        .map(|&(name, q)| format!("\"{name}\": {}", hist.quantile(q).unwrap_or(0)))
        .collect();
    format!(
        "{{\"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, {}, \"nonzero_buckets\": {}}}",
        hist.count,
        if hist.count == 0 { 0 } else { hist.sum },
        if hist.count == 0 { 0 } else { hist.min },
        hist.max,
        quantiles.join(", "),
        buckets
    )
}

/// Render the snapshot as a single JSON document.
///
/// Schema (stable key order): `enabled`, `spans` (totals + per-outcome map),
/// `latency_ns.{queue,exec,e2e}` (count/sum/min/max/quantiles/non-zero log₂
/// buckets as `[index, count]` pairs), and `events` (counter name → total).
pub fn to_json(snap: &ObsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"enabled\": {},", snap.enabled);
    let outcomes: Vec<String> = snap
        .spans
        .outcomes
        .iter()
        .map(|&(label, n)| format!("\"{label}\": {n}"))
        .collect();
    let _ = writeln!(
        out,
        "  \"spans\": {{\"started\": {}, \"finished\": {}, \"open\": {}, \"dropped\": {}, \"ring_capacity\": {}, \"outcomes\": {{{}}}}},",
        snap.spans.started,
        snap.spans.finished,
        snap.spans.open,
        snap.spans.dropped,
        snap.spans.ring_capacity,
        outcomes.join(", ")
    );
    let _ = writeln!(out, "  \"latency_ns\": {{");
    let _ = writeln!(out, "    \"queue\": {},", hist_json(&snap.queue_latency));
    let _ = writeln!(out, "    \"exec\": {},", hist_json(&snap.exec_latency));
    let _ = writeln!(out, "    \"e2e\": {}", hist_json(&snap.e2e_latency));
    let _ = writeln!(out, "  }},");
    let mut events: Vec<String> = snap
        .counters
        .iter()
        .map(|&(name, n)| format!("\"{}\": {n}", json_escape(name)))
        .collect();
    events.extend(
        snap.labeled
            .iter()
            .map(|(name, n)| format!("\"{}\": {n}", json_escape(name))),
    );
    let _ = writeln!(out, "  \"events\": {{{}}}", events.join(", "));
    out.push('}');
    out
}

/// Render the snapshot as Prometheus-style exposition text.
///
/// Metric families: `<prefix>_events_total{event=...}` (one series per
/// counter), `<prefix>_spans_total{state=started|finished|open|dropped}`,
/// `<prefix>_span_outcomes_total{outcome=...}`, and per stage
/// `<prefix>_latency_ns{stage=...,quantile=...}` summaries with `_sum` /
/// `_count` companions.
pub fn to_prometheus(snap: &ObsSnapshot, prefix: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# TYPE {prefix}_events_total counter");
    for &(name, n) in &snap.counters {
        let _ = writeln!(out, "{prefix}_events_total{{event=\"{name}\"}} {n}");
    }
    for (name, n) in &snap.labeled {
        let _ = writeln!(out, "{prefix}_events_total{{event=\"{name}\"}} {n}");
    }
    let _ = writeln!(out, "# TYPE {prefix}_spans_total gauge");
    for (state, n) in [
        ("started", snap.spans.started),
        ("finished", snap.spans.finished),
        ("open", snap.spans.open),
        ("dropped", snap.spans.dropped),
    ] {
        let _ = writeln!(out, "{prefix}_spans_total{{state=\"{state}\"}} {n}");
    }
    let _ = writeln!(out, "# TYPE {prefix}_span_outcomes_total counter");
    for &(label, n) in &snap.spans.outcomes {
        let _ = writeln!(
            out,
            "{prefix}_span_outcomes_total{{outcome=\"{label}\"}} {n}"
        );
    }
    let _ = writeln!(out, "# TYPE {prefix}_latency_ns summary");
    for (stage, hist) in [
        ("queue", &snap.queue_latency),
        ("exec", &snap.exec_latency),
        ("e2e", &snap.e2e_latency),
    ] {
        for &(_, q) in &QUANTILES {
            let _ = writeln!(
                out,
                "{prefix}_latency_ns{{stage=\"{stage}\",quantile=\"{q}\"}} {}",
                hist.quantile(q).unwrap_or(0)
            );
        }
        let _ = writeln!(
            out,
            "{prefix}_latency_ns_sum{{stage=\"{stage}\"}} {}",
            if hist.count == 0 { 0 } else { hist.sum }
        );
        let _ = writeln!(
            out,
            "{prefix}_latency_ns_count{{stage=\"{stage}\"}} {}",
            hist.count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::span::{Outcome, SpanLabels};

    const NAMES: &[&str] = &["rejected", "retries"];

    fn populated() -> ObsSnapshot {
        let reg = Registry::with_capacity(NAMES, true, 16);
        reg.counters().add(0, 4);
        let span = reg
            .start_span(SpanLabels {
                client: 0,
                backend: "sv".into(),
                priority: 5,
                kind: "evaluate",
                worker: None,
            })
            .unwrap();
        span.mark_scheduled(0);
        span.mark_exec();
        span.finish(Outcome::Completed);
        reg.snapshot()
    }

    #[test]
    fn table_mentions_outcomes_and_events() {
        let table = render_table(&populated());
        assert!(table.contains("completed 1"), "{table}");
        assert!(table.contains("rejected 4"), "{table}");
        assert!(table.contains("e2e"), "{table}");
    }

    #[test]
    fn json_is_balanced_and_has_keys() {
        let json = to_json(&populated());
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        for key in [
            "\"enabled\"",
            "\"spans\"",
            "\"latency_ns\"",
            "\"events\"",
            "\"rejected\": 4",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn prometheus_has_every_family() {
        let text = to_prometheus(&populated(), "qexec");
        for family in [
            "qexec_events_total{event=\"rejected\"} 4",
            "qexec_spans_total{state=\"finished\"} 1",
            "qexec_span_outcomes_total{outcome=\"completed\"} 1",
            "qexec_latency_ns{stage=\"e2e\",quantile=\"0.5\"}",
            "qexec_latency_ns_count{stage=\"exec\"} 1",
        ] {
            assert!(text.contains(family), "missing {family} in {text}");
        }
    }
}
