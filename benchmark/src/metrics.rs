//! The names, units, directions and bounds of every metric — the one table that
//! `BENCHMARK.json` mirrors (a test keeps the two in step) and that later issues refer
//! to verbatim.

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen (end-to-end only).
    pub bound: f64,
}

const fn gated(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better: lower,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> MetricDef {
    gated(name, unit, lower, 0.0)
}

/// End-to-end metrics, measured with tracing off; every workload reports every one and
/// none may ever read 0.  That rule keeps two of the issue's six out of this list:
/// `failed_frac`, whose expected value *is* 0 (it is the result line's `failed` /
/// `attempted` / `correct` fields and a layer metric of the same name), and
/// `wait_p50_us`, which exists only where the harness is the caller (the net
/// workloads) and is a layer metric under the same name.
pub const END_TO_END: &[MetricDef] = &[
    gated("setup_s", "s", true, 0.25),
    gated("run_s", "s", true, 0.25),
    gated("jobs_per_s", "jobs/s", false, 0.25),
    gated("peak_rss_mb", "MB", true, 0.10),
];

/// Per-layer metrics, from the traced run (and its untraced twin in the same process).
/// Every workload reports every one; a layer the workload does not touch reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("failed_frac", "fraction", true),
    layer("process.cpu_s", "s", true),
    layer("process.cpu_util", "x", true),
    layer("process.vol_ctx_switches_per_job", "count", true),
    layer("treevqa.rounds", "count", true),
    layer("treevqa.splits", "count", true),
    layer("treevqa.critical_depth", "count", true),
    layer("treevqa.clusters_final", "count", true),
    layer("treevqa.charged_jobs", "count", true),
    layer("treevqa.probe_jobs", "count", true),
    layer("treevqa.total_shots", "shots", true),
    layer("treevqa.min_fidelity", "fraction", false),
    layer("treevqa.shots_to_fid_0_7", "shots", true),
    layer("treevqa.shot_reduction_x", "x", false),
    layer("treevqa.self_s", "s", true),
    layer("treevqa.self_pct", "%", true),
    layer("cluster.bipartition_us", "us", true),
    layer("qopt.step_us", "us", true),
    layer("qexec.jobs", "count", true),
    layer("qexec.slates", "count", true),
    layer("qexec.jobs_per_slate_mean", "count", false),
    layer("qexec.queue_wait_p50_us", "us", true),
    layer("qexec.queue_wait_p99_us", "us", true),
    layer("qexec.exec_p50_us", "us", true),
    layer("qexec.self_us_per_job", "us", true),
    layer("qexec.failed", "count", true),
    layer("qexec.retries", "count", true),
    layer("vqa.batch_calls", "count", true),
    layer("vqa.probe_calls", "count", true),
    layer("vqa.batch_size_mean", "count", false),
    layer("vqa.busy_s", "s", true),
    layer("vqa.busy_pct", "%", true),
    layer("vqa.us_per_job", "us", true),
    layer("vqa.self_us_per_job", "us", true),
    layer("vqa.cache_hit_ratio", "fraction", false),
    layer("qsim.compile_us", "us", true),
    layer("qsim.ops_per_circuit", "count", true),
    layer("qsim.execute_us_per_job", "us", true),
    layer("qsim.sample_us_per_job", "us", true),
    layer("qsim.bytes_per_execute", "bytes", true),
    layer("qop.expect_us_per_job", "us", true),
    layer("qop.expect_calls_per_job", "count", true),
    layer("qop.terms_per_job", "count", true),
    layer("qop.lanczos_s", "s", true),
    layer("qnoise.trajectories_per_job", "count", true),
    layer("qnoise.sample_us_per_traj", "us", true),
    layer("qnoise.exec_us_per_traj", "us", true),
    layer("qrng.draws_per_job", "count", true),
    layer("qnet.frames_in", "count", true),
    layer("qnet.frames_out", "count", true),
    layer("qnet.batches", "count", true),
    layer("qnet.bytes_per_job", "bytes", true),
    layer("qnet.errors_sent", "count", true),
    layer("qnet.encode_us_per_job", "us", true),
    layer("qnet.decode_us_per_job", "us", true),
    layer("qnet.self_us_per_job", "us", true),
    layer("wait_p50_us", "us", true),
    layer("qnet.wait_p99_us", "us", true),
    layer("qnet.wait_p999_us", "us", true),
    layer("qchem.build_s", "s", true),
    layer("qgraph.build_s", "s", true),
    layer("qcircuit.build_us", "us", true),
    layer("qobs.trace_overhead_pct", "%", true),
    layer("qobs.spans_dropped", "count", true),
];

/// Counts that must repeat exactly between two runs of one commit at one seed; a
/// performance change that moves one of them changed the program, not its speed.
pub const EXACT_COUNTS: &[&str] = &[
    "qrng.draws_per_job",
    "treevqa.total_shots",
    "treevqa.splits",
    "qexec.jobs",
    "qnet.frames_in",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::{RUN_SECONDS, WORKLOADS};

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
            assert!(seen.insert(m.name), "{} is used twice", m.name);
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!((1..=16).contains(&END_TO_END.len()) && (1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.lower_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == *name));
        }
    }

    /// `BENCHMARK.json` at the repo root must say what this table says.
    #[test]
    fn benchmark_json_mirrors_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, table, with_bound) in [
            ("end_to_end", END_TO_END, true),
            ("per_layer", PER_LAYER, false),
        ] {
            let listed = doc.get(key).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(def.unit));
                let better = if def.lower_is_better {
                    "lower"
                } else {
                    "higher"
                };
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(better),
                    "{}",
                    def.name
                );
                let bound = entry.get("bound").and_then(Json::as_f64);
                assert_eq!(bound, with_bound.then_some(def.bound), "{}", def.name);
            }
        }
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1..=60).contains(&RUN_SECONDS) && seconds == RUN_SECONDS as f64);
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).unwrap(),
            [Json::str("benchmark")]
        );
        for w in doc.get("workloads").and_then(Json::as_arr).unwrap() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            assert_eq!(w.as_obj().unwrap().len(), 2);
        }
    }
}
