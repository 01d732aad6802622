//! One workload, one process: the repeats behind the end-to-end metrics (tracing off)
//! and the untraced/traced pair behind the per-layer metrics.

use crate::host::{peak_rss_mb, proc_sample};
use crate::json::Json;
use crate::layers::{wait_quantiles_us, Budget, SpanView};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::replay::replay;
use crate::stats::median;
use crate::workloads::{
    prepare, repeat_seed, repeats_per_run, seconds_since, Checks, Outcome, Scale, Setup,
    RUN_SECONDS,
};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Timed repeats an untraced run makes at least, however short `--seconds` is.
const MIN_REPEATS: usize = 3;
/// Share of `run_s` the budget's named layers must account for.
const MIN_ATTRIBUTED: f64 = 0.85;

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where the traced run writes `<workload>.trace.json`.
    pub out_dir: PathBuf,
}

/// What one invocation measured: the driver's result line plus what to print above it.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values in declaration order.
    pub metrics: Vec<(&'static MetricDef, f64)>,
    /// Human-readable lines: failed checks, sample counts, the budget table.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(def, value)| {
                    (
                        def.name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(def.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Jobs attempted/failed and checks run/failed of one outcome, folded into the totals.
fn account(outcome: &Outcome, attempted: &mut u64, failed: &mut u64, notes: &mut Vec<String>) {
    *attempted += outcome.charged_jobs + outcome.probe_jobs + outcome.checks.run;
    *failed += outcome.jobs_failed + outcome.checks.failed.len() as u64;
    notes.extend(
        outcome
            .checks
            .failed
            .iter()
            .map(|f| format!("FAILED CHECK: {f}")),
    );
}

pub fn run_workload(args: &RunArgs) -> Result<RunResult, String> {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}

/// How many timed repeats an untraced run of `--seconds` makes.  A count fixed before
/// the first repeat, not a deadline checked after each: two commits measured with the
/// same arguments run the same repeats at the same seeds, however fast either is.
fn repeat_count(args: &RunArgs) -> Result<usize, String> {
    if args.scale == Scale::Smoke {
        return Ok(1);
    }
    let scaled = repeats_per_run(&args.workload)? as f64 * args.seconds / RUN_SECONDS as f64;
    Ok((scaled.round() as usize).max(MIN_REPEATS))
}

/// Cold set-up + timed section, `repeat_count` times; every end-to-end metric is a
/// median over the repeats.
fn run_untraced(args: &RunArgs) -> Result<RunResult, String> {
    qobs::set_enabled(false);
    let (mut setup_s, mut run_s, mut jobs_per_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut min_fidelity = Vec::new();
    let (mut attempted, mut failed, mut notes) = (0, 0, Vec::new());
    let mut peak_rss = 0.0;
    for repeat in 0..repeat_count(args)? {
        let setup = Setup {
            seed: repeat_seed(args.seed, repeat),
            scale: args.scale,
            tracing: false,
        };
        let start = qobs::now_ns();
        let mut prepared = prepare(&args.workload, setup)?;
        setup_s.push(seconds_since(start));
        let outcome = prepared.run();
        run_s.push(outcome.run_s());
        jobs_per_s.push(outcome.charged_jobs as f64 / outcome.run_s());
        min_fidelity.extend(outcome.tree.as_ref().map(|tree| tree.min_fidelity));
        account(&outcome, &mut attempted, &mut failed, &mut notes);
        if repeat == 0 {
            // The footprint of one set-up and one run.  Later repeats only add what the
            // allocator happens not to reuse, which differs from process to process.
            peak_rss = peak_rss_mb();
        }
        drop(prepared.finish());
    }
    let each = |values: &[f64]| {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
        shown.join(" ")
    };
    notes.push(format!(
        "{} repeats, run_s of each: {}",
        run_s.len(),
        each(&run_s)
    ));
    if !min_fidelity.is_empty() {
        notes.push(format!(
            "treevqa.min_fidelity of each: {}",
            each(&min_fidelity)
        ));
    }
    let values = BTreeMap::from([
        ("setup_s", median(&setup_s)),
        ("run_s", median(&run_s)),
        ("jobs_per_s", median(&jobs_per_s)),
        ("peak_rss_mb", peak_rss),
    ]);
    Ok(RunResult {
        attempted: attempted.max(1),
        failed,
        metrics: in_order(END_TO_END, &values),
        notes,
    })
}

/// `table`'s metrics with their values; a metric the run has no value for reads 0.
fn in_order(
    table: &'static [MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static MetricDef, f64)> {
    table
        .iter()
        .map(|def| (def, values.get(def.name).copied().unwrap_or(0.0)))
        .collect()
}

/// An untraced, a traced and another untraced run of the same seed in this process;
/// spans, replay, budget, trace file and every per-layer metric.
fn run_traced(args: &RunArgs) -> Result<RunResult, String> {
    let net = args.workload.ends_with("_net2");
    let (mut attempted, mut failed, mut notes) = (0, 0, Vec::new());
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Untraced twin: the (u) metrics, the wait quantiles and the overhead baseline.
    qobs::set_enabled(false);
    let mut setup = Setup {
        seed: args.seed,
        scale: args.scale,
        tracing: false,
    };
    let mut prepared = prepare(&args.workload, setup)?;
    let before = proc_sample();
    let untraced = prepared.run();
    let after = proc_sample();
    drop(prepared.finish());
    account(&untraced, &mut attempted, &mut failed, &mut notes);
    let jobs = untraced.charged_jobs.max(1) as f64;
    let cpu_s = after.cpu_s - before.cpu_s;
    v.insert("process.cpu_s", cpu_s);
    v.insert("process.cpu_util", cpu_s / untraced.run_s());
    v.insert(
        "process.vol_ctx_switches_per_job",
        after
            .vol_ctx_switches
            .saturating_sub(before.vol_ctx_switches) as f64
            / jobs,
    );
    v.insert("qrng.draws_per_job", untraced.draws as f64 / jobs);
    if let Some(tree) = &untraced.tree {
        v.insert("treevqa.rounds", tree.rounds as f64);
        v.insert("treevqa.splits", tree.splits as f64);
        v.insert("treevqa.critical_depth", tree.critical_depth as f64);
        v.insert("treevqa.clusters_final", tree.clusters_final as f64);
        v.insert("treevqa.charged_jobs", untraced.charged_jobs as f64);
        v.insert("treevqa.probe_jobs", untraced.probe_jobs as f64);
        v.insert("treevqa.total_shots", tree.total_shots as f64);
        v.insert("treevqa.min_fidelity", tree.min_fidelity);
        v.insert(
            "treevqa.shots_to_fid_0_7",
            tree.shots_to_fid_0_7.unwrap_or(0) as f64,
        );
    }
    if net {
        let (p50, p99, p999) = wait_quantiles_us(&untraced);
        v.insert("wait_p50_us", p50);
        v.insert("qnet.wait_p99_us", p99);
        v.insert("qnet.wait_p999_us", p999);
        notes.push(format!(
            "wait_p50_us, qnet.wait_p99_us, qnet.wait_p999_us over {} samples",
            untraced.wait_ns.len()
        ));
    }

    // Traced run: product tracing on everywhere, wrappers recording.
    qobs::set_enabled(true);
    setup.tracing = true;
    let mut prepared = prepare(&args.workload, setup)?;
    let times = prepared.setup_times();
    let cache_before = vqa::circuit_cache_stats();
    let traced = prepared.run();
    let cache_after = vqa::circuit_cache_stats();
    account(&traced, &mut attempted, &mut failed, &mut notes);
    for (name, value) in prepared.direct_layer_metrics() {
        v.insert(name, value);
    }
    v.insert(
        "treevqa.shot_reduction_x",
        prepared.shot_reduction(&traced).unwrap_or(0.0),
    );
    let trace = prepared.finish();
    qobs::set_enabled(false);

    // A second untraced run after the traced one: the overhead is judged against the
    // mean of the runs on either side, so drift over the process's life cancels.
    setup.tracing = false;
    let mut prepared = prepare(&args.workload, setup)?;
    let untraced_after = prepared.run();
    drop(prepared.finish());
    account(&untraced_after, &mut attempted, &mut failed, &mut notes);
    let untraced_run_s = 0.5 * (untraced.run_s() + untraced_after.run_s());

    // The harness's own checks, on top of the workload's and replay's.
    let mut checks = Checks::default();
    // Tracing must not change what is computed.
    let shots = |o: &Outcome| o.tree.as_ref().map(|t| t.total_shots);
    checks.check(
        traced.charged_jobs == untraced.charged_jobs
            && traced.draws == untraced.draws
            && shots(&traced) == shots(&untraced),
        || "the traced run's counts differ from the untraced run's".to_string(),
    );
    checks.check(trace.spans_dropped == 0, || {
        format!("{} spans dropped", trace.spans_dropped)
    });
    let costs = replay(&trace);
    checks.absorb(costs.checks.clone());
    let view = SpanView::new(&trace, traced.run);
    let budget: Budget = view.budget(&costs, traced.charged_jobs, net);
    // At smoke scale a run is too short for its callers to finish together.
    if args.scale == Scale::Full {
        checks.check(budget.attributed_share() >= MIN_ATTRIBUTED, || {
            format!(
                "named layers account for only {:.1} % of run_s",
                100.0 * budget.attributed_share()
            )
        });
    }
    attempted += checks.run;
    failed += checks.failed.len() as u64;
    notes.extend(checks.failed.iter().map(|f| format!("FAILED CHECK: {f}")));

    let log = &trace.driver;
    let traced_jobs = traced.charged_jobs.max(1) as f64;
    if !net {
        v.insert("treevqa.self_s", budget.seconds("treevqa self"));
        v.insert(
            "treevqa.self_pct",
            100.0 * budget.seconds("treevqa self") / budget.run_s,
        );
    }
    let (queue_p50, queue_p99, exec_p50) = view.exec_quantiles_us();
    v.insert("qexec.jobs", view.jobs.len() as f64);
    v.insert("qexec.slates", trace.exec_slates as f64);
    v.insert(
        "qexec.jobs_per_slate_mean",
        view.jobs.len() as f64 / trace.exec_slates.max(1) as f64,
    );
    v.insert("qexec.queue_wait_p50_us", queue_p50);
    v.insert("qexec.queue_wait_p99_us", queue_p99);
    v.insert("qexec.exec_p50_us", exec_p50);
    v.insert("qexec.self_us_per_job", budget.us_per_job("qexec self"));
    v.insert("qexec.failed", view.failed_jobs() as f64);
    v.insert("qexec.retries", trace.exec_retries as f64);
    v.insert("vqa.batch_calls", log.batch_calls as f64);
    v.insert("vqa.probe_calls", log.probe_calls as f64);
    v.insert(
        "vqa.batch_size_mean",
        log.requests as f64 / log.batch_calls.max(1) as f64,
    );
    v.insert("vqa.busy_s", log.busy_ns as f64 * 1e-9);
    v.insert(
        "vqa.busy_pct",
        100.0 * log.busy_ns as f64 * 1e-9 / traced.run_s(),
    );
    v.insert("vqa.us_per_job", log.busy_ns as f64 * 1e-3 / traced_jobs);
    v.insert("vqa.self_us_per_job", budget.us_per_job("vqa self"));
    let (hits, misses) = (
        cache_after.0 - cache_before.0,
        cache_after.1 - cache_before.1,
    );
    v.insert(
        "vqa.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    v.insert("qsim.compile_us", costs.compile_us);
    v.insert("qsim.ops_per_circuit", costs.ops_per_circuit);
    v.insert("qsim.execute_us_per_job", costs.execute_us_per_job);
    v.insert("qsim.sample_us_per_job", costs.sample_us_per_job);
    v.insert("qsim.bytes_per_execute", costs.bytes_per_execute);
    v.insert("qop.expect_us_per_job", costs.expect_us_per_job);
    v.insert("qop.expect_calls_per_job", costs.expect_calls_per_job);
    v.insert("qop.terms_per_job", costs.terms_per_job);
    v.insert("qop.lanczos_s", times.lanczos_s);
    if trace.noise.is_some() {
        v.insert("qnoise.trajectories_per_job", costs.trajectories_per_job);
        v.insert("qnoise.sample_us_per_traj", costs.noise_sample_us_per_traj);
        v.insert("qnoise.exec_us_per_traj", costs.exec_us_per_traj);
    }
    if net {
        let counter = |name: &str| {
            trace
                .net_counters
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, value)| value as f64)
        };
        v.insert("qnet.frames_in", counter("frames_in"));
        v.insert("qnet.frames_out", counter("frames_out"));
        v.insert("qnet.batches", counter("batches"));
        v.insert(
            "qnet.bytes_per_job",
            (counter("bytes_in") + counter("bytes_out")) / traced_jobs,
        );
        v.insert("qnet.errors_sent", counter("errors_sent"));
        v.insert("qnet.encode_us_per_job", costs.encode_us_per_job);
        v.insert("qnet.decode_us_per_job", costs.decode_us_per_job);
        v.insert("qnet.self_us_per_job", budget.us_per_job("qnet self"));
    }
    v.insert("qchem.build_s", times.qchem_build_s);
    v.insert("qgraph.build_s", times.qgraph_build_s);
    v.insert("qcircuit.build_us", times.qcircuit_build_us);
    v.insert(
        "qobs.trace_overhead_pct",
        100.0 * (traced.run_s() - untraced_run_s) / untraced_run_s,
    );
    v.insert("qobs.spans_dropped", trace.spans_dropped as f64);
    v.insert("failed_frac", failed as f64 / attempted.max(1) as f64);

    notes.push(format!(
        "replayed {} captured requests; run_s untraced {:.4}, traced {:.4}, untraced {:.4}",
        costs.captured,
        untraced.run_s(),
        traced.run_s(),
        untraced_after.run_s()
    ));
    notes.push(budget.render(&args.workload));

    let counts = v
        .iter()
        .map(|(k, x)| (k.to_string(), Json::Num(*x)))
        .collect();
    let path = args.out_dir.join(format!("{}.trace.json", args.workload));
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, view.to_json(&args.workload, counts).render()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    notes.push(format!("spans and counts written to {}", path.display()));

    Ok(RunResult {
        attempted: attempted.max(1),
        failed,
        metrics: in_order(PER_LAYER, &v),
        notes,
    })
}
