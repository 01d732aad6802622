//! The four workloads.  Each is a cold set-up (`prepare`) and a timed section (`run`);
//! the harness in `crate::runner` decides how often to repeat them and whether the
//! product's tracing is on.
//!
//! All are closed loops: a caller submits its next jobs only after the previous ones
//! completed.  Sizes are fixed here and nowhere else; `Scale::Smoke` shrinks iteration
//! counts, budgets and rounds only — qubit counts, task counts, trajectories, group
//! size and connection count define the regime and are the same at both scales.

mod net;
mod tree;

use crate::stats::Interval;
use crate::wrappers::{DriverLog, WaitSpan};
use qop::{LanczosOptions, PauliOp};
use vqa::VqaTask;

/// Workload names, in reporting order.
pub const WORKLOADS: [&str; 4] = [
    "tree_tfim12",
    "tree_maxcut14_noisy",
    "base_lih6_net2",
    "slate_hea6_net2",
];

/// Client threads / connections of the net workloads (the host has two cores; one
/// ping-pong client alone is bimodal on this VM, see the README).
pub const NET_CONNECTIONS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    /// Tiny sizes for a CI smoke job: structural checks stay on, convergence floors
    /// (fidelity, split count) are off because nothing converges in a second.
    Smoke,
}

/// How a run is set up.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    pub seed: u64,
    pub scale: Scale,
    /// Product tracing on: executor and server span recording plus the bench-local
    /// wrappers' spans and request captures.
    pub tracing: bool,
}

/// What a set-up measured about its own parts (all inside `setup_s`).
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Exact reference energies (`qop::ground_energy`).
    pub lanczos_s: f64,
    /// Hamiltonian family construction by `qchem`.
    pub qchem_build_s: f64,
    /// Graph family + cost Hamiltonians + warm start by `qgraph`.
    pub qgraph_build_s: f64,
    /// Ansatz construction by `qcircuit`, in microseconds.
    pub qcircuit_build_us: f64,
}

/// Output checks of one run; each counts into `failed_frac`.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    pub run: u64,
    pub failed: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failed.push(what());
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.run += other.run;
        self.failed.extend(other.failed);
    }
}

/// The controller-level result of a tree workload (all from `TreeVqaResult`).
#[derive(Clone, Debug)]
pub struct TreeOutcome {
    pub rounds: u64,
    pub splits: u64,
    pub critical_depth: u64,
    pub clusters_final: u64,
    pub total_shots: u64,
    pub min_fidelity: f64,
    /// Cumulative shots at which minimum fidelity first reached 0.7 (`None`: never).
    pub shots_to_fid_0_7: Option<u64>,
}

/// The result of one timed section.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The `workload.run` root span.
    pub run: Interval,
    /// Charged evaluation jobs (probes excluded).
    pub charged_jobs: u64,
    pub probe_jobs: u64,
    /// Jobs that resolved with an error.
    pub jobs_failed: u64,
    /// Caller-visible group waits in nanoseconds, `submit_job_group` call to last result
    /// of the group; empty on the tree workloads, where phases are internal to the
    /// controller.
    pub wait_ns: Vec<u64>,
    /// `qrng::total_draws` delta over the timed section.
    pub draws: u64,
    pub tree: Option<TreeOutcome>,
    pub checks: Checks,
}

impl Outcome {
    pub fn run_s(&self) -> f64 {
        self.run.len() as f64 * 1e-9
    }
}

/// One caller's view of the traced run: the controller thread of a tree workload, or
/// one client thread of a net workload.
#[derive(Clone, Debug)]
pub struct Timeline {
    pub span: Interval,
    /// `net.wait` spans (empty for the in-process tree workloads).
    pub waits: Vec<WaitSpan>,
}

/// Everything the traced run recorded, handed over when the workload is torn down.
pub struct TraceData {
    pub timelines: Vec<Timeline>,
    /// `qexec.job` spans from the executor's `qobs` ring.
    pub jobs: Vec<qobs::FinishedSpan>,
    pub spans_dropped: u64,
    /// Executor counters after the run, minus those before it.
    pub exec_retries: u64,
    pub exec_slates: u64,
    pub driver: DriverLog,
    /// Server counters over the run, `(name, delta)`; empty for tree workloads.
    pub net_counters: Vec<(&'static str, u64)>,
    /// Noise model and trajectories per evaluation of a trajectory-noisy backend.
    pub noise: Option<(qnoise::PauliNoiseModel, u64)>,
    /// Shots per Pauli term when the backend samples the charged observable, else 0.
    pub sampled_shots: u64,
    /// Jobs per group on the wire (0 for tree workloads).
    pub wire_group: usize,
}

/// A workload that has been set up and can run its timed section.
pub trait Prepared {
    fn setup_times(&self) -> SetupTimes;

    /// The timed section, followed (outside it) by the output checks.
    fn run(&mut self) -> Outcome;

    /// Layer measurements that need the workload's inputs but not its run, taken by
    /// direct calls into the layer: `(metric name, value)`.
    fn direct_layer_metrics(&self) -> Vec<(&'static str, f64)>;

    /// The untimed baseline arm of a tree workload: shot-reduction factor at minimum
    /// fidelity 0.7 against `outcome` (`None` when an arm never reached it, or the
    /// workload has no baseline arm).
    fn shot_reduction(&self, outcome: &Outcome) -> Option<f64>;

    /// Tears the workload down (stopping every thread it started) and hands over what
    /// the traced run recorded.
    fn finish(self: Box<Self>) -> TraceData;
}

fn unknown(name: &str) -> String {
    format!("unknown workload '{name}'; workloads: {WORKLOADS:?}")
}

/// Cold set-up of the named workload.
pub fn prepare(name: &str, setup: Setup) -> Result<Box<dyn Prepared>, String> {
    Ok(match name {
        "tree_tfim12" => Box::new(tree::TreeWorkload::tfim12(setup)),
        "tree_maxcut14_noisy" => Box::new(tree::TreeWorkload::maxcut14_noisy(setup)),
        "base_lih6_net2" => Box::new(net::BaseWorkload::prepare(setup)),
        "slate_hea6_net2" => Box::new(net::SlateWorkload::prepare(setup)),
        _ => return Err(unknown(name)),
    })
}

/// `run_seconds` of `BENCHMARK.json`: how long one run measures unless told otherwise.
pub const RUN_SECONDS: u64 = 25;

/// Timed repeats (cold set-up + timed section) of the named workload in a full-scale
/// run of [`RUN_SECONDS`]; other lengths scale it.  Constants rather than a clock, so
/// the count does not depend on the speed of the code under test.  Sized on the 2-core
/// host of the commit that added the benchmark so that the four workloads together take
/// 4 × `RUN_SECONDS`: `tree_maxcut14_noisy` overruns its share (4 × 7.6 s; the median
/// of three repeats was not steady enough) and the two net workloads pay for it
/// (6 × 3.0 s, 7 × 2.7 s).
pub fn repeats_per_run(name: &str) -> Result<usize, String> {
    match name {
        "tree_tfim12" | "tree_maxcut14_noisy" => Ok(4),
        "base_lih6_net2" => Ok(6),
        "slate_hea6_net2" => Ok(7),
        _ => Err(unknown(name)),
    }
}

/// The seed of repeat `r` of a run started with `--seed seed`: the seed itself for the
/// first repeat (the one whose exact counts are reported), a derived one afterwards so
/// a run's medians are taken over several optimizer trajectories instead of one.  The
/// number of repeats is fixed by the arguments, so the set of seeds is too.
pub fn repeat_seed(seed: u64, repeat: usize) -> u64 {
    if repeat == 0 {
        seed
    } else {
        qrng::mix(seed, repeat as u64)
    }
}

/// Seconds since `start` on the `qobs` clock.
pub(crate) fn seconds_since(start: u64) -> f64 {
    (qobs::now_ns() - start) as f64 * 1e-9
}

/// Runs `f`, adding the seconds it took to `acc`.
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = qobs::now_ns();
    let value = f();
    *acc += seconds_since(start);
    value
}

/// Tasks with exact reference energies, the Lanczos time accounted separately.
fn tasks_with_references(
    family: Vec<(String, f64, PauliOp)>,
    times: &mut SetupTimes,
) -> Vec<VqaTask> {
    family
        .into_iter()
        .map(|(label, parameter, hamiltonian)| {
            let reference = timed(&mut times.lanczos_s, || {
                qop::ground_energy(&hamiltonian, &LanczosOptions::default())
            });
            VqaTask {
                label,
                parameter,
                hamiltonian,
                reference_energy: Some(reference),
            }
        })
        .collect()
}
