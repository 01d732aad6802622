//! From spans to numbers: the per-layer time budget and the per-layer metrics of one
//! traced run.
//!
//! Four kinds of span, all on the `qobs::now_ns` clock: `workload.run` (root),
//! `net.wait` (a caller's wait for a group, from the bench-local `JobSubmitter`),
//! `qexec.job` (submit → finish, from the executor's `qobs` ring) and `vqa.call` (a
//! driver call, from the bench-local `Backend`).  A span's parent is the span that
//! encloses it in time; a layer's self time is its spans' duration minus the part its
//! children cover.  Below the driver call nothing is instrumented, so `vqa.call` time is
//! divided in proportion to the replayed kernel costs (`crate::replay`).

use crate::json::Json;
use crate::replay::KernelCosts;
use crate::stats::{order_statistic, self_time, Interval, IntervalSet};
use crate::workloads::{Outcome, Timeline, TraceData};
use crate::wrappers::CallKind;
use std::collections::BTreeMap;

/// One row of the budget: wall time attributed to a layer, averaged over the callers'
/// timelines.
#[derive(Clone, Debug)]
pub struct BudgetRow {
    pub layer: &'static str,
    pub seconds: f64,
}

#[derive(Clone, Debug)]
pub struct Budget {
    pub rows: Vec<BudgetRow>,
    pub run_s: f64,
    pub charged_jobs: u64,
    /// Callers whose timelines were averaged (1 controller, or 2 client threads).
    pub callers: usize,
    /// Replayed kernel time over driver wall time.  Above 1 the driver ran states
    /// concurrently (or replay is pessimistic); the kernel rows are then scaled to fit
    /// the driver's wall time and `vqa self` reads 0.
    pub kernel_over_driver: f64,
}

impl Budget {
    pub fn seconds(&self, layer: &str) -> f64 {
        self.rows
            .iter()
            .find(|r| r.layer == layer)
            .map_or(0.0, |r| r.seconds)
    }

    /// Caller-thread microseconds per charged job.
    pub fn us_per_job(&self, layer: &str) -> f64 {
        self.seconds(layer) * self.callers as f64 * 1e6 / self.charged_jobs.max(1) as f64
    }

    /// Share of `run_s` the named layers (everything but `unattributed`) account for.
    pub fn attributed_share(&self) -> f64 {
        1.0 - self.seconds("unattributed") / self.run_s
    }

    pub fn render(&self, workload: &str) -> String {
        let mut out = format!(
            "budget {workload}: run_s {:.3}, {} charged jobs, {} caller(s)\n",
            self.run_s, self.charged_jobs, self.callers
        );
        out.push_str("  layer                 us/job   % of run_s\n");
        for row in &self.rows {
            out.push_str(&format!(
                "  {:<18} {:>9.2} {:>11.1}\n",
                row.layer,
                self.us_per_job(row.layer),
                100.0 * row.seconds / self.run_s
            ));
        }
        out.push_str(&format!(
            "  named layers account for {:.1} % of run_s; replayed kernels / driver wall = {:.2}\n",
            100.0 * self.attributed_share(),
            self.kernel_over_driver
        ));
        out
    }
}

fn job_interval(job: &qobs::FinishedSpan) -> Interval {
    Interval::new(job.submit_ns, job.end_ns)
}

/// Maps each executor client id (one per connection) to the caller timeline whose
/// waits enclose its job spans.  With one timeline every client is the controller's.
fn assign_clients(jobs: &[&qobs::FinishedSpan], timelines: &[Timeline]) -> BTreeMap<u64, usize> {
    let mut votes: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for job in jobs {
        let tally = votes
            .entry(job.labels.client)
            .or_insert_with(|| vec![0; timelines.len()]);
        if timelines.len() == 1 {
            tally[0] += 1;
            continue;
        }
        let span = job_interval(job);
        for (t, timeline) in timelines.iter().enumerate() {
            // Waits of one thread are disjoint and in start order.
            let i = timeline.waits.partition_point(|w| w.at.start <= span.start);
            if i > 0 && timeline.waits[i - 1].at.contains(&span) {
                tally[t] += 1;
            }
        }
    }
    votes
        .into_iter()
        .map(|(client, tally)| {
            let best = (0..tally.len()).max_by_key(|&t| tally[t]).unwrap_or(0);
            (client, best)
        })
        .collect()
}

/// The spans of the traced run's timed section, sorted out per caller.
pub struct SpanView<'a> {
    pub run: Interval,
    pub jobs: Vec<&'a qobs::FinishedSpan>,
    /// Caller timeline of each entry of `jobs`.
    pub job_caller: Vec<usize>,
    trace: &'a TraceData,
}

impl<'a> SpanView<'a> {
    pub fn new(trace: &'a TraceData, run: Interval) -> Self {
        // The ring also holds set-up's warm-up job; only spans inside the run count.
        let jobs: Vec<&qobs::FinishedSpan> = trace
            .jobs
            .iter()
            .filter(|j| run.contains(&job_interval(j)))
            .collect();
        let clients = assign_clients(&jobs, &trace.timelines);
        let job_caller = jobs.iter().map(|j| clients[&j.labels.client]).collect();
        SpanView {
            run,
            jobs,
            job_caller,
            trace,
        }
    }

    pub fn budget(&self, costs: &KernelCosts, charged_jobs: u64, net: bool) -> Budget {
        let driver_calls = IntervalSet::union_of(self.trace.driver.calls.iter().map(|c| c.at));
        let callers = self.trace.timelines.len();
        let (mut caller_self, mut wire_self, mut exec_self, mut driver) = (0.0, 0.0, 0.0, 0.0);
        for (t, timeline) in self.trace.timelines.iter().enumerate() {
            let own: Vec<Interval> = self
                .jobs
                .iter()
                .zip(&self.job_caller)
                .filter(|(_, &caller)| caller == t)
                .map(|(j, _)| job_interval(j))
                .collect();
            let own_jobs = IntervalSet::union_of(own.iter().copied()).clip(timeline.span);
            // What the caller was waiting on: its wire waits, or (in-process) its jobs.
            let in_service = if net {
                let waits = IntervalSet::union_of(timeline.waits.iter().map(|w| w.at));
                let served = own_jobs.intersect(&waits);
                caller_self += self_time(timeline.span, timeline.waits.iter().map(|w| w.at)) as f64;
                wire_self += (waits.total() - served.total()) as f64;
                served
            } else {
                caller_self += self_time(timeline.span, own) as f64;
                own_jobs
            };
            let in_driver = in_service.intersect(&driver_calls).total();
            exec_self += (in_service.total() - in_driver) as f64;
            driver += in_driver as f64;
        }
        let per_caller = |ns: f64| ns * 1e-9 / callers as f64;

        // Split driver time by what replay says its kernels cost.
        let log = &self.trace.driver;
        let (requests, probes) = (log.requests as f64, log.probe_calls as f64);
        let execute = costs.execute_us_per_job * requests + costs.execute_us_single * probes;
        let expect = costs.expect_us_per_job * requests + costs.expect_us_per_call * probes;
        let sampling = (costs.sample_us_per_job
            + costs.noise_sample_us_per_traj * costs.trajectories_per_job)
            * requests;
        let busy_us = log.busy_ns as f64 * 1e-3;
        let kernel_over_driver = if busy_us > 0.0 {
            (execute + expect + sampling) / busy_us
        } else {
            0.0
        };
        let scale = kernel_over_driver.max(1.0) * busy_us.max(f64::MIN_POSITIVE);
        let driver_s = per_caller(driver);
        let share = |kernel_us: f64| driver_s * kernel_us / scale;
        let mut rows = vec![
            BudgetRow {
                layer: "qsim execute",
                seconds: share(execute),
            },
            BudgetRow {
                layer: "qop expectation",
                seconds: share(expect),
            },
            BudgetRow {
                layer: "sampling+qnoise",
                seconds: share(sampling),
            },
        ];
        let kernels: f64 = rows.iter().map(|r| r.seconds).sum();
        rows.push(BudgetRow {
            layer: "vqa self",
            seconds: (driver_s - kernels).max(0.0),
        });
        rows.push(BudgetRow {
            layer: "qexec self",
            seconds: per_caller(exec_self),
        });
        rows.push(BudgetRow {
            layer: "qnet self",
            seconds: per_caller(wire_self),
        });
        rows.push(BudgetRow {
            // The caller's own time between waits: the TreeVQA controller in-process,
            // the runner and its optimizer on a client thread.
            layer: if net { "client self" } else { "treevqa self" },
            seconds: per_caller(caller_self),
        });
        let run_s = self.run.len() as f64 * 1e-9;
        let named: f64 = rows.iter().map(|r| r.seconds).sum();
        rows.push(BudgetRow {
            // What no caller's timeline covers: thread start-up, and the tail in which
            // one client thread has finished and the other has not.
            layer: "unattributed",
            seconds: (run_s - named).max(0.0),
        });
        Budget {
            rows,
            run_s,
            charged_jobs,
            callers,
            kernel_over_driver,
        }
    }

    /// Exact order statistics of the executor's queue wait and execution time, in µs:
    /// `(queue p50, queue p99, exec p50)`.
    pub fn exec_quantiles_us(&self) -> (f64, f64, f64) {
        let mut queue: Vec<u64> = self.jobs.iter().map(|j| j.queue_ns()).collect();
        let mut exec: Vec<u64> = self.jobs.iter().filter_map(|j| j.exec_time_ns()).collect();
        let us = |v: Option<u64>| v.map_or(0.0, |ns| ns as f64 * 1e-3);
        (
            us(order_statistic(&mut queue, 0.5)),
            us(order_statistic(&mut queue, 0.99)),
            us(order_statistic(&mut exec, 0.5)),
        )
    }

    pub fn failed_jobs(&self) -> u64 {
        self.jobs
            .iter()
            .filter(|j| j.outcome != qobs::Outcome::Completed)
            .count() as u64
    }

    /// The trace file: every span as `[name, start_ns, end_ns, parent, size]` with
    /// `parent` an index into the same list (the enclosing span; 0 is `workload.run`),
    /// capped at `MAX_ROWS` rows, plus the counts taken at the same boundaries.
    pub fn to_json(&self, workload: &str, counts: Vec<(String, Json)>) -> Json {
        const MAX_ROWS: usize = 100_000;
        let row = |name: &str, at: Interval, parent: usize, size: u32| {
            Json::Arr(vec![
                Json::str(name),
                Json::Num(at.start as f64),
                Json::Num(at.end as f64),
                Json::Num(parent as f64),
                Json::Num(f64::from(size)),
            ])
        };
        let mut rows = vec![row("workload.run", self.run, 0, 0)];
        // net.wait spans, remembering where each timeline's waits start in the list.
        let mut wait_base = Vec::new();
        for timeline in &self.trace.timelines {
            wait_base.push(rows.len());
            for wait in &timeline.waits {
                rows.push(row("net.wait", wait.at, 0, wait.size));
            }
        }
        // qexec.job spans: parent is the caller's wait that encloses the job, if any.
        let job_base = rows.len();
        for (job, &caller) in self.jobs.iter().zip(&self.job_caller) {
            let span = job_interval(job);
            let waits = &self.trace.timelines[caller].waits;
            let i = waits.partition_point(|w| w.at.start <= span.start);
            let parent = if i > 0 && waits[i - 1].at.contains(&span) {
                wait_base[caller] + i - 1
            } else {
                0
            };
            rows.push(row("qexec.job", span, parent, 1));
        }
        // vqa.call spans: parent is a job the call executed (handed to the driver just
        // before the call started and finished after it ended).
        let mut by_exec: Vec<(u64, usize)> = self
            .jobs
            .iter()
            .enumerate()
            .filter_map(|(i, j)| j.exec_ns.map(|e| (e, i)))
            .collect();
        by_exec.sort_unstable();
        for call in &self.trace.driver.calls {
            let i = by_exec.partition_point(|&(exec, _)| exec <= call.at.start);
            let parent = match i.checked_sub(1).map(|i| by_exec[i].1) {
                Some(j) if self.jobs[j].end_ns >= call.at.end => job_base + j,
                _ => 0,
            };
            let name = match call.kind {
                CallKind::Batch => "vqa.call/evaluate_batch",
                CallKind::Probe => "vqa.call/probe",
            };
            rows.push(row(name, call.at, parent, call.size));
        }
        let total = rows.len();
        rows.truncate(MAX_ROWS);
        Json::obj([
            ("workload".to_string(), Json::str(workload)),
            ("clock".to_string(), Json::str("qobs::now_ns, nanoseconds")),
            (
                "columns".to_string(),
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "size"]
                        .map(Json::str)
                        .to_vec(),
                ),
            ),
            ("spans_total".to_string(), Json::Num(total as f64)),
            ("spans_written".to_string(), Json::Num(rows.len() as f64)),
            ("counts".to_string(), Json::Obj(counts)),
            ("spans".to_string(), Json::Arr(rows)),
        ])
    }
}

/// Wait quantiles of `outcome` in µs: `(p50, p99, p99.9)`, exact order statistics.
pub fn wait_quantiles_us(outcome: &Outcome) -> (f64, f64, f64) {
    let mut waits = outcome.wait_ns.clone();
    let us = |v: Option<u64>| v.map_or(0.0, |ns| ns as f64 * 1e-3);
    (
        us(order_statistic(&mut waits, 0.5)),
        us(order_statistic(&mut waits, 0.99)),
        us(order_statistic(&mut waits, 0.999)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wrappers::{CallSpan, DriverLog, WaitKind, WaitSpan};

    fn job(client: u64, submit: u64, exec: u64, end: u64) -> qobs::FinishedSpan {
        qobs::FinishedSpan {
            id: 0,
            labels: qobs::SpanLabels {
                client,
                backend: "default".into(),
                priority: 0,
                kind: "evaluate",
                worker: Some(0),
            },
            seq: Some(0),
            submit_ns: submit,
            scheduled_ns: Some(submit + 1),
            exec_ns: Some(exec),
            end_ns: end,
            outcome: qobs::Outcome::Completed,
        }
    }

    fn trace(
        timelines: Vec<Timeline>,
        jobs: Vec<qobs::FinishedSpan>,
        calls: &[(u64, u64)],
    ) -> TraceData {
        let mut driver = DriverLog::default();
        for &(s, e) in calls {
            driver.calls.push(CallSpan {
                kind: CallKind::Batch,
                at: Interval::new(s, e),
                size: 1,
            });
            driver.busy_ns += e - s;
            driver.requests += 1;
        }
        TraceData {
            timelines,
            jobs,
            spans_dropped: 0,
            exec_retries: 0,
            exec_slates: 0,
            driver,
            net_counters: Vec::new(),
            noise: None,
            sampled_shots: 0,
            wire_group: 0,
        }
    }

    #[test]
    fn in_process_budget_is_self_time_by_containment() {
        // Run 0..1000; two jobs 100..400 and 500..900; driver calls 150..350, 600..800.
        let run = Interval::new(0, 1000);
        let t = trace(
            vec![Timeline {
                span: run,
                waits: vec![],
            }],
            vec![job(0, 100, 150, 400), job(0, 500, 600, 900)],
            &[(150, 350), (600, 800)],
        );
        let view = SpanView::new(&t, run);
        // Replay prices a job's execute at 0.1 µs and nothing else: 0.2 µs of 0.4 µs.
        let costs = KernelCosts {
            execute_us_per_job: 0.1,
            ..KernelCosts::default()
        };
        let b = view.budget(&costs, 2, false);
        let ns = |layer: &str| (b.seconds(layer) * 1e9).round() as i64;
        assert_eq!(ns("treevqa self"), 300);
        assert_eq!(ns("qexec self"), 300);
        assert_eq!(ns("qsim execute"), 200);
        assert_eq!(ns("vqa self"), 200);
        assert_eq!(ns("qnet self"), 0);
        assert_eq!(ns("unattributed"), 0);
        assert!((b.kernel_over_driver - 0.5).abs() < 1e-12);
        assert!((b.us_per_job("qexec self") - 0.15).abs() < 1e-12);
    }

    #[test]
    fn kernel_overshoot_is_scaled_into_the_driver_time() {
        let run = Interval::new(0, 1000);
        let t = trace(
            vec![Timeline {
                span: run,
                waits: vec![],
            }],
            vec![job(0, 0, 0, 1000)],
            &[(0, 1000)],
        );
        let costs = KernelCosts {
            execute_us_per_job: 1.5,
            expect_us_per_job: 0.5,
            ..KernelCosts::default()
        };
        let b = SpanView::new(&t, run).budget(&costs, 1, false);
        assert!((b.kernel_over_driver - 2.0).abs() < 1e-12);
        assert!((b.seconds("qsim execute") - 750e-9).abs() < 1e-15);
        assert!((b.seconds("qop expectation") - 250e-9).abs() < 1e-15);
        assert_eq!(b.seconds("vqa self"), 0.0);
    }

    #[test]
    fn net_budget_maps_connections_to_threads_and_averages_them() {
        let wait = |s, e| WaitSpan {
            kind: WaitKind::Group,
            at: Interval::new(s, e),
            size: 1,
        };
        let run = Interval::new(0, 1000);
        // Thread 0 waits 100..500 on client 7's job; thread 1 waits 300..900 on client
        // 3's.  One driver call 350..450 serves both.
        let t = trace(
            vec![
                Timeline {
                    span: run,
                    waits: vec![wait(100, 500)],
                },
                Timeline {
                    span: run,
                    waits: vec![wait(300, 900)],
                },
            ],
            vec![job(7, 150, 350, 460), job(3, 320, 350, 800)],
            &[(350, 450)],
        );
        let view = SpanView::new(&t, run);
        assert_eq!(view.job_caller, [0, 1]);
        let b = view.budget(&KernelCosts::default(), 2, true);
        let ns = |layer: &str| (b.seconds(layer) * 1e9).round() as i64;
        // Thread 0: self 600, wire 400-310=90, exec 310-100=210, driver 100.
        // Thread 1: self 400, wire 600-480=120, exec 480-100=380, driver 100.
        assert_eq!(ns("client self"), 500);
        assert_eq!(ns("qnet self"), 105);
        assert_eq!(ns("qexec self"), 295);
        assert_eq!(ns("vqa self"), 100);
        assert_eq!(ns("unattributed"), 0);
        let spans = view.to_json("w", vec![]);
        let rows = spans.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 6);
        // Job of client 3 is row 4; its parent is thread 1's wait, row 2.
        assert_eq!(rows[4].as_arr().unwrap()[3], Json::Num(2.0));
        // The call's parent is a job that was executing it.
        let parent = rows[5].as_arr().unwrap()[3].as_f64().unwrap();
        assert!(parent == 3.0 || parent == 4.0);
    }
}
