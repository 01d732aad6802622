//! The remote client: the executor's blocking submit/handle API over a TCP
//! connection.
//!
//! A [`NetClient`] speaks the [`crate::wire`] protocol to a [`crate::NetServer`] and
//! hands back [`RemoteHandle`]s with the same blocking surface as a local
//! [`qexec::JobHandle`] (`wait` / `wait_timeout` / `try_result`).  Each submission —
//! one job, or a whole group as one batch frame — leaves in a single write.  A single
//! demultiplexer thread reads response frames through a buffered reader (the server
//! answers a group in one write, so its results usually arrive in one read) and routes
//! each to its pending request by id, so any number of threads can share one client and
//! any number of requests can be in flight, completing out of order.  Because [`NetClient`] implements
//! [`qexec::JobSubmitter`], the drivers built on [`qexec::run_phase`]
//! ([`qexec::run_single_vqa`], the TreeVQA controller's `run_on`) run against a remote
//! executor unchanged — and, by the schedule-independence contract, produce
//! bit-identical results doing so.
//!
//! Connection failure is structural: if the server shuts down, refuses the
//! connection at capacity, or the transport drops, every pending and future request
//! resolves with a structured [`ExecError`] (`ShutDown` / `Overloaded` /
//! `Transport`) — a remote handle never hangs on a dead connection.

use crate::wire::{self, ControlKind, Frame, SubmitFrame};
use qexec::{CompletionHandle, EvalJob, ExecError, JobSubmitter, SubmitOptions};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vqa::EvalResult;

/// A connection to a remote executor; see the [module docs](self).
pub struct NetClient {
    shared: Arc<ClientShared>,
    demux: Option<JoinHandle<()>>,
}

struct ClientShared {
    writer: Mutex<TcpStream>,
    stream: TcpStream,
    pending: Mutex<HashMap<u64, Pending>>,
    next_id: AtomicU64,
    max_frame: usize,
    /// Set once when the connection dies, with the error every subsequent submission
    /// reports.
    closed: Mutex<Option<ExecError>>,
    /// Submit→complete round-trip latency over the wire, in nanoseconds.
    rtt: qobs::Histogram,
}

struct Pending {
    state: Arc<RemoteState>,
    submitted: Instant,
}

#[derive(Default)]
struct RemoteState {
    slot: Mutex<Option<Result<EvalResult, ExecError>>>,
    cv: Condvar,
}

impl RemoteState {
    fn complete(&self, result: Result<EvalResult, ExecError>) {
        let mut slot = self.slot.lock().unwrap();
        if slot.is_none() {
            *slot = Some(result);
        }
        drop(slot);
        self.cv.notify_all();
    }
}

impl NetClient {
    /// Connects to a server with the default frame cap ([`wire::DEFAULT_MAX_FRAME`]).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<NetClient> {
        NetClient::connect_with(addr, wire::DEFAULT_MAX_FRAME)
    }

    /// [`NetClient::connect`] with an explicit frame cap (both directions: larger
    /// incoming frames are refused, larger outgoing submissions fail with
    /// [`ExecError::Transport`] before anything is written).
    pub fn connect_with(addr: impl ToSocketAddrs, max_frame: usize) -> std::io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let demux_stream = stream.try_clone()?;
        let shared = Arc::new(ClientShared {
            writer: Mutex::new(writer),
            stream,
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            max_frame,
            closed: Mutex::new(None),
            rtt: qobs::Histogram::new(),
        });
        let demux_shared = Arc::clone(&shared);
        let demux = std::thread::Builder::new()
            .name("qnet-client-demux".into())
            .spawn(move || demux_loop(demux_stream, demux_shared))
            .expect("spawn qnet demux thread");
        Ok(NetClient {
            shared,
            demux: Some(demux),
        })
    }

    /// The connection's local address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.shared.stream.local_addr()
    }

    /// Submits a job to the remote default backend at default priority.
    pub fn submit(&self, job: EvalJob) -> Result<RemoteHandle, ExecError> {
        self.submit_with(job, &SubmitOptions::default())
    }

    /// Submits a job with explicit options (mirrors [`qexec::ExecClient::submit_with`];
    /// the options' `rng_stream` pin travels on the wire, so a remotely pinned job is
    /// bit-identical to the same job pinned locally).
    pub fn submit_with(
        &self,
        job: EvalJob,
        opts: &SubmitOptions,
    ) -> Result<RemoteHandle, ExecError> {
        self.submit_inner(job, opts, false)
    }

    /// Submits an uncharged probe (mirrors [`qexec::ExecClient::submit_probe`]).
    pub fn submit_probe(&self, job: EvalJob) -> Result<RemoteHandle, ExecError> {
        self.submit_probe_with(job, &SubmitOptions::default())
    }

    /// [`NetClient::submit_probe`] with explicit options.
    pub fn submit_probe_with(
        &self,
        job: EvalJob,
        opts: &SubmitOptions,
    ) -> Result<RemoteHandle, ExecError> {
        self.submit_inner(job, opts, true)
    }

    /// Submits a group of jobs as **one batch frame**, which the server hands to
    /// [`qexec::ExecClient::submit_group`]: the jobs are enqueued atomically and land
    /// in a single scheduling slate exactly like a local
    /// [`qexec::ExecClient::submit_all`].  A group the server refuses enqueues nothing
    /// and resolves every returned handle with the refusing error; this call itself
    /// fails only on a job that does not validate or if nothing could be sent.
    pub fn submit_group(&self, jobs: Vec<EvalJob>) -> Result<Vec<RemoteHandle>, ExecError> {
        for job in &jobs {
            job.validate()?;
        }
        self.check_open()?;
        let entries: Vec<(u64, EvalJob)> = jobs
            .into_iter()
            .map(|job| (self.shared.next_id.fetch_add(1, Ordering::Relaxed), job))
            .collect();
        let mut handles = Vec::with_capacity(entries.len());
        {
            let mut pending = self.shared.pending.lock().unwrap();
            let now = Instant::now();
            for (id, _) in &entries {
                let state = Arc::new(RemoteState::default());
                pending.insert(
                    *id,
                    Pending {
                        state: Arc::clone(&state),
                        submitted: now,
                    },
                );
                handles.push(RemoteHandle {
                    state,
                    request_id: *id,
                });
            }
        }
        let frame = Frame::SubmitBatch(
            entries
                .into_iter()
                .map(|(request_id, job)| SubmitFrame {
                    request_id,
                    probe: false,
                    opts: SubmitOptions::default(),
                    job,
                })
                .collect(),
        );
        if let Err(err) = self.write(&frame) {
            let mut pending = self.shared.pending.lock().unwrap();
            for handle in &handles {
                pending.remove(&handle.request_id);
            }
            return Err(err);
        }
        Ok(handles)
    }

    /// The wire round-trip latency histogram (submit → completion frame received),
    /// in nanoseconds.
    pub fn rtt(&self) -> qobs::HistogramSnapshot {
        self.shared.rtt.snapshot()
    }

    /// Whether the connection has died (server shutdown, over-capacity refusal, or
    /// transport failure).  Pending and future requests resolve with the structured
    /// error that killed it.
    pub fn is_closed(&self) -> bool {
        self.shared.closed.lock().unwrap().is_some()
    }

    fn check_open(&self) -> Result<(), ExecError> {
        match &*self.shared.closed.lock().unwrap() {
            Some(err) => Err(err.clone()),
            None => Ok(()),
        }
    }

    fn submit_inner(
        &self,
        job: EvalJob,
        opts: &SubmitOptions,
        probe: bool,
    ) -> Result<RemoteHandle, ExecError> {
        // Validate before spending a round trip — the same structured errors, at the
        // same point in the submission, as the local client.
        job.validate()?;
        self.check_open()?;
        let request_id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(RemoteState::default());
        self.shared.pending.lock().unwrap().insert(
            request_id,
            Pending {
                state: Arc::clone(&state),
                submitted: Instant::now(),
            },
        );
        let frame = Frame::Submit(SubmitFrame {
            request_id,
            probe,
            opts: opts.clone(),
            job,
        });
        if let Err(err) = self.write(&frame) {
            self.shared.pending.lock().unwrap().remove(&request_id);
            return Err(err);
        }
        Ok(RemoteHandle { state, request_id })
    }

    fn write(&self, frame: &Frame) -> Result<(), ExecError> {
        let mut writer = self.shared.writer.lock().unwrap();
        wire::write_frame(&mut *writer, frame, self.shared.max_frame)
            .map(|_| ())
            .map_err(|e| ExecError::Transport(e.to_string()))
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        // Closing the socket unblocks the demultiplexer, which fails any pending
        // requests (other threads may still hold their handles) and exits.
        let _ = self.shared.stream.shutdown(Shutdown::Both);
        if let Some(demux) = self.demux.take() {
            let _ = demux.join();
        }
    }
}

fn demux_loop(stream: TcpStream, shared: Arc<ClientShared>) {
    let mut reader = BufReader::new(stream);
    let reason = loop {
        match wire::read_frame(&mut reader, shared.max_frame) {
            Ok(Frame::Result { request_id, result }) => complete(&shared, request_id, Ok(result)),
            Ok(Frame::Error {
                request_id,
                code,
                aux0,
                aux1,
                text,
            }) => complete(
                &shared,
                request_id,
                Err(Frame::to_exec_error(code, aux0, aux1, text)),
            ),
            Ok(Frame::Control(ControlKind::ShuttingDown)) => break ExecError::ShutDown,
            Ok(Frame::Control(ControlKind::OverCapacity)) => break ExecError::Overloaded,
            Ok(Frame::Submit(_) | Frame::SubmitBatch(_)) => {
                break ExecError::Transport("server sent a client-only frame".to_string())
            }
            Err(e) => break ExecError::Transport(e.to_string()),
        }
    };
    // The connection is gone: fail everything pending and everything yet to come
    // with the structured reason, so no handle ever hangs.
    *shared.closed.lock().unwrap() = Some(reason.clone());
    let drained: Vec<Pending> = shared
        .pending
        .lock()
        .unwrap()
        .drain()
        .map(|(_, p)| p)
        .collect();
    for pending in drained {
        pending.state.complete(Err(reason.clone()));
    }
}

fn complete(shared: &ClientShared, request_id: u64, result: Result<EvalResult, ExecError>) {
    let pending = shared.pending.lock().unwrap().remove(&request_id);
    if let Some(pending) = pending {
        let elapsed = pending.submitted.elapsed().as_nanos();
        shared.rtt.record(elapsed.min(u128::from(u64::MAX)) as u64);
        pending.state.complete(result);
    }
}

/// A handle to a remotely submitted job: the same blocking completion surface as a
/// local [`qexec::JobHandle`].
#[derive(Debug)]
pub struct RemoteHandle {
    state: Arc<RemoteState>,
    request_id: u64,
}

impl std::fmt::Debug for RemoteState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteState")
            .field("slot", &self.slot)
            .finish()
    }
}

impl RemoteHandle {
    /// Blocks until the job completes (or the connection dies) and returns its
    /// result.
    pub fn wait(&self) -> Result<EvalResult, ExecError> {
        let mut slot = self.state.slot.lock().unwrap();
        while slot.is_none() {
            slot = self.state.cv.wait(slot).unwrap();
        }
        slot.as_ref().unwrap().clone()
    }

    /// Blocks until the job completes or `timeout` elapses (`None` on timeout; the
    /// request stays pending and can be waited on again).
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Result<EvalResult, ExecError>> {
        let deadline = Instant::now() + timeout;
        let mut slot = self.state.slot.lock().unwrap();
        while slot.is_none() {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.state.cv.wait_timeout(slot, deadline - now).unwrap();
            slot = guard;
        }
        Some(slot.as_ref().unwrap().clone())
    }

    /// The job's result if it has already completed (non-blocking).
    pub fn try_result(&self) -> Option<Result<EvalResult, ExecError>> {
        self.state.slot.lock().unwrap().clone()
    }

    /// Whether the job has completed (successfully or not).
    pub fn is_finished(&self) -> bool {
        self.state.slot.lock().unwrap().is_some()
    }

    /// The connection-scoped request id this handle is waiting on.
    pub fn request_id(&self) -> u64 {
        self.request_id
    }
}

impl CompletionHandle for RemoteHandle {
    fn wait(&self) -> Result<EvalResult, ExecError> {
        RemoteHandle::wait(self)
    }

    fn wait_timeout(&self, timeout: Duration) -> Option<Result<EvalResult, ExecError>> {
        RemoteHandle::wait_timeout(self, timeout)
    }

    fn try_result(&self) -> Option<Result<EvalResult, ExecError>> {
        RemoteHandle::try_result(self)
    }

    fn is_finished(&self) -> bool {
        RemoteHandle::is_finished(self)
    }
}

impl JobSubmitter for NetClient {
    type Handle = RemoteHandle;

    fn submit_job(&self, job: EvalJob, opts: &SubmitOptions) -> Result<RemoteHandle, ExecError> {
        self.submit_with(job, opts)
    }

    fn submit_probe_job(
        &self,
        job: EvalJob,
        opts: &SubmitOptions,
    ) -> Result<RemoteHandle, ExecError> {
        self.submit_probe_with(job, opts)
    }

    fn submit_job_group(&self, jobs: Vec<EvalJob>) -> Result<Vec<RemoteHandle>, ExecError> {
        self.submit_group(jobs)
    }
}
