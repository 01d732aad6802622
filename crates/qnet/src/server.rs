//! The multi-connection TCP front-end over an executor.
//!
//! A [`NetServer`] binds a `TcpListener` over an `Arc<Executor>` and maps **each
//! connection to one [`ExecClient`]** — the executor's fair round-robin scheduling and
//! per-client admission bounds therefore apply per connection, so one greedy remote
//! caller cannot starve the others any more than a greedy in-process client could.
//! Completions are pushed as request-id-tagged frames by a per-connection writer
//! thread the moment each job finishes (via [`qexec::JobHandle::on_complete`]), so
//! results stream out of order with no thread and no poll per in-flight job.
//!
//! Failure is structural, mirroring the executor's own contract: every `ExecError`
//! (validation, admission rejection, quarantine, panic) becomes a wire error frame
//! carrying its stable code — never a dropped connection; a malformed payload is
//! answered with [`crate::wire::CODE_MALFORMED`] and the connection survives (the
//! length prefix keeps the stream synced); only an unframeable stream (bad magic,
//! oversized frame, transport error) closes the connection.  `QNET_MAX_CONNS` bounds
//! the connection count with a polite over-capacity control frame, and
//! [`NetServer::shutdown`] drains gracefully: stop accepting, fail queued jobs with
//! the `ShutDown` code, wait out in-flight work, notify every peer.

use crate::wire::{self, ControlKind, Frame, SubmitFrame, WireError};
use crate::{max_conns_from_env, max_frame_from_env};
use qexec::{ExecClient, ExecError, Executor};
use std::collections::HashMap;
use std::io::{BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Names of the server's always-live event counters, in [`event`] index order.
pub const NET_EVENT_NAMES: &[&str] = &[
    "conns_accepted",
    "conns_closed",
    "conns_rejected",
    "frames_in",
    "frames_out",
    "bytes_in",
    "bytes_out",
    "decode_errors",
    "submits",
    "probes",
    "batches",
    "results_sent",
    "errors_sent",
];

/// Indices into [`NET_EVENT_NAMES`] / the server registry's counters.
pub mod event {
    /// Connections accepted and served.
    pub const CONNS_ACCEPTED: usize = 0;
    /// Connections that ended (client close, protocol error, or shutdown).
    pub const CONNS_CLOSED: usize = 1;
    /// Connections politely refused at `QNET_MAX_CONNS`.
    pub const CONNS_REJECTED: usize = 2;
    /// Frames decoded from clients.
    pub const FRAMES_IN: usize = 3;
    /// Frames written to clients.
    pub const FRAMES_OUT: usize = 4;
    /// Bytes read from clients.
    pub const BYTES_IN: usize = 5;
    /// Bytes written to clients.
    pub const BYTES_OUT: usize = 6;
    /// Payloads that failed to decode (answered with `CODE_MALFORMED` or closed).
    pub const DECODE_ERRORS: usize = 7;
    /// Evaluation submissions received.
    pub const SUBMITS: usize = 8;
    /// Probe submissions received.
    pub const PROBES: usize = 9;
    /// Batch frames received.
    pub const BATCHES: usize = 10;
    /// Successful results written.
    pub const RESULTS_SENT: usize = 11;
    /// Error frames written.
    pub const ERRORS_SENT: usize = 12;
}

/// Reader poll interval: how quickly an idle connection notices server shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Once a frame has started arriving, how long the rest may take.  A peer that stalls
/// mid-frame longer than this is treated as gone (the stream would be desynced).
const FRAME_TIMEOUT: Duration = Duration::from_secs(5);

/// Configures and binds a [`NetServer`]; see [`NetServer::builder`].
pub struct NetServerBuilder {
    executor: Arc<Executor>,
    max_conns: usize,
    max_frame: usize,
    observability: Option<bool>,
}

impl NetServerBuilder {
    /// Caps concurrent connections (default: `QNET_MAX_CONNS`, or 64).  Connections
    /// past the cap receive an over-capacity control frame and are closed.
    pub fn max_conns(mut self, max_conns: usize) -> Self {
        self.max_conns = max_conns.max(1);
        self
    }

    /// Caps frame payload size in bytes (default: `QNET_MAX_FRAME`, or 8 MiB).
    pub fn max_frame(mut self, max_frame: usize) -> Self {
        self.max_frame = max_frame;
        self
    }

    /// Enables or disables per-connection labeled request counters on the server's
    /// registry (event counters are always live).  Defaults to the process-wide
    /// [`qobs::enabled`] setting (`QOBS`).
    pub fn observability(mut self, enabled: bool) -> Self {
        self.observability = Some(enabled);
        self
    }

    /// Binds the listener and starts accepting connections.
    pub fn bind(self, addr: impl ToSocketAddrs) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            executor: self.executor,
            obs: qobs::Registry::with_capacity(
                NET_EVENT_NAMES,
                self.observability.unwrap_or_else(qobs::enabled),
                qobs::ring_capacity_from_env(),
            ),
            max_conns: self.max_conns,
            max_frame: self.max_frame,
            shutdown: AtomicBool::new(false),
            next_conn_id: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            inflight: Mutex::new(0),
            drain_cv: Condvar::new(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("qnet-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn qnet accept thread");
        Ok(NetServer {
            shared,
            local_addr,
            accept: Mutex::new(Some(accept)),
        })
    }
}

/// A TCP execution server; see the [module docs](self).
pub struct NetServer {
    shared: Arc<ServerShared>,
    local_addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl NetServer {
    /// Starts configuring a server over `executor`; connection/frame caps default
    /// from `QNET_MAX_CONNS` / `QNET_MAX_FRAME`.
    pub fn builder(executor: Arc<Executor>) -> NetServerBuilder {
        NetServerBuilder {
            executor,
            max_conns: max_conns_from_env(),
            max_frame: max_frame_from_env(),
            observability: None,
        }
    }

    /// Binds with environment-default settings: `NetServer::builder(executor).bind(addr)`.
    pub fn bind(addr: impl ToSocketAddrs, executor: Arc<Executor>) -> std::io::Result<NetServer> {
        NetServer::builder(executor).bind(addr)
    }

    /// The bound listen address (with the OS-assigned port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The executor this server fronts.
    pub fn executor(&self) -> &Arc<Executor> {
        &self.shared.executor
    }

    /// The server's observability registry: always-live [`NET_EVENT_NAMES`] counters,
    /// plus per-connection labeled request counters when recording is enabled.
    pub fn observability(&self) -> Arc<qobs::Registry> {
        Arc::clone(&self.shared.obs)
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared.conns.lock().unwrap().len()
    }

    /// Gracefully shuts the server down (idempotent; also runs on drop): stop
    /// accepting, fail every *queued* job with the `ShutDown` wire code, wait for
    /// in-flight executions to push their results, notify every connection with a
    /// shutdown control frame, and join the connection threads.  The fronted
    /// executor itself is left running — it belongs to the caller.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept with a throwaway local connection; the accept
        // loop sees the flag and exits before serving it.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.lock().unwrap().take() {
            let _ = accept.join();
        }
        // Take ownership of every live connection, then cancel their queued jobs:
        // the completion callbacks observe the shutdown flag and report the
        // `ShutDown` code on the wire instead of `Cancelled`.
        let entries: Vec<ConnEntry> = {
            let mut conns = self.shared.conns.lock().unwrap();
            conns.drain().map(|(_, entry)| entry).collect()
        };
        for entry in &entries {
            entry.client.cancel_queued();
        }
        // Drain in-flight work: every accepted submission holds an inflight tick
        // until its completion frame is handed to a writer.
        let mut inflight = self.shared.inflight.lock().unwrap();
        while *inflight > 0 {
            inflight = self.shared.drain_cv.wait(inflight).unwrap();
        }
        drop(inflight);
        for entry in entries {
            let _ = entry
                .writer_tx
                .send(Frame::Control(ControlKind::ShuttingDown));
            let ConnEntry {
                writer_tx,
                stream,
                reader,
                writer,
                ..
            } = entry;
            // Closing the channel (and the read half) lets both threads finish.
            drop(writer_tx);
            let _ = stream.shutdown(Shutdown::Read);
            let _ = reader.join();
            let _ = writer.join();
            self.shared.obs.counters().inc(event::CONNS_CLOSED);
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

struct ServerShared {
    executor: Arc<Executor>,
    obs: Arc<qobs::Registry>,
    max_conns: usize,
    max_frame: usize,
    shutdown: AtomicBool,
    next_conn_id: AtomicU64,
    conns: Mutex<HashMap<u64, ConnEntry>>,
    /// Accepted submissions whose completion frame has not yet been handed to a
    /// writer; [`NetServer::shutdown`] waits for this to reach zero.
    inflight: Mutex<u64>,
    drain_cv: Condvar,
}

impl ServerShared {
    fn inflight_inc(&self) {
        *self.inflight.lock().unwrap() += 1;
    }

    fn inflight_dec(&self) {
        let mut inflight = self.inflight.lock().unwrap();
        *inflight -= 1;
        if *inflight == 0 {
            self.drain_cv.notify_all();
        }
    }
}

struct ConnEntry {
    client: ExecClient,
    writer_tx: Sender<Frame>,
    stream: TcpStream,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = wire::write_frame(
                &mut &stream,
                &Frame::Control(ControlKind::ShuttingDown),
                shared.max_frame,
            );
            return;
        }
        let _ = stream.set_nodelay(true);
        // The capacity check and the connection registration happen under one lock
        // acquisition, so concurrent accepts cannot overshoot the cap.
        let mut conns = shared.conns.lock().unwrap();
        if conns.len() >= shared.max_conns {
            drop(conns);
            shared.obs.counters().inc(event::CONNS_REJECTED);
            let _ = wire::write_frame(
                &mut &stream,
                &Frame::Control(ControlKind::OverCapacity),
                shared.max_frame,
            );
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        let (reader_stream, writer_stream) = match (stream.try_clone(), stream.try_clone()) {
            (Ok(r), Ok(w)) => (r, w),
            _ => continue,
        };
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        let client = shared.executor.client();
        let (writer_tx, writer_rx) = mpsc::channel::<Frame>();
        let writer = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("qnet-conn{conn_id}-writer"))
                .spawn(move || writer_loop(writer_stream, writer_rx, shared))
                .expect("spawn qnet writer thread")
        };
        let reader = {
            let shared = Arc::clone(&shared);
            let client = client.clone();
            let tx = writer_tx.clone();
            std::thread::Builder::new()
                .name(format!("qnet-conn{conn_id}-reader"))
                .spawn(move || reader_loop(reader_stream, shared, conn_id, client, tx))
                .expect("spawn qnet reader thread")
        };
        conns.insert(
            conn_id,
            ConnEntry {
                client,
                writer_tx,
                stream,
                reader,
                writer,
            },
        );
        drop(conns);
        shared.obs.counters().inc(event::CONNS_ACCEPTED);
    }
}

/// A `Read` adapter that feeds the server's `bytes_in` counter.
struct CountingRead<'a> {
    inner: &'a TcpStream,
    obs: &'a qobs::Registry,
}

impl Read for CountingRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.obs.counters().add(event::BYTES_IN, n as u64);
        Ok(n)
    }
}

fn reader_loop(
    stream: TcpStream,
    shared: Arc<ServerShared>,
    conn_id: u64,
    client: ExecClient,
    tx: Sender<Frame>,
) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Shutdown owns this connection's teardown.
            return;
        }
        // Poll a single byte so an idle connection re-checks the shutdown flag every
        // interval; once a frame starts, the rest must arrive within FRAME_TIMEOUT
        // (a stall mid-frame would leave the stream desynced — close it).
        let mut first = [0u8; 1];
        match (&stream).read(&mut first) {
            Ok(0) => break,
            Ok(_) => {
                shared.obs.counters().inc(event::BYTES_IN);
                let _ = stream.set_read_timeout(Some(FRAME_TIMEOUT));
                let result = {
                    let mut framed = first.as_slice().chain(CountingRead {
                        inner: &stream,
                        obs: &shared.obs,
                    });
                    wire::read_frame(&mut framed, shared.max_frame)
                };
                let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                match result {
                    Ok(frame) => {
                        shared.obs.counters().inc(event::FRAMES_IN);
                        if !handle_frame(&shared, conn_id, &client, &tx, frame) {
                            break;
                        }
                    }
                    Err(WireError::Malformed { request_id, reason }) => {
                        // The payload arrived in full, so the stream is still
                        // frame-synced: answer and keep serving.
                        shared.obs.counters().inc(event::DECODE_ERRORS);
                        let _ = tx.send(Frame::Error {
                            request_id,
                            code: wire::CODE_MALFORMED,
                            aux0: 0,
                            aux1: 0,
                            text: reason.to_string(),
                        });
                    }
                    Err(_) => {
                        // Bad magic / version / oversized frame / transport error:
                        // the stream cannot be trusted to be frame-aligned.
                        shared.obs.counters().inc(event::DECODE_ERRORS);
                        break;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
    // Client-initiated close (EOF, protocol violation, or transport error): withdraw
    // this connection and its queued work.  If shutdown drained the map first, it
    // owns teardown and this is a no-op.
    let entry = shared.conns.lock().unwrap().remove(&conn_id);
    if let Some(entry) = entry {
        entry.client.cancel_queued();
        shared.obs.counters().inc(event::CONNS_CLOSED);
        // Dropping the entry detaches the join handles and closes its writer
        // channel; the writer exits once in-flight completion callbacks (which hold
        // sender clones) finish.
    }
}

/// Handles one decoded frame; returns `false` when the connection must close (a
/// client sent a server-only frame).
fn handle_frame(
    shared: &Arc<ServerShared>,
    conn_id: u64,
    client: &ExecClient,
    tx: &Sender<Frame>,
    frame: Frame,
) -> bool {
    match frame {
        Frame::Submit(entry) => submit_entries(shared, conn_id, client, tx, vec![entry]),
        Frame::SubmitBatch(entries) => {
            shared.obs.counters().inc(event::BATCHES);
            submit_entries(shared, conn_id, client, tx, entries);
        }
        // Result / Error / Control frames flow server → client only.
        Frame::Result { .. } | Frame::Error { .. } | Frame::Control(_) => return false,
    }
    true
}

/// Submits the entries of one frame as one group ([`ExecClient::submit_group`]: one
/// slate, all or nothing) and pushes each entry's completion through the writer.  A
/// refused group — validation, unknown backend, admission control — answers every
/// entry with the refusing error: a structured error frame, not a drop.
fn submit_entries(
    shared: &Arc<ServerShared>,
    conn_id: u64,
    client: &ExecClient,
    tx: &Sender<Frame>,
    entries: Vec<SubmitFrame>,
) {
    let counters = shared.obs.counters();
    let mut request_ids = Vec::with_capacity(entries.len());
    let mut group = Vec::with_capacity(entries.len());
    for entry in entries {
        counters.inc(if entry.probe {
            event::PROBES
        } else {
            event::SUBMITS
        });
        request_ids.push(entry.request_id);
        group.push((entry.job, entry.opts, entry.probe));
    }
    if shared.obs.enabled() {
        shared
            .obs
            .labeled()
            .add(&format!("conn{conn_id}_requests"), group.len() as u64);
    }
    // Refuse work that races past a shutdown's queued-job withdrawal: once the
    // drain has started, a late submission must not re-arm the inflight count.
    let submitted = if shared.shutdown.load(Ordering::SeqCst) {
        Err(ExecError::ShutDown)
    } else {
        client.submit_group(group)
    };
    let handles = match submitted {
        Ok(handles) => handles,
        Err(err) => {
            for request_id in request_ids {
                let _ = tx.send(Frame::from_exec_error(request_id, &err));
            }
            return;
        }
    };
    for (request_id, handle) in request_ids.into_iter().zip(handles) {
        shared.inflight_inc();
        let tx = tx.clone();
        let shared = Arc::clone(shared);
        handle.on_complete(move |result| {
            let frame = match result {
                Ok(result) => Frame::Result {
                    request_id,
                    result: result.clone(),
                },
                Err(err) => {
                    // Queued jobs withdrawn by a server shutdown surface as
                    // `ShutDown` on the wire, not as an inexplicable
                    // cancellation the client never asked for.
                    let err = if matches!(err, ExecError::Cancelled)
                        && shared.shutdown.load(Ordering::SeqCst)
                    {
                        &ExecError::ShutDown
                    } else {
                        err
                    };
                    Frame::from_exec_error(request_id, err)
                }
            };
            let _ = tx.send(frame);
            shared.inflight_dec();
        });
    }
}

fn writer_loop(stream: TcpStream, rx: Receiver<Frame>, shared: Arc<ServerShared>) {
    let mut writer = BufWriter::new(stream);
    // Blocking receive, then opportunistically drain whatever else is ready before
    // flushing once: completions that pile up under load share a flush, while a lone
    // result still flushes immediately.
    'outer: while let Ok(mut frame) = rx.recv() {
        loop {
            let sent_event = match &frame {
                Frame::Error { .. } => Some(event::ERRORS_SENT),
                Frame::Result { .. } => Some(event::RESULTS_SENT),
                _ => None,
            };
            match wire::write_frame(&mut writer, &frame, shared.max_frame) {
                Ok(bytes) => {
                    let counters = shared.obs.counters();
                    counters.inc(event::FRAMES_OUT);
                    counters.add(event::BYTES_OUT, bytes as u64);
                    if let Some(ev) = sent_event {
                        counters.inc(ev);
                    }
                }
                Err(_) => break 'outer,
            }
            match rx.try_recv() {
                Ok(next) => frame = next,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    let _ = writer.flush();
                    return;
                }
            }
        }
        if writer.flush().is_err() {
            break;
        }
    }
    let _ = writer.flush();
}
