//! The multi-connection TCP front-end over an executor.
//!
//! A [`NetServer`] binds a `TcpListener` over an `Arc<Executor>` and maps **each
//! connection to one [`ExecClient`]** — the executor's fair round-robin scheduling and
//! per-client admission bounds therefore apply per connection, so one greedy remote
//! caller cannot starve the others any more than a greedy in-process client could.
//!
//! A submitted frame — one job or a whole batch — is one unit in both directions.  The
//! reader thread decodes it through a buffered reader (a frame already buffered in full
//! costs no syscall) and submits it as one group.  Each job's completion callback
//! ([`qexec::JobHandle::on_complete`]) encodes its result frame straight into the
//! connection's outbox, a byte buffer under a mutex; the group's last completion flushes
//! it, and the writer thread ships the whole group with one `write_all`.  Refusals,
//! malformed-payload answers and control notices flush at once.  Results therefore
//! stream out of order across groups, with no thread and no poll per in-flight job.
//!
//! The outbox is bounded: once more than `max_frame` bytes of frames are waiting
//! behind a write that has not finished, or a write blocks for five seconds, the
//! connection is dropped and its queued work cancelled — a peer that submits and never
//! reads cannot grow server memory past about two `max_frame` buffers plus one frame's
//! answers.  An idle connection takes any answer whole, however large.
//!
//! Failure is structural, mirroring the executor's own contract: every `ExecError`
//! (validation, admission rejection, quarantine, panic) becomes a wire error frame
//! carrying its stable code — never a dropped connection; a malformed payload is
//! answered with [`crate::wire::CODE_MALFORMED`] and the connection survives (the
//! length prefix keeps the stream synced); only an unframeable stream (bad magic,
//! oversized frame, transport error) or a peer that stops reading closes the
//! connection.  `QNET_MAX_CONNS` bounds the connection count with a polite
//! over-capacity control frame, and [`NetServer::shutdown`] drains gracefully: stop
//! accepting, fail queued jobs with the `ShutDown` code, wait out in-flight work,
//! notify every peer.

use crate::wire::{self, ControlKind, Frame, SubmitFrame, WireError};
use crate::{max_conns_from_env, max_frame_from_env};
use qexec::{ExecClient, ExecError, Executor};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
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
    "writes",
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
    /// Frames encoded for clients (counted as they are buffered for the writer).
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
    /// Successful results encoded.
    pub const RESULTS_SENT: usize = 11;
    /// Error frames encoded.
    pub const ERRORS_SENT: usize = 12;
    /// Socket writes: each carries every frame flushed since the previous one — at
    /// least one whole group, refusal or control notice.
    pub const WRITES: usize = 13;
}

/// Reader poll interval: how quickly an idle connection notices server shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Once a frame has started arriving, how long the rest may take, and how long one
/// write may block.  A peer that stalls mid-frame, or stops reading, longer than this
/// is treated as gone (the stream would be desynced, or the outbox would grow).
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
        // until its completion frame is in its connection's outbox.
        let mut inflight = self.shared.inflight.lock().unwrap();
        while *inflight > 0 {
            inflight = self.shared.drain_cv.wait(inflight).unwrap();
        }
        drop(inflight);
        for entry in entries {
            entry
                .outbox
                .send([Frame::Control(ControlKind::ShuttingDown)]);
            // The notice is the entry's last frame: once its slot is released the
            // writer exits after writing it.  Ending the read half ends the reader.
            entry.outbox.release_entry();
            let _ = entry.outbox.stream.shutdown(Shutdown::Read);
            let _ = entry.reader.join();
            let _ = entry.writer.join();
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
    /// Accepted submissions whose completion frame is not yet in its connection's
    /// outbox; [`NetServer::shutdown`] waits for this to reach zero.
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
    outbox: Arc<Outbox>,
    reader: JoinHandle<()>,
    writer: JoinHandle<()>,
}

/// A connection's unsent response frames, encoded in place by whatever answers on the
/// connection (completion callbacks, the reader, shutdown) and shipped by its writer
/// thread in one `write_all` per flush.
struct Outbox {
    state: Mutex<OutboxState>,
    /// Signalled when `flush` is set, a producer finishes, or the outbox fails.
    ready: Condvar,
    /// Shut down when the outbox fails, which also ends the connection's reader.
    stream: TcpStream,
    /// Bytes allowed to wait behind an unfinished write before the connection is
    /// dropped.
    max_frame: usize,
    obs: Arc<qobs::Registry>,
}

#[derive(Default)]
struct OutboxState {
    /// Encoded frames not yet handed to the writer.
    bytes: Vec<u8>,
    /// `bytes` ends on a finished group or an unbatched frame.  The writer waits on
    /// this, not on `bytes` being non-empty, so a spurious wake-up never ships half a
    /// group.
    flush: bool,
    /// The writer has taken a buffer and not yet come back for the next one.
    writing: bool,
    /// Parties that may still append: the connection's entry (released by whoever
    /// withdraws it — the reader on a client close, shutdown after its notice), plus
    /// every accepted group with completions outstanding.  The writer exits when this
    /// reaches zero.
    producers: usize,
    /// Overflowed, or a frame failed to encode or write: the connection is being
    /// dropped and appends are discarded.
    failed: bool,
}

impl Outbox {
    fn new(stream: TcpStream, max_frame: usize, obs: Arc<qobs::Registry>) -> Outbox {
        Outbox {
            state: Mutex::new(OutboxState {
                producers: 1,
                ..OutboxState::default()
            }),
            ready: Condvar::new(),
            stream,
            max_frame,
            obs,
        }
    }

    fn lock(&self) -> MutexGuard<'_, OutboxState> {
        self.state
            .lock()
            .expect("no thread panics while holding an outbox lock")
    }

    /// Appends `frames` and hands everything buffered to the writer at once (refusals,
    /// malformed-payload answers, control notices).
    fn send(&self, frames: impl IntoIterator<Item = Frame>) {
        let mut state = self.lock();
        if self.admit(&mut state) {
            for frame in frames {
                self.append(&mut state, &frame);
            }
        }
        state.flush = true;
        drop(state);
        self.ready.notify_one();
    }

    /// Registers a group whose completions arrive through [`Outbox::complete`].
    fn open_group(&self) {
        self.lock().producers += 1;
    }

    /// Appends one completion of a group whose outstanding entries `remaining`
    /// counts.  The count drops under the outbox lock, so the group's last completion
    /// finds every other entry's frame already buffered and flushes the whole group
    /// as one write.
    fn complete(&self, frame: &Frame, remaining: &AtomicUsize) {
        let mut state = self.lock();
        if self.admit(&mut state) {
            self.append(&mut state, frame);
        }
        // `Relaxed`: the outbox mutex orders every decrement of a group's count.
        if remaining.fetch_sub(1, Ordering::Relaxed) == 1 {
            state.flush = true;
            state.producers -= 1;
            drop(state);
            self.ready.notify_one();
        }
    }

    /// The connection's entry has been withdrawn: no new groups or notices will come.
    fn release_entry(&self) {
        self.lock().producers -= 1;
        self.ready.notify_one();
    }

    /// Whether the next answer — one completion, or one frame's refusal — may be
    /// buffered.  More than `max_frame` bytes already waiting behind an unfinished
    /// write means the peer is not reading, and the connection is dropped; an answer
    /// that arrives while the writer is idle is taken whole, however large.
    fn admit(&self, state: &mut OutboxState) -> bool {
        if !state.failed && state.writing && state.bytes.len() > self.max_frame {
            self.fail(state);
        }
        !state.failed
    }

    fn append(&self, state: &mut OutboxState, frame: &Frame) {
        if state.failed {
            return;
        }
        if wire::encode_frame(&mut state.bytes, frame, self.max_frame).is_err() {
            self.fail(state);
            return;
        }
        let counters = self.obs.counters();
        counters.inc(event::FRAMES_OUT);
        match frame {
            Frame::Result { .. } => counters.inc(event::RESULTS_SENT),
            Frame::Error { .. } => counters.inc(event::ERRORS_SENT),
            Frame::Control(_) | Frame::Submit(_) | Frame::SubmitBatch(_) => {}
        }
    }

    /// Drops the connection: discards what is buffered and shuts the socket down, so
    /// the reader sees the close, withdraws the connection and cancels its queued
    /// work.  Completions still in flight append into the void.
    fn fail(&self, state: &mut OutboxState) {
        state.failed = true;
        state.bytes = Vec::new();
        let _ = self.stream.shutdown(Shutdown::Both);
        self.ready.notify_one();
    }
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
        let outbox = Arc::new(Outbox::new(
            stream,
            shared.max_frame,
            Arc::clone(&shared.obs),
        ));
        let writer = {
            let outbox = Arc::clone(&outbox);
            std::thread::Builder::new()
                .name(format!("qnet-conn{conn_id}-writer"))
                .spawn(move || writer_loop(writer_stream, outbox))
                .expect("spawn qnet writer thread")
        };
        let reader = {
            let shared = Arc::clone(&shared);
            let client = client.clone();
            let outbox = Arc::clone(&outbox);
            std::thread::Builder::new()
                .name(format!("qnet-conn{conn_id}-reader"))
                .spawn(move || reader_loop(reader_stream, shared, conn_id, client, outbox))
                .expect("spawn qnet reader thread")
        };
        conns.insert(
            conn_id,
            ConnEntry {
                client,
                outbox,
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
    outbox: Arc<Outbox>,
) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut reader = BufReader::new(CountingRead {
        inner: &stream,
        obs: &shared.obs,
    });
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            // Shutdown owns this connection's teardown, its notice and the entry's
            // outbox slot included.
            return;
        }
        // Waiting a poll interval at a time lets an idle connection notice shutdown.
        let whole = match reader.fill_buf() {
            Ok([]) => break,
            Ok(buffered) => wire::holds_whole_frame(buffered),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        // A frame that is already buffered in full decodes without touching the
        // socket.  Otherwise the rest must arrive within FRAME_TIMEOUT: a stall
        // mid-frame would leave the stream desynced, so it closes the connection.
        if !whole {
            let _ = stream.set_read_timeout(Some(FRAME_TIMEOUT));
        }
        let result = wire::read_frame(&mut reader, shared.max_frame);
        if !whole {
            let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
        }
        match result {
            Ok(frame) => {
                shared.obs.counters().inc(event::FRAMES_IN);
                if !handle_frame(&shared, conn_id, &client, &outbox, frame) {
                    break;
                }
            }
            Err(WireError::Malformed { request_id, reason }) => {
                // The payload arrived in full, so the stream is still frame-synced:
                // answer and keep serving.
                shared.obs.counters().inc(event::DECODE_ERRORS);
                outbox.send([Frame::Error {
                    request_id,
                    code: wire::CODE_MALFORMED,
                    aux0: 0,
                    aux1: 0,
                    text: reason.to_string(),
                }]);
            }
            Err(_) => {
                // Bad magic / version / oversized frame / transport error: the stream
                // cannot be trusted to be frame-aligned.
                shared.obs.counters().inc(event::DECODE_ERRORS);
                break;
            }
        }
    }
    // Client-initiated close (EOF, protocol violation, transport error, or a dropped
    // outbox): withdraw this connection and its queued work.  If shutdown drained the
    // map first, it owns teardown and this is a no-op.
    let entry = shared.conns.lock().unwrap().remove(&conn_id);
    if let Some(entry) = entry {
        entry.client.cancel_queued();
        shared.obs.counters().inc(event::CONNS_CLOSED);
        entry.outbox.release_entry();
        // Dropping the entry detaches the join handles; the writer exits once the
        // completions still in flight have been written.
    }
}

/// Handles one decoded frame; returns `false` when the connection must close (a
/// client sent a server-only frame).
fn handle_frame(
    shared: &Arc<ServerShared>,
    conn_id: u64,
    client: &ExecClient,
    outbox: &Arc<Outbox>,
    frame: Frame,
) -> bool {
    match frame {
        Frame::Submit(entry) => submit_entries(shared, conn_id, client, outbox, vec![entry]),
        Frame::SubmitBatch(entries) => {
            shared.obs.counters().inc(event::BATCHES);
            submit_entries(shared, conn_id, client, outbox, entries);
        }
        // Result / Error / Control frames flow server → client only.
        Frame::Result { .. } | Frame::Error { .. } | Frame::Control(_) => return false,
    }
    true
}

/// Submits the entries of one frame as one group ([`ExecClient::submit_group`]: one
/// slate, all or nothing) and answers the group in one write once its last entry
/// completes.  A refused group — validation, unknown backend, admission control —
/// answers every entry with the refusing error at once: a structured error frame, not
/// a drop.
fn submit_entries(
    shared: &Arc<ServerShared>,
    conn_id: u64,
    client: &ExecClient,
    outbox: &Arc<Outbox>,
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
        Ok(handles) if handles.is_empty() => return,
        Ok(handles) => handles,
        Err(err) => {
            outbox.send(
                request_ids
                    .into_iter()
                    .map(|request_id| Frame::from_exec_error(request_id, &err)),
            );
            return;
        }
    };
    let remaining = Arc::new(AtomicUsize::new(handles.len()));
    outbox.open_group();
    for (request_id, handle) in request_ids.into_iter().zip(handles) {
        shared.inflight_inc();
        let outbox = Arc::clone(outbox);
        let remaining = Arc::clone(&remaining);
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
            outbox.complete(&frame, &remaining);
            shared.inflight_dec();
        });
    }
}

/// Ships the outbox: waits for a flush, takes the buffered bytes under the lock, and
/// writes them with one `write_all`.  A write that cannot finish within
/// FRAME_TIMEOUT (a peer that does not read) drops the connection.
fn writer_loop(mut stream: TcpStream, outbox: Arc<Outbox>) {
    let _ = stream.set_write_timeout(Some(FRAME_TIMEOUT));
    let mut out = Vec::new();
    loop {
        {
            let mut state = outbox.lock();
            state.writing = false;
            while !state.flush && !state.failed && state.producers > 0 {
                state = outbox
                    .ready
                    .wait(state)
                    .expect("no thread panics while holding an outbox lock");
            }
            if state.failed || !state.flush {
                return;
            }
            state.flush = false;
            state.writing = true;
            std::mem::swap(&mut state.bytes, &mut out);
        }
        if stream.write_all(&out).is_err() {
            outbox.fail(&mut outbox.lock());
            return;
        }
        let counters = outbox.obs.counters();
        counters.inc(event::WRITES);
        counters.add(event::BYTES_OUT, out.len() as u64);
        out.clear();
    }
}
