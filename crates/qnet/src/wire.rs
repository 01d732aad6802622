//! The versioned, length-prefixed binary wire protocol.
//!
//! This is the first untrusted-input boundary in the codebase, and the codec is written
//! accordingly: every frame is length-prefixed and capped by a max-frame-size limit
//! before a single payload byte is buffered, every length field inside a payload is
//! checked against the bytes actually remaining before any allocation, and every decode
//! failure is a structured [`WireError`] — never a panic, never an unbounded
//! allocation.  Encoding is hand-rolled over `std::io::{Read, Write}` (no serializer
//! crate is available offline) with all integers little-endian and
//! `f64`s as raw IEEE-754 bits, so floating-point payloads round-trip bit-exactly —
//! the loopback bit-identity contract starts here.
//!
//! # Frame layout
//!
//! ```text
//! +-------+---------+------+------------+-------------+-- - - -
//! | magic | version | type | request id | payload len | payload
//! |  u32  |   u8    |  u8  |    u64     |     u32     |
//! +-------+---------+------+------------+-------------+-- - - -
//! ```
//!
//! Frame types: `Submit` (one job + options), `SubmitBatch` (a group that must
//! coalesce into one scheduling slate), `Result`, `Error` (a stable
//! [`qexec::ExecError`] code plus payload), and `Control` (over-capacity reject /
//! shutdown notice).  Responses carry the request id of the submission they resolve,
//! which is what lets the server stream completions out of order.
//!
//! The entries of a `SubmitBatch` usually share one circuit and one set of operators.
//! The decoder keeps the previous entry's circuit and operators with the bytes each
//! came from; an entry whose bytes repeat them shares the decoded `Arc` instead of
//! decoding and allocating a copy.  The bytes on the wire are the same either way.

use qcircuit::{Circuit, Gate};
use qexec::{EvalJob, ExecError, SubmitOptions};
use qop::{PauliOp, PauliString};
use qrng::StreamId;
use std::io::{Read, Write};
use std::sync::Arc;
use vqa::{BackendCaps, EvalResult, InitialState};

/// Frame magic: `"QNET"` as a little-endian `u32`.
pub const MAGIC: u32 = 0x514E_4554;

/// Protocol version; bumped on any incompatible layout change.
pub const VERSION: u8 = 1;

/// Default cap on a frame's payload size (8 MiB), overridable per endpoint (the
/// server reads `QNET_MAX_FRAME`).  Both sides enforce it: readers refuse to buffer a
/// larger payload, writers refuse to emit one.
pub const DEFAULT_MAX_FRAME: usize = 8 * 1024 * 1024;

/// Error-frame code for a payload that arrived framed correctly but failed to decode
/// (outside the [`ExecError::code`] space, which starts at 1 and stays well below
/// this).  The server answers with this code and keeps the connection: a
/// length-prefixed payload that fails decoding leaves the stream frame-synced.
pub const CODE_MALFORMED: u16 = 100;

/// Fixed frame-header length: magic (4) + version (1) + type (1) + request id (8) +
/// payload length (4).
pub const HEADER_LEN: usize = 18;

/// Frame-type byte: a single job submission ([`Frame::Submit`]).
pub const TYPE_SUBMIT: u8 = 1;
/// Frame-type byte: a coalesced group submission ([`Frame::SubmitBatch`]).
pub const TYPE_SUBMIT_BATCH: u8 = 2;
/// Frame-type byte: a successful completion ([`Frame::Result`]).
pub const TYPE_RESULT: u8 = 3;
/// Frame-type byte: a structured failure ([`Frame::Error`]).
pub const TYPE_ERROR: u8 = 4;
/// Frame-type byte: a connection-level control notice ([`Frame::Control`]).
pub const TYPE_CONTROL: u8 = 5;

/// Why a frame could not be read, written, or decoded.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed (includes EOF mid-frame).
    Io(std::io::Error),
    /// The stream's next frame does not start with [`MAGIC`] — the peer is not
    /// speaking this protocol (or the stream desynced); the connection must close.
    BadMagic(u32),
    /// The peer speaks an unsupported protocol version.
    UnsupportedVersion(u8),
    /// The header names a frame type this version does not define.
    UnknownFrameType(u8),
    /// The header announces a payload larger than the endpoint's frame cap.  Refused
    /// before buffering: an attacker-supplied length never sizes an allocation.
    FrameTooLarge {
        /// Announced payload length.
        len: usize,
        /// The endpoint's cap.
        max: usize,
    },
    /// The payload arrived complete but failed to decode.  Recoverable: the stream is
    /// still frame-synced, and `request_id` lets a server answer the offending
    /// request with a [`CODE_MALFORMED`] error frame instead of dropping the
    /// connection.
    Malformed {
        /// Request id from the offending frame's header.
        request_id: u64,
        /// What the payload violated.
        reason: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Malformed { request_id, reason } => {
                write!(f, "malformed payload for request {request_id}: {reason}")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// One submission: a request id (echoed by the response), the probe flag, options,
/// and the job itself.
///
/// The job's `deadline` does not traverse the wire (an `Instant` is meaningless on
/// another host — bound waits client-side with `wait_timeout`); its `rng_stream` is
/// folded into the options at encode time (the options stream wins at admission
/// anyway), so a decoded job always carries `rng_stream: None` and the options carry
/// the resolved pin.
#[derive(Clone, Debug)]
pub struct SubmitFrame {
    /// Connection-scoped request id; the matching `Result`/`Error` frame echoes it.
    pub request_id: u64,
    /// `true` submits through the probe path (exact expectation, zero shots).
    pub probe: bool,
    /// Submission options, including the determinism-critical RNG stream pin.
    pub opts: SubmitOptions,
    /// The job to execute.
    pub job: EvalJob,
}

/// A connection-level control notice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlKind {
    /// The server is at `QNET_MAX_CONNS`; this connection is being politely refused.
    OverCapacity,
    /// The server is shutting down; no further submissions will be accepted.
    ShuttingDown,
}

/// A decoded frame.
#[derive(Clone, Debug)]
pub enum Frame {
    /// One job submission (client → server).
    Submit(SubmitFrame),
    /// A group of submissions that must coalesce into one scheduling slate
    /// (client → server).  The header's request id is the first entry's.
    SubmitBatch(Vec<SubmitFrame>),
    /// A successful completion (server → client).
    Result {
        /// The submission this resolves.
        request_id: u64,
        /// The job's result.
        result: EvalResult,
    },
    /// A failed completion or refused submission (server → client).  `code`, `aux0`,
    /// `aux1`, and `text` are exactly [`ExecError::code`] + [`ExecError::parts`]
    /// (or [`CODE_MALFORMED`] for an undecodable payload).
    Error {
        /// The submission this resolves.
        request_id: u64,
        /// Stable numeric error code.
        code: u16,
        /// First numeric payload.
        aux0: u64,
        /// Second numeric payload.
        aux1: u64,
        /// String payload (backend name, panic message, …).
        text: String,
    },
    /// A connection-level control notice (server → client).
    Control(ControlKind),
}

impl Frame {
    /// Builds an error frame from an [`ExecError`] (the server's completion path).
    pub fn from_exec_error(request_id: u64, err: &ExecError) -> Frame {
        let (aux0, aux1, text) = err.parts();
        Frame::Error {
            request_id,
            code: err.code(),
            aux0,
            aux1,
            text,
        }
    }

    /// Rebuilds the [`ExecError`] an error frame carries.  Unknown codes — a newer
    /// peer, or the frame-level [`CODE_MALFORMED`] — degrade to
    /// [`ExecError::Transport`] so the caller always gets a structured error.
    pub fn to_exec_error(code: u16, aux0: u64, aux1: u64, text: String) -> ExecError {
        if code == CODE_MALFORMED {
            return ExecError::Transport(format!("server rejected the frame as malformed: {text}"));
        }
        ExecError::from_code(code, aux0, aux1, text.clone())
            .unwrap_or_else(|| ExecError::Transport(format!("unknown error code {code}: {text}")))
    }
}

// ---------------------------------------------------------------------------
// Primitive encoding
// ---------------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// `f64`s travel as raw IEEE-754 bits: encode/decode is exact for every value,
/// including negative zero and NaN payloads (which validation, not the codec,
/// rejects) — a lossy float codec would break the bit-identity contract.
fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_len(out: &mut Vec<u8>, len: usize) {
    debug_assert!(
        len <= u32::MAX as usize,
        "length fields are u32 on the wire"
    );
    put_u32(out, len as u32);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Bounds-checked payload cursor.  Every read checks the remaining byte count first;
/// every collection decode bounds its element count by the bytes actually present, so
/// a hostile length field can never size an allocation beyond the (already capped)
/// payload it arrived in.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

type DecodeResult<T> = Result<T, &'static str>;

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.remaining() < n {
            return Err("truncated payload");
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> DecodeResult<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> DecodeResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err("boolean byte out of range"),
        }
    }

    /// Reads a collection length and checks it against the bytes remaining, given a
    /// lower bound on each element's encoded size.
    fn len(&mut self, min_element_size: usize) -> DecodeResult<usize> {
        let count = self.u32()? as usize;
        match count.checked_mul(min_element_size.max(1)) {
            Some(needed) if needed <= self.remaining() => Ok(count),
            _ => Err("length field exceeds payload"),
        }
    }

    fn str(&mut self) -> DecodeResult<String> {
        let len = self.len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "string is not UTF-8")
    }

    fn finish(self) -> DecodeResult<()> {
        if self.remaining() != 0 {
            return Err("trailing bytes after payload");
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Domain encoding
// ---------------------------------------------------------------------------

fn put_caps(out: &mut Vec<u8>, caps: &BackendCaps) {
    let mut bits = 0u8;
    for (i, flag) in [
        caps.batch,
        caps.shots,
        caps.noise,
        caps.trajectories,
        caps.retry_safe,
    ]
    .into_iter()
    .enumerate()
    {
        if flag {
            bits |= 1 << i;
        }
    }
    put_u8(out, bits);
}

fn get_caps(c: &mut Cursor<'_>) -> DecodeResult<BackendCaps> {
    let bits = c.u8()?;
    if bits & !0b1_1111 != 0 {
        return Err("unknown capability bits");
    }
    Ok(BackendCaps {
        batch: bits & 1 != 0,
        shots: bits & 2 != 0,
        noise: bits & 4 != 0,
        trajectories: bits & 8 != 0,
        retry_safe: bits & 16 != 0,
    })
}

fn put_angle(out: &mut Vec<u8>, angle: &qcircuit::Angle) {
    match *angle {
        qcircuit::Angle::Fixed(v) => {
            put_u8(out, 0);
            put_f64(out, v);
        }
        qcircuit::Angle::Param { index, multiplier } => {
            put_u8(out, 1);
            put_u32(out, index as u32);
            put_f64(out, multiplier);
        }
    }
}

fn get_angle(c: &mut Cursor<'_>) -> DecodeResult<qcircuit::Angle> {
    match c.u8()? {
        0 => Ok(qcircuit::Angle::Fixed(c.f64()?)),
        1 => {
            let index = c.u32()? as usize;
            let multiplier = c.f64()?;
            Ok(qcircuit::Angle::Param { index, multiplier })
        }
        _ => Err("unknown angle tag"),
    }
}

fn put_pauli_string(out: &mut Vec<u8>, s: &PauliString) {
    put_u64(out, s.x_mask());
    put_u64(out, s.z_mask());
    put_u32(out, s.num_qubits() as u32);
}

/// `PauliString::from_masks` panics on out-of-range masks, so the invariants are
/// re-checked here first — the untrusted boundary never feeds a panicking
/// constructor.
fn get_pauli_string(c: &mut Cursor<'_>) -> DecodeResult<PauliString> {
    let x_mask = c.u64()?;
    let z_mask = c.u64()?;
    let num_qubits = c.u32()? as usize;
    if num_qubits > PauliString::MAX_QUBITS {
        return Err("pauli register exceeds 64 qubits");
    }
    if num_qubits < 64 {
        let valid = (1u64 << num_qubits) - 1;
        if x_mask & !valid != 0 || z_mask & !valid != 0 {
            return Err("pauli mask has bits outside its register");
        }
    }
    Ok(PauliString::from_masks(x_mask, z_mask, num_qubits))
}

fn put_gate(out: &mut Vec<u8>, gate: &Gate) {
    match gate {
        Gate::H(q) => {
            put_u8(out, 1);
            put_u32(out, *q as u32);
        }
        Gate::X(q) => {
            put_u8(out, 2);
            put_u32(out, *q as u32);
        }
        Gate::Y(q) => {
            put_u8(out, 3);
            put_u32(out, *q as u32);
        }
        Gate::Z(q) => {
            put_u8(out, 4);
            put_u32(out, *q as u32);
        }
        Gate::S(q) => {
            put_u8(out, 5);
            put_u32(out, *q as u32);
        }
        Gate::Sdg(q) => {
            put_u8(out, 6);
            put_u32(out, *q as u32);
        }
        Gate::Cx(control, target) => {
            put_u8(out, 7);
            put_u32(out, *control as u32);
            put_u32(out, *target as u32);
        }
        Gate::Cz(control, target) => {
            put_u8(out, 8);
            put_u32(out, *control as u32);
            put_u32(out, *target as u32);
        }
        Gate::Rx(q, angle) => {
            put_u8(out, 9);
            put_u32(out, *q as u32);
            put_angle(out, angle);
        }
        Gate::Ry(q, angle) => {
            put_u8(out, 10);
            put_u32(out, *q as u32);
            put_angle(out, angle);
        }
        Gate::Rz(q, angle) => {
            put_u8(out, 11);
            put_u32(out, *q as u32);
            put_angle(out, angle);
        }
        Gate::PauliRotation(string, angle) => {
            put_u8(out, 12);
            put_pauli_string(out, string);
            put_angle(out, angle);
        }
    }
}

fn get_gate(c: &mut Cursor<'_>) -> DecodeResult<Gate> {
    let tag = c.u8()?;
    Ok(match tag {
        1 => Gate::H(c.u32()? as usize),
        2 => Gate::X(c.u32()? as usize),
        3 => Gate::Y(c.u32()? as usize),
        4 => Gate::Z(c.u32()? as usize),
        5 => Gate::S(c.u32()? as usize),
        6 => Gate::Sdg(c.u32()? as usize),
        7 => Gate::Cx(c.u32()? as usize, c.u32()? as usize),
        8 => Gate::Cz(c.u32()? as usize, c.u32()? as usize),
        9 => Gate::Rx(c.u32()? as usize, get_angle(c)?),
        10 => Gate::Ry(c.u32()? as usize, get_angle(c)?),
        11 => Gate::Rz(c.u32()? as usize, get_angle(c)?),
        12 => Gate::PauliRotation(get_pauli_string(c)?, get_angle(c)?),
        _ => return Err("unknown gate tag"),
    })
}

fn put_circuit(out: &mut Vec<u8>, circuit: &Circuit) {
    put_u32(out, circuit.num_qubits() as u32);
    put_len(out, circuit.num_gates());
    for gate in circuit.gates() {
        put_gate(out, gate);
    }
}

fn get_circuit(c: &mut Cursor<'_>) -> DecodeResult<Circuit> {
    let num_qubits = c.u32()? as usize;
    if num_qubits > PauliString::MAX_QUBITS {
        // `EvalJob::validate` enforces the (smaller) service cap with a structured
        // error; the codec only refuses registers nothing downstream can represent.
        return Err("circuit register exceeds 64 qubits");
    }
    let mut circuit = Circuit::new(num_qubits);
    // Each gate is at least 5 bytes (tag + one u32).
    let count = c.len(5)?;
    for _ in 0..count {
        let gate = get_gate(c)?;
        if let Gate::PauliRotation(string, _) = &gate {
            if string.num_qubits() != num_qubits {
                return Err("pauli rotation register differs from the circuit's");
            }
        }
        // `try_push` re-validates qubit indices against the register, so a hostile
        // gate on qubit 2^31 is a decode error here, not a panic in a kernel.
        circuit
            .try_push(gate)
            .map_err(|_| "gate touches a qubit outside the register")?;
    }
    Ok(circuit)
}

fn put_op(out: &mut Vec<u8>, op: &PauliOp) {
    put_u32(out, op.num_qubits() as u32);
    put_len(out, op.num_terms());
    for term in op.terms() {
        put_u64(out, term.string.x_mask());
        put_u64(out, term.string.z_mask());
        put_f64(out, term.coefficient);
    }
}

/// Terms are rebuilt exactly as encoded — no simplification, no merging — so the
/// decoded operator's term order (and therefore its floating-point summation order)
/// is identical to the sender's: remote evaluation stays bit-identical to local.
fn get_op(c: &mut Cursor<'_>) -> DecodeResult<PauliOp> {
    let num_qubits = c.u32()? as usize;
    if num_qubits > PauliString::MAX_QUBITS {
        return Err("operator register exceeds 64 qubits");
    }
    let valid = if num_qubits < 64 {
        (1u64 << num_qubits) - 1
    } else {
        u64::MAX
    };
    let count = c.len(20)?;
    let mut op = PauliOp::zero(num_qubits);
    for _ in 0..count {
        let x_mask = c.u64()?;
        let z_mask = c.u64()?;
        let coefficient = c.f64()?;
        if x_mask & !valid != 0 || z_mask & !valid != 0 {
            return Err("pauli mask has bits outside its register");
        }
        op.add_term(
            PauliString::from_masks(x_mask, z_mask, num_qubits),
            coefficient,
        );
    }
    Ok(op)
}

fn put_initial(out: &mut Vec<u8>, initial: &InitialState) {
    match initial {
        InitialState::Basis(b) => {
            put_u8(out, 0);
            put_u64(out, *b);
        }
        InitialState::UniformSuperposition => put_u8(out, 1),
    }
}

fn get_initial(c: &mut Cursor<'_>) -> DecodeResult<InitialState> {
    match c.u8()? {
        0 => Ok(InitialState::Basis(c.u64()?)),
        1 => Ok(InitialState::UniformSuperposition),
        _ => Err("unknown initial-state tag"),
    }
}

fn put_opts(out: &mut Vec<u8>, opts: &SubmitOptions, job_stream: Option<StreamId>) {
    match &opts.backend {
        Some(name) => {
            put_u8(out, 1);
            put_str(out, name);
        }
        None => put_u8(out, 0),
    }
    put_u32(out, opts.priority as u32);
    put_caps(out, &opts.require);
    put_u32(out, opts.retries);
    put_u8(out, opts.failover as u8);
    // The determinism pin: the options stream wins over the job's (mirroring
    // admission), and whichever is set travels as its raw u64 key.
    match opts.rng_stream.or(job_stream) {
        Some(stream) => {
            put_u8(out, 1);
            put_u64(out, stream.raw());
        }
        None => put_u8(out, 0),
    }
}

fn get_opts(c: &mut Cursor<'_>) -> DecodeResult<SubmitOptions> {
    let backend = match c.u8()? {
        0 => None,
        1 => Some(c.str()?),
        _ => return Err("unknown backend tag"),
    };
    let priority = c.u32()? as i32;
    let require = get_caps(c)?;
    let retries = c.u32()?;
    let failover = c.bool()?;
    let rng_stream = match c.u8()? {
        0 => None,
        1 => Some(StreamId::from_raw(c.u64()?)),
        _ => return Err("unknown rng-stream tag"),
    };
    Ok(SubmitOptions {
        backend,
        priority,
        require,
        retries,
        failover,
        rng_stream,
    })
}

fn put_job(out: &mut Vec<u8>, job: &EvalJob) {
    put_circuit(out, &job.circuit);
    put_len(out, job.params.len());
    for p in &job.params {
        put_f64(out, *p);
    }
    put_initial(out, &job.initial);
    put_op(out, &job.charged_op);
    put_len(out, job.free_ops.len());
    for op in &job.free_ops {
        put_op(out, op);
    }
}

/// One decoded value and the exact bytes it was decoded from.
type Decoded<'a, T> = Option<(&'a [u8], Arc<T>)>;

/// The circuit and operators of the entry decoded last in a batch frame, each with
/// the bytes it came from (see [`get_shared`]).
#[derive(Default)]
struct LastJob<'a> {
    circuit: Decoded<'a, Circuit>,
    charged_op: Decoded<'a, PauliOp>,
    /// The i-th free operator last seen at position i.
    free_ops: Vec<Decoded<'a, PauliOp>>,
}

/// Decodes a value at the cursor — or, when the bytes there start with exactly the
/// bytes `last` was decoded from, skips them and shares `last`'s value.  Sound because
/// the encoding is deterministic and self-delimiting: every length check in a decoder
/// is bounded by the bytes its value actually spans, so the same bytes decode to the
/// same value (and pass the same checks) wherever they sit in the payload.  A new byte
/// sequence is always decoded and checked in full.
fn get_shared<'a, T>(
    c: &mut Cursor<'a>,
    last: &mut Decoded<'a, T>,
    decode: impl FnOnce(&mut Cursor<'a>) -> DecodeResult<T>,
) -> DecodeResult<Arc<T>> {
    if let Some((bytes, value)) = last {
        if c.buf[c.pos..].starts_with(bytes) {
            c.pos += bytes.len();
            return Ok(Arc::clone(value));
        }
    }
    let start = c.pos;
    let value = Arc::new(decode(c)?);
    *last = Some((&c.buf[start..c.pos], Arc::clone(&value)));
    Ok(value)
}

fn get_job<'a>(c: &mut Cursor<'a>, last: &mut LastJob<'a>) -> DecodeResult<EvalJob> {
    let circuit = get_shared(c, &mut last.circuit, get_circuit)?;
    let param_count = c.len(8)?;
    let mut params = Vec::with_capacity(param_count);
    for _ in 0..param_count {
        params.push(c.f64()?);
    }
    let initial = get_initial(c)?;
    let charged_op = get_shared(c, &mut last.charged_op, get_op)?;
    // Each op is at least 8 bytes (register + empty term list).
    let free_count = c.len(8)?;
    let mut free_ops = Vec::with_capacity(free_count);
    for i in 0..free_count {
        if last.free_ops.len() == i {
            last.free_ops.push(None);
        }
        free_ops.push(get_shared(c, &mut last.free_ops[i], get_op)?);
    }
    Ok(EvalJob::new(circuit, params, initial, charged_op).with_free_ops(free_ops))
}

fn put_submit_entry(out: &mut Vec<u8>, entry: &SubmitFrame) {
    put_u64(out, entry.request_id);
    put_u8(out, entry.probe as u8);
    put_opts(out, &entry.opts, entry.job.rng_stream);
    put_job(out, &entry.job);
}

fn get_submit_entry<'a>(c: &mut Cursor<'a>, last: &mut LastJob<'a>) -> DecodeResult<SubmitFrame> {
    let request_id = c.u64()?;
    let probe = c.bool()?;
    let opts = get_opts(c)?;
    let job = get_job(c, last)?;
    Ok(SubmitFrame {
        request_id,
        probe,
        opts,
        job,
    })
}

fn put_result(out: &mut Vec<u8>, result: &EvalResult) {
    put_f64(out, result.charged);
    put_len(out, result.free.len());
    for v in &result.free {
        put_f64(out, *v);
    }
    put_u64(out, result.shots);
}

fn get_result(c: &mut Cursor<'_>) -> DecodeResult<EvalResult> {
    let charged = c.f64()?;
    let free_count = c.len(8)?;
    let mut free = Vec::with_capacity(free_count);
    for _ in 0..free_count {
        free.push(c.f64()?);
    }
    let shots = c.u64()?;
    Ok(EvalResult {
        charged,
        free,
        shots,
    })
}

// ---------------------------------------------------------------------------
// Frame IO
// ---------------------------------------------------------------------------

fn frame_type_and_id(frame: &Frame) -> (u8, u64) {
    match frame {
        Frame::Submit(entry) => (TYPE_SUBMIT, entry.request_id),
        Frame::SubmitBatch(entries) => (
            TYPE_SUBMIT_BATCH,
            entries.first().map_or(0, |e| e.request_id),
        ),
        Frame::Result { request_id, .. } => (TYPE_RESULT, *request_id),
        Frame::Error { request_id, .. } => (TYPE_ERROR, *request_id),
        Frame::Control(_) => (TYPE_CONTROL, 0),
    }
}

fn put_payload(out: &mut Vec<u8>, frame: &Frame) {
    match frame {
        Frame::Submit(entry) => put_submit_entry(out, entry),
        Frame::SubmitBatch(entries) => {
            put_len(out, entries.len());
            for entry in entries {
                put_submit_entry(out, entry);
            }
        }
        Frame::Result { result, .. } => put_result(out, result),
        Frame::Error {
            code,
            aux0,
            aux1,
            text,
            ..
        } => {
            put_u16(out, *code);
            put_u64(out, *aux0);
            put_u64(out, *aux1);
            put_str(out, text);
        }
        Frame::Control(kind) => put_u8(
            out,
            match kind {
                ControlKind::OverCapacity => 1,
                ControlKind::ShuttingDown => 2,
            },
        ),
    }
}

fn decode_payload(frame_type: u8, request_id: u64, payload: &[u8]) -> Result<Frame, WireError> {
    let malformed = |reason| WireError::Malformed { request_id, reason };
    let mut c = Cursor::new(payload);
    let frame = (|c: &mut Cursor<'_>| -> DecodeResult<Frame> {
        Ok(match frame_type {
            TYPE_SUBMIT => Frame::Submit(get_submit_entry(c, &mut LastJob::default())?),
            TYPE_SUBMIT_BATCH => {
                // Each entry is at least 9 bytes (id + probe flag) before its body.
                let count = c.len(9)?;
                let mut entries = Vec::with_capacity(count);
                // A group's entries usually carry one circuit and one set of operators:
                // each distinct one is decoded (and allocated) once per frame.
                let mut last = LastJob::default();
                for _ in 0..count {
                    entries.push(get_submit_entry(c, &mut last)?);
                }
                Frame::SubmitBatch(entries)
            }
            TYPE_RESULT => Frame::Result {
                request_id,
                result: get_result(c)?,
            },
            TYPE_ERROR => Frame::Error {
                request_id,
                code: c.u16()?,
                aux0: c.u64()?,
                aux1: c.u64()?,
                text: c.str()?,
            },
            TYPE_CONTROL => Frame::Control(match c.u8()? {
                1 => ControlKind::OverCapacity,
                2 => ControlKind::ShuttingDown,
                _ => return Err("unknown control kind"),
            }),
            _ => unreachable!("frame type validated by read_frame"),
        })
    })(&mut c)
    .map_err(malformed)?;
    c.finish().map_err(malformed)?;
    Ok(frame)
}

/// Appends one encoded frame (header + payload) to `out`, returning its length.
/// Refuses (with [`WireError::FrameTooLarge`], leaving `out` as it was) to encode a
/// payload above `max_frame`, so a writer can never produce a frame its symmetric
/// reader would reject.
pub fn encode_frame(
    out: &mut Vec<u8>,
    frame: &Frame,
    max_frame: usize,
) -> Result<usize, WireError> {
    let (frame_type, request_id) = frame_type_and_id(frame);
    let start = out.len();
    put_u32(out, MAGIC);
    put_u8(out, VERSION);
    put_u8(out, frame_type);
    put_u64(out, request_id);
    put_u32(out, 0); // payload length, patched below
    put_payload(out, frame);
    let payload_len = out.len() - start - HEADER_LEN;
    if payload_len > max_frame {
        out.truncate(start);
        return Err(WireError::FrameTooLarge {
            len: payload_len,
            max: max_frame,
        });
    }
    out[start + HEADER_LEN - 4..start + HEADER_LEN]
        .copy_from_slice(&(payload_len as u32).to_le_bytes());
    Ok(HEADER_LEN + payload_len)
}

/// Writes one frame with a single `write_all`, returning the bytes written (header +
/// payload); see [`encode_frame`] for the size cap.
pub fn write_frame(
    w: &mut impl Write,
    frame: &Frame,
    max_frame: usize,
) -> Result<usize, WireError> {
    let mut bytes = Vec::new();
    let len = encode_frame(&mut bytes, frame, max_frame)?;
    w.write_all(&bytes)?;
    Ok(len)
}

/// Whether `buffered` starts with a whole frame: a header and all the payload it
/// announces.
pub(crate) fn holds_whole_frame(buffered: &[u8]) -> bool {
    buffered.len() >= HEADER_LEN && {
        let len = &buffered[HEADER_LEN - 4..HEADER_LEN];
        let len = u32::from_le_bytes(len.try_into().unwrap()) as usize;
        buffered.len() - HEADER_LEN >= len
    }
}

/// Reads one frame, enforcing `max_frame` before buffering the payload.
///
/// Header-level failures ([`WireError::BadMagic`], [`WireError::UnsupportedVersion`],
/// [`WireError::UnknownFrameType`], [`WireError::FrameTooLarge`], [`WireError::Io`])
/// mean the stream can no longer be trusted to be frame-aligned — close the
/// connection.  [`WireError::Malformed`] means the frame was read in full but its
/// payload failed to decode — the stream is still synced and the peer can be
/// answered with a [`CODE_MALFORMED`] error frame.
pub fn read_frame(r: &mut impl Read, max_frame: usize) -> Result<Frame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = header[4];
    if version != VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let frame_type = header[5];
    if !(TYPE_SUBMIT..=TYPE_CONTROL).contains(&frame_type) {
        return Err(WireError::UnknownFrameType(frame_type));
    }
    let request_id = u64::from_le_bytes(header[6..14].try_into().unwrap());
    let payload_len = u32::from_le_bytes(header[14..18].try_into().unwrap()) as usize;
    if payload_len > max_frame {
        return Err(WireError::FrameTooLarge {
            len: payload_len,
            max: max_frame,
        });
    }
    let mut payload = vec![0u8; payload_len];
    r.read_exact(&mut payload)?;
    decode_payload(frame_type, request_id, &payload)
}
