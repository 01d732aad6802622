//! Network-layer integration suite: the `qnet` wire codec, server, and client.
//!
//! Three families of properties:
//!
//! 1. **Codec safety** — every frame type round-trips bit-exactly, and *no* byte
//!    sequence (truncated, corrupted, oversized, or pure garbage) makes the decoder
//!    panic: the wire is the system's first untrusted-input boundary, so malformed
//!    input must surface as a structured [`qnet::WireError`], never as a crash.
//! 2. **Loopback transparency** — a job submitted through a real TCP connection
//!    produces results bit-identical to the same job submitted through a local
//!    [`qexec::ExecClient`], including the total `qrng` draw count, for exact,
//!    sampled, and noisy-trajectory backends.  The whole
//!    `vqa`-level driver ([`qexec::run_single_vqa`]) runs remotely unchanged and
//!    reproduces the local trajectory bit-for-bit.
//! 3. **Service behavior** — concurrent connections all complete with per-connection
//!    accounting, a group is answered in one write, malformed frames answer with an
//!    error frame while the connection survives, hostile jobs are refused with the
//!    same stable codes remotely as locally, a peer that never reads is dropped
//!    without stalling the others, over-capacity connects are politely refused, and
//!    shutdown fails in-flight work cleanly instead of hanging or dropping it.

use proptest::prelude::*;
use qcircuit::{Angle, Circuit, Entanglement, Gate, HardwareEfficientAnsatz};
use qexec::{
    run_single_vqa, AdmissionPolicy, EvalJob, ExecError, Executor, SeedPolicy, StreamId,
    SubmitOptions, CAPABILITY_NAMES, MAX_JOB_QUBITS,
};
use qnet::wire::{self, ControlKind, Frame, SubmitFrame, WireError};
use qnet::{NetClient, NetServer};
use qnoise::PauliNoiseModel;
use qop::{PauliOp, PauliString};
use qrng::CounterRng;
use rand::Rng as _;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use treevqa::{SplitPolicy, TreeVqa, TreeVqaConfig, TreeVqaResult};
use treevqa_tests::{pinned_application, pinned_config, pinned_executor, pinned_treevqa};
use vqa::{
    Backend, BackendCaps, EvalRequest, EvalResult, InitialState, NoisyStatevectorBackend,
    SampledBackend, StatevectorBackend, VqaRunConfig, VqaTask,
};

/// Tests that execute jobs or generate fuzz frames (and therefore advance the
/// process-global `qrng::total_draws` counter) serialize on this lock, so the draw-count
/// comparisons are not polluted by concurrent siblings.
static SERIAL: Mutex<()> = Mutex::new(());

// ---------------------------------------------------------------------------
// Deterministic generators (seeded, so proptest cases are reproducible).
// ---------------------------------------------------------------------------

fn gen_circuit(rng: &mut CounterRng) -> Circuit {
    let num_qubits = 2 + (rng.next_u64() % 3) as usize;
    let mut circuit = Circuit::new(num_qubits);
    let gates = rng.next_u64() % 14;
    for _ in 0..gates {
        let q = (rng.next_u64() % num_qubits as u64) as usize;
        let q2 = (q + 1 + (rng.next_u64() % (num_qubits as u64 - 1)) as usize) % num_qubits;
        let angle = gen_angle(rng);
        let gate = match rng.next_u64() % 12 {
            0 => Gate::H(q),
            1 => Gate::X(q),
            2 => Gate::Y(q),
            3 => Gate::Z(q),
            4 => Gate::S(q),
            5 => Gate::Sdg(q),
            6 => Gate::Cx(q, q2),
            7 => Gate::Cz(q, q2),
            8 => Gate::Rx(q, angle),
            9 => Gate::Ry(q, angle),
            10 => Gate::Rz(q, angle),
            _ => Gate::PauliRotation(gen_pauli_string(rng, num_qubits), angle),
        };
        circuit.try_push(gate).expect("generated gate is in range");
    }
    circuit
}

fn gen_angle(rng: &mut CounterRng) -> Angle {
    if rng.next_u64() % 2 == 0 {
        Angle::Fixed(gen_f64(rng))
    } else {
        Angle::Param {
            index: (rng.next_u64() % 6) as usize,
            multiplier: gen_f64(rng),
        }
    }
}

/// An arbitrary bit pattern as `f64` — including NaNs, infinities, and subnormals;
/// the codec ships raw IEEE-754 bits, so all of them must survive.
fn gen_f64(rng: &mut CounterRng) -> f64 {
    f64::from_bits(rng.next_u64())
}

fn gen_pauli_string(rng: &mut CounterRng, num_qubits: usize) -> PauliString {
    let mask = (1u64 << num_qubits) - 1;
    PauliString::from_masks(rng.next_u64() & mask, rng.next_u64() & mask, num_qubits)
}

fn gen_op(rng: &mut CounterRng, num_qubits: usize) -> PauliOp {
    let mut op = PauliOp::zero(num_qubits);
    for _ in 0..1 + rng.next_u64() % 4 {
        op.add_term(gen_pauli_string(rng, num_qubits), gen_f64(rng));
    }
    op
}

fn gen_opts(rng: &mut CounterRng) -> SubmitOptions {
    let mut opts = SubmitOptions::new()
        .priority(rng.next_u64() as i32)
        .require(BackendCaps {
            batch: rng.next_u64() % 2 == 0,
            shots: rng.next_u64() % 2 == 0,
            noise: rng.next_u64() % 2 == 0,
            trajectories: rng.next_u64() % 2 == 0,
            retry_safe: rng.next_u64() % 2 == 0,
        })
        .retries((rng.next_u64() % 4) as u32)
        .failover(rng.next_u64() % 2 == 0);
    if rng.next_u64() % 2 == 0 {
        opts = opts.backend(format!("backend-{}", rng.next_u64() % 100));
    }
    if rng.next_u64() % 2 == 0 {
        opts = opts.rng_stream(StreamId::from_raw(rng.next_u64()));
    }
    opts
}

fn gen_job(rng: &mut CounterRng) -> EvalJob {
    let circuit = gen_circuit(rng);
    let n = circuit.num_qubits();
    let params: Vec<f64> = (0..rng.next_u64() % 8).map(|_| gen_f64(rng)).collect();
    let initial = if rng.next_u64() % 2 == 0 {
        InitialState::Basis(rng.next_u64())
    } else {
        InitialState::UniformSuperposition
    };
    let free: Vec<Arc<PauliOp>> = (0..rng.next_u64() % 3)
        .map(|_| Arc::new(gen_op(rng, n)))
        .collect();
    let mut job = EvalJob::new(Arc::new(circuit), params, initial, Arc::new(gen_op(rng, n)))
        .with_free_ops(free);
    if rng.next_u64() % 2 == 0 {
        job = job.with_rng_stream(StreamId::from_raw(rng.next_u64()));
    }
    job
}

fn gen_submit_frame(rng: &mut CounterRng) -> SubmitFrame {
    SubmitFrame {
        request_id: rng.next_u64(),
        probe: rng.next_u64() % 2 == 0,
        opts: gen_opts(rng),
        job: gen_job(rng),
    }
}

fn gen_text(rng: &mut CounterRng) -> String {
    let len = rng.next_u64() % 24;
    (0..len)
        .map(|_| char::from_u32(0x20 + (rng.next_u64() % 0x60) as u32).unwrap())
        .collect()
}

/// One arbitrary frame of the requested type tag (0..5).
fn gen_frame(rng: &mut CounterRng, kind: u64) -> Frame {
    match kind {
        0 => Frame::Submit(gen_submit_frame(rng)),
        1 => Frame::SubmitBatch(
            (0..1 + rng.next_u64() % 3)
                .map(|_| gen_submit_frame(rng))
                .collect(),
        ),
        2 => Frame::Result {
            request_id: rng.next_u64(),
            result: EvalResult {
                charged: gen_f64(rng),
                free: (0..rng.next_u64() % 4).map(|_| gen_f64(rng)).collect(),
                shots: rng.next_u64(),
            },
        },
        3 => Frame::Error {
            request_id: rng.next_u64(),
            code: rng.next_u64() as u16,
            aux0: rng.next_u64(),
            aux1: rng.next_u64(),
            text: gen_text(rng),
        },
        _ => Frame::Control(if rng.next_u64() % 2 == 0 {
            ControlKind::OverCapacity
        } else {
            ControlKind::ShuttingDown
        }),
    }
}

fn encode(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    wire::write_frame(&mut buf, frame, wire::DEFAULT_MAX_FRAME).expect("encodable frame");
    buf
}

fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
    wire::read_frame(&mut &bytes[..], wire::DEFAULT_MAX_FRAME)
}

// ---------------------------------------------------------------------------
// 1. Codec safety.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every frame type survives encode → decode → re-encode bit-exactly (the
    /// byte-level fixed point implies the value-level round trip, without needing
    /// `PartialEq` on job payloads).
    #[test]
    fn codec_round_trips_every_frame_type(seed in 0u64..u64::MAX, kind in 0u64..5) {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = CounterRng::new(qrng::mix(seed, 0x636f_6465));
        let frame = gen_frame(&mut rng, kind);
        let bytes = encode(&frame);
        let decoded = decode(&bytes).expect("well-formed frame decodes");
        prop_assert_eq!(encode(&decoded), bytes);
    }

    /// Truncating a valid frame at any point yields an error, never a panic and
    /// never a bogus success.
    #[test]
    fn truncated_frames_error_cleanly(seed in 0u64..u64::MAX, kind in 0u64..5, cut in 0.0f64..1.0) {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = CounterRng::new(qrng::mix(seed, 0x7472_756e));
        let bytes = encode(&gen_frame(&mut rng, kind));
        let cut = ((bytes.len() - 1) as f64 * cut) as usize;
        prop_assert!(decode(&bytes[..cut]).is_err());
    }

    /// Corrupting any single byte of a valid frame never panics the decoder (it may
    /// still decode — a flipped payload bit can be another valid value — but it must
    /// return, not crash).
    #[test]
    fn corrupted_frames_never_panic(seed in 0u64..u64::MAX, kind in 0u64..5, pos in 0.0f64..1.0, byte in 0u64..256) {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = CounterRng::new(qrng::mix(seed, 0x636f_7272));
        let mut bytes = encode(&gen_frame(&mut rng, kind));
        let pos = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[pos] = byte as u8;
        let _ = decode(&bytes);
    }

    /// Arbitrary garbage bytes never panic the decoder.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(0u64..256, 0..64)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        let _ = decode(&bytes);
    }
}

/// A header declaring an oversized payload is refused before any allocation, and the
/// writer symmetrically refuses to emit a frame beyond the cap.
#[test]
fn oversized_frames_are_refused_both_ways() {
    let mut header = Vec::new();
    header.extend_from_slice(&wire::MAGIC.to_le_bytes());
    header.push(wire::VERSION);
    header.push(wire::TYPE_SUBMIT);
    header.extend_from_slice(&7u64.to_le_bytes());
    header.extend_from_slice(&(wire::DEFAULT_MAX_FRAME as u32 + 1).to_le_bytes());
    match decode(&header) {
        Err(WireError::FrameTooLarge { len, max }) => {
            assert_eq!(len, wire::DEFAULT_MAX_FRAME + 1);
            assert_eq!(max, wire::DEFAULT_MAX_FRAME);
        }
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }

    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = CounterRng::new(1);
    let frame = gen_frame(&mut rng, 0);
    let mut buf = Vec::new();
    assert!(matches!(
        wire::write_frame(&mut buf, &frame, wire::HEADER_LEN),
        Err(WireError::FrameTooLarge { .. })
    ));
    assert!(buf.is_empty(), "refused frame must write nothing");
}

/// Three variants of a 3-qubit circuit; 0 and 1 differ only in their encoding's last
/// byte (the sign of the last gate's angle).
fn shared_decode_circuit(variant: usize) -> Arc<Circuit> {
    let mut circuit = Circuit::new(3);
    circuit.push(if variant == 2 { Gate::H(1) } else { Gate::H(0) });
    circuit.push(Gate::Cx(0, 1));
    circuit.push(Gate::Ry(
        2,
        Angle::Param {
            index: 0,
            multiplier: 1.0,
        },
    ));
    circuit.push(Gate::Rz(
        1,
        Angle::Fixed(if variant == 1 { -0.5 } else { 0.5 }),
    ));
    Arc::new(circuit)
}

/// Three variants of an operator; 0 and 1 differ only in their encoding's last byte
/// (the sign of the last coefficient).  `salt` tells the charged and free families apart.
fn shared_decode_op(variant: usize, salt: f64) -> Arc<PauliOp> {
    let last = if variant == 1 { -0.3 } else { 0.3 };
    let first = if variant == 2 {
        ("XYZ", salt)
    } else {
        ("ZZI", salt)
    };
    Arc::new(PauliOp::from_labels(3, &[first, ("IXX", last)]))
}

/// One batch entry: (circuit variant, charged variant, free variants).
type EntrySpec = (usize, usize, &'static [usize]);

fn shared_decode_entry(index: usize, &(circuit, charged, free): &EntrySpec) -> SubmitFrame {
    SubmitFrame {
        request_id: index as u64,
        probe: false,
        opts: SubmitOptions::default(),
        job: EvalJob::new(
            shared_decode_circuit(circuit),
            vec![0.1 * index as f64],
            InitialState::Basis(0),
            shared_decode_op(charged, 1.0),
        )
        .with_free_ops(free.iter().map(|&v| shared_decode_op(v, 2.0)).collect()),
    }
}

fn differing_bytes(a: &[u8], b: &[u8]) -> usize {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// A batch frame decodes each distinct circuit and operator once: an entry whose bytes
/// repeat its predecessor's circuit, charged operator or i-th free operator shares the
/// predecessor's allocation, and anything else — down to a one-byte difference — is
/// decoded afresh.  Either way every decoded job equals the same entry decoded alone,
/// bit for bit, and a frame cut short or corrupted inside a repeated segment still
/// fails cleanly or decodes to exactly the bytes it holds.
#[test]
fn batch_frames_decode_each_repeated_circuit_and_operator_once() {
    let lone = |spec: &EntrySpec| encode(&Frame::Submit(shared_decode_entry(0, spec)));
    // Variants 0 and 1 really are one byte apart, in the circuit and in each operator.
    assert_eq!(
        differing_bytes(&lone(&(0, 0, &[0])), &lone(&(1, 0, &[0]))),
        1
    );
    assert_eq!(
        differing_bytes(&lone(&(0, 0, &[0])), &lone(&(0, 1, &[0]))),
        1
    );
    assert_eq!(
        differing_bytes(&lone(&(0, 0, &[0])), &lone(&(0, 0, &[1]))),
        1
    );

    let batches: [&[EntrySpec]; 5] = [
        // Repeated.
        &[
            (0, 0, &[0, 1]),
            (0, 0, &[0, 1]),
            (0, 0, &[0, 1]),
            (0, 0, &[0, 1]),
        ],
        // Alternating.
        &[(0, 0, &[0]), (2, 2, &[2]), (0, 0, &[0]), (2, 2, &[2])],
        // One byte apart: the circuit, then the charged operator, then a free one.
        &[
            (0, 0, &[0, 0]),
            (1, 0, &[0, 0]),
            (1, 1, &[0, 0]),
            (1, 1, &[0, 1]),
            (1, 1, &[0, 1]),
        ],
        // Free-operator counts that grow, shrink, and drop to none.
        &[
            (0, 0, &[0, 1]),
            (0, 0, &[0]),
            (0, 0, &[0, 1, 2]),
            (0, 0, &[]),
            (0, 0, &[0, 1]),
        ],
        // Everything distinct.
        &[(0, 0, &[0]), (1, 1, &[1]), (2, 2, &[2])],
    ];
    for specs in batches {
        let entries: Vec<SubmitFrame> = specs
            .iter()
            .enumerate()
            .map(|(i, spec)| shared_decode_entry(i, spec))
            .collect();
        let bytes = encode(&Frame::SubmitBatch(entries.clone()));
        let Ok(Frame::SubmitBatch(decoded)) = decode(&bytes) else {
            panic!("the batch decodes");
        };
        assert_eq!(decoded.len(), entries.len());
        for (entry, got) in entries.iter().zip(&decoded) {
            let alone = decode(&encode(&Frame::Submit(entry.clone()))).expect("lone decode");
            assert_eq!(
                encode(&Frame::Submit(got.clone())),
                encode(&alone),
                "{specs:?}: entry {} differs from its lone decoding",
                got.request_id
            );
        }
        for k in 1..decoded.len() {
            let (prev, next) = (&decoded[k - 1].job, &decoded[k].job);
            let (a, b) = (specs[k - 1], specs[k]);
            assert_eq!(
                Arc::ptr_eq(&prev.circuit, &next.circuit),
                a.0 == b.0,
                "{specs:?}: circuit {k}"
            );
            assert_eq!(
                Arc::ptr_eq(&prev.charged_op, &next.charged_op),
                a.1 == b.1,
                "{specs:?}: charged operator {k}"
            );
            for (i, (x, y)) in prev.free_ops.iter().zip(&next.free_ops).enumerate() {
                assert_eq!(
                    Arc::ptr_eq(x, y),
                    a.2[i] == b.2[i],
                    "{specs:?}: free operator {k}.{i}"
                );
            }
        }

        // Cut or corrupt the frame after its first entry, where the repeated segments
        // are.  A cut payload (header length patched to match) is malformed; a
        // corrupted one either fails or decodes to exactly the bytes it carries, so no
        // shared value ever stands in for bytes that differ from its own.
        let first_end = wire::HEADER_LEN + 4 + (lone(&specs[0]).len() - wire::HEADER_LEN);
        for cut in first_end..bytes.len() {
            let mut cut_frame = bytes[..cut].to_vec();
            let len = (cut - wire::HEADER_LEN) as u32;
            cut_frame[wire::HEADER_LEN - 4..wire::HEADER_LEN].copy_from_slice(&len.to_le_bytes());
            assert!(
                matches!(decode(&cut_frame), Err(WireError::Malformed { .. })),
                "{specs:?}: payload cut at {cut} must be malformed"
            );
            assert!(
                decode(&bytes[..cut]).is_err(),
                "{specs:?}: frame cut at {cut}"
            );
        }
        for pos in first_end..bytes.len() {
            for flip in [0x01, 0x80, 0xFF] {
                let mut corrupted = bytes.clone();
                corrupted[pos] ^= flip;
                if let Ok(frame) = decode(&corrupted) {
                    assert_eq!(
                        encode(&frame),
                        corrupted,
                        "{specs:?}: byte {pos} ^ {flip:#x}"
                    );
                }
            }
        }
    }
}

/// Every `ExecError` variant survives the wire: `code()`/`parts()` →
/// `from_code` is the identity, and codes are unique (they are the protocol- and
/// metrics-level contract).
#[test]
fn exec_error_codes_round_trip_and_are_unique() {
    let variants = vec![
        ExecError::UnknownBackend("gpu0".into()),
        ExecError::MissingCapability {
            backend: "sv".into(),
            missing: CAPABILITY_NAMES[3],
        },
        ExecError::EmptyCircuit,
        ExecError::ParameterCountMismatch {
            expected: 6,
            got: 2,
        },
        ExecError::QubitCountMismatch {
            circuit: 4,
            operator: 7,
        },
        ExecError::BasisStateOutOfRange {
            basis: 99,
            num_qubits: 3,
        },
        ExecError::Cancelled,
        ExecError::ShutDown,
        ExecError::DeadlineExceeded,
        ExecError::Overloaded,
        ExecError::BackendQuarantined {
            backend: "noisy".into(),
        },
        ExecError::Execution("driver panicked: det < 0".into()),
        ExecError::NonFiniteParameter { index: 5 },
        ExecError::RegisterTooLarge {
            num_qubits: 61,
            max: MAX_JOB_QUBITS,
        },
        ExecError::EmptyObservable,
        ExecError::Transport("connection reset by peer".into()),
    ];
    let mut seen = std::collections::HashSet::new();
    for err in variants {
        let code = err.code();
        assert!(seen.insert(code), "duplicate wire code {code}");
        let (aux0, aux1, text) = err.parts();
        assert_eq!(
            ExecError::from_code(code, aux0, aux1, text),
            Some(err.clone()),
            "round trip failed for {err:?}"
        );
        // The error frame path composes the same pieces.
        let frame = Frame::from_exec_error(42, &err);
        match decode(&encode(&frame)).expect("error frame decodes") {
            Frame::Error {
                request_id,
                code,
                aux0,
                aux1,
                text,
            } => {
                assert_eq!(request_id, 42);
                assert_eq!(Frame::to_exec_error(code, aux0, aux1, text), err);
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }
    assert!(
        ExecError::from_code(0, 0, 0, String::new()).is_none(),
        "code 0 is reserved"
    );
    assert!(ExecError::from_code(9999, 0, 0, String::new()).is_none());
}

// ---------------------------------------------------------------------------
// 2. Loopback transparency.
// ---------------------------------------------------------------------------

const BACKENDS: usize = 3;
const JOBS: usize = 8;
const QUBITS: usize = 3;

type BackendFactory = Box<dyn Fn() -> Box<dyn Backend + Send>>;

fn backend_factories() -> Vec<(&'static str, BackendFactory)> {
    let model = PauliNoiseModel::ibm_like("qnet-loopback", 0.02, 0.05, 0.01, 0.01);
    vec![
        (
            "exact",
            Box::new(|| Box::new(StatevectorBackend::with_shots(64)) as Box<dyn Backend + Send>),
        ),
        (
            "sampled",
            Box::new(|| {
                Box::new(SampledBackend::with_policy(256, SeedPolicy::new(42)))
                    as Box<dyn Backend + Send>
            }),
        ),
        (
            "noisy-trajectory",
            Box::new(move || {
                Box::new(
                    NoisyStatevectorBackend::with_policy(model.clone(), 50, SeedPolicy::new(3))
                        .with_trajectories(5)
                        .with_shot_sampling(),
                ) as Box<dyn Backend + Send>
            }),
        ),
    ]
}

fn loopback_jobs() -> Vec<(EvalJob, SubmitOptions)> {
    let circuit = Arc::new(HardwareEfficientAnsatz::new(QUBITS, 2, Entanglement::Circular).build());
    let charged = Arc::new(PauliOp::from_labels(QUBITS, &[("ZZI", -1.0), ("IXX", 0.3)]));
    let free = Arc::new(PauliOp::from_labels(QUBITS, &[("XIZ", 0.7)]));
    (0..JOBS)
        .map(|i| {
            let params: Vec<f64> = (0..circuit.num_parameters())
                .map(|p| 0.05 * p as f64 + 0.017 * i as f64)
                .collect();
            let job = EvalJob::new(
                Arc::clone(&circuit),
                params,
                InitialState::Basis(0),
                Arc::clone(&charged),
            )
            .with_free_ops(vec![Arc::clone(&free)])
            .with_rng_stream(StreamId::named(&format!("qnet-loopback-job{i}")));
            let opts = SubmitOptions::new().backend(format!("b{}", i % BACKENDS));
            (job, opts)
        })
        .collect()
}

type Bits = (u64, Vec<u64>, u64);

fn to_bits(r: &EvalResult) -> Bits {
    (
        r.charged.to_bits(),
        r.free.iter().map(|v| v.to_bits()).collect(),
        r.shots,
    )
}

fn build_executor(make: &dyn Fn() -> Box<dyn Backend + Send>) -> Executor {
    let mut builder = Executor::builder();
    for b in 0..BACKENDS {
        builder = builder.register_boxed(format!("b{b}"), make());
    }
    builder.start()
}

fn run_local(make: &dyn Fn() -> Box<dyn Backend + Send>) -> (Vec<Bits>, u64) {
    let executor = build_executor(make);
    let client = executor.client();
    let draws_before = qrng::total_draws();
    let handles: Vec<_> = loopback_jobs()
        .into_iter()
        .map(|(job, opts)| client.submit_with(job, &opts).expect("local submit"))
        .collect();
    let results = handles
        .iter()
        .map(|h| to_bits(&h.wait().expect("local job executes")))
        .collect();
    drop(executor);
    (results, qrng::total_draws() - draws_before)
}

fn run_remote(make: &dyn Fn() -> Box<dyn Backend + Send>, batch: bool) -> (Vec<Bits>, u64) {
    let executor = Arc::new(build_executor(make));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&executor)).expect("bind loopback");
    let client = NetClient::connect(server.local_addr()).expect("connect loopback");
    let draws_before = qrng::total_draws();
    let results: Vec<Bits> = if batch {
        // One coalesced slate; per-job backend choices ride on the job-level stream
        // pin, default opts otherwise (group API has a single opts set), so pin the
        // backend via the default (first-registered) only when batching.
        let jobs: Vec<EvalJob> = loopback_jobs().into_iter().map(|(job, _)| job).collect();
        let handles = client.submit_group(jobs).expect("batch submit");
        handles
            .iter()
            .map(|h| to_bits(&h.wait().expect("remote job executes")))
            .collect()
    } else {
        let handles: Vec<_> = loopback_jobs()
            .into_iter()
            .map(|(job, opts)| client.submit_with(job, &opts).expect("remote submit"))
            .collect();
        handles
            .iter()
            .map(|h| to_bits(&h.wait().expect("remote job executes")))
            .collect()
    };
    let draws = qrng::total_draws() - draws_before;
    assert_eq!(client.rtt().count, JOBS as u64, "every job records an RTT");
    drop(client);
    server.shutdown();
    (results, draws)
}

/// A job submitted over TCP is bit-identical to the same job submitted in-process —
/// results *and* total RNG draw count — for every backend family.  This is the
/// loopback transparency contract: the network layer adds no observable behavior to
/// execution.
#[test]
fn loopback_results_are_bit_identical_to_local() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (family, make) in backend_factories() {
        let (baseline, baseline_draws) = run_local(make.as_ref());
        let (remote, remote_draws) = run_remote(make.as_ref(), false);
        assert_eq!(remote, baseline, "{family} remote results diverged");
        assert_eq!(
            remote_draws, baseline_draws,
            "{family} remote draw count diverged"
        );
    }
}

/// A batch frame (one coalesced slate server-side) produces the same bits as local
/// execution of the same stream-pinned jobs.
#[test]
fn batched_remote_submission_is_bit_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (_, make) = backend_factories().remove(1);
    // Batch submissions use default options (no per-job backend routing), so the
    // local baseline must match: default backend, same pinned streams.
    let executor = build_executor(make.as_ref());
    let client = executor.client();
    let draws_before = qrng::total_draws();
    let jobs: Vec<EvalJob> = loopback_jobs().into_iter().map(|(job, _)| job).collect();
    let handles = client.submit_all(jobs).expect("local batch");
    let baseline: Vec<Bits> = handles
        .iter()
        .map(|h| to_bits(&h.wait().expect("local job executes")))
        .collect();
    let baseline_draws = qrng::total_draws() - draws_before;
    drop(executor);

    let (remote, remote_draws) = run_remote(make.as_ref(), true);
    assert_eq!(remote, baseline, "batched remote results diverged");
    assert_eq!(remote_draws, baseline_draws, "batched draw count diverged");
}

/// The whole `vqa` driver stack runs against a remote executor unchanged — same
/// generic entry point, same energies bit-for-bit, same shot accounting — because
/// `NetClient` implements `JobSubmitter`.
#[test]
fn vqa_driver_runs_remotely_bit_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let ham = qchem::transverse_field_ising(3, 1.0, 0.5);
    let task = VqaTask::with_computed_reference("TFIM h=0.5", 0.5, ham);
    let ansatz = HardwareEfficientAnsatz::new(3, 2, Entanglement::Circular).build();
    let zeros = vec![0.0; ansatz.num_parameters()];
    let config = VqaRunConfig {
        max_iterations: 20,
        optimizer: qopt::OptimizerSpec::Spsa(qopt::SpsaConfig {
            a: 0.25,
            ..Default::default()
        }),
        seed: 5,
        record_every: 1,
    };

    let run = |remote: bool| {
        let executor = Arc::new(Executor::single(StatevectorBackend::with_shots(128)));
        if remote {
            let server =
                NetServer::bind("127.0.0.1:0", Arc::clone(&executor)).expect("bind loopback");
            let client = NetClient::connect(server.local_addr()).expect("connect loopback");
            run_single_vqa(
                &task,
                &ansatz,
                &InitialState::Basis(0),
                &zeros,
                &client,
                &config,
            )
            .expect("remote run")
        } else {
            run_single_vqa(
                &task,
                &ansatz,
                &InitialState::Basis(0),
                &zeros,
                &executor.client(),
                &config,
            )
            .expect("local run")
        }
    };

    let local = run(false);
    let remote = run(true);
    assert_eq!(remote.best_energy.to_bits(), local.best_energy.to_bits());
    assert_eq!(remote.shots_used, local.shots_used);
    assert_eq!(remote.history.len(), local.history.len());
    for (r, l) in remote.history.iter().zip(&local.history) {
        assert_eq!(r.loss.to_bits(), l.loss.to_bits());
        assert_eq!(r.exact_energy.to_bits(), l.exact_energy.to_bits());
    }
}

/// Runs `tree` on `executor`, in-process or through a loopback connection to it.
fn run_tree(tree: &TreeVqa, executor: Executor, remote: bool) -> Result<TreeVqaResult, ExecError> {
    let executor = Arc::new(executor);
    if remote {
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&executor)).expect("bind loopback");
        let client = NetClient::connect(server.local_addr()).expect("connect loopback");
        tree.run_on(&client)
    } else {
        tree.run(&executor)
    }
}

/// The paper's workload over the wire: a whole TreeVQA run through a loopback
/// `NetClient` equals the in-process run field for field.  The backend is stochastic on
/// purpose — its default streams derive from submission ids, so the two runs agree only
/// if the controller submits the same jobs in the same order on both transports (the
/// exact backend of `vqa_driver_runs_remotely_bit_identical` cannot see that).
#[test]
fn treevqa_runs_remotely_bit_identical() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tree = pinned_treevqa();
    let local = run_tree(&tree, pinned_executor(), false).expect("local run");
    let remote = run_tree(&tree, pinned_executor(), true).expect("remote run");
    assert!(local.tree.num_splits() > 0, "the pinned run must split");
    // `Debug` prints every field, and an `f64` as its shortest round-trip decimal: equal
    // text is equal bits.
    assert_eq!(format!("{remote:?}"), format!("{local:?}"));
}

/// `TreeVqaConfig::phase_timeout_ms` bounds a round phase on both transports: behind an
/// executor that never schedules, the run fails with `DeadlineExceeded` instead of
/// waiting.  In-process the scheduler drops the expired jobs; a job's deadline does not
/// cross the wire, so remotely it is the phase's bounded wait that fires.
#[test]
fn treevqa_phase_timeout_fails_a_stalled_run_on_both_transports() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tree = TreeVqa::new(
        pinned_application(),
        TreeVqaConfig {
            phase_timeout_ms: Some(50),
            ..pinned_config()
        },
    );
    for remote in [false, true] {
        let stalled = Executor::builder()
            .register(qexec::DEFAULT_BACKEND, StatevectorBackend::with_shots(64))
            .paused()
            .start();
        let started = Instant::now();
        let outcome = run_tree(&tree, stalled, remote);
        assert_eq!(
            outcome.map(|_| ()),
            Err(ExecError::DeadlineExceeded),
            "remote = {remote}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the timeout must fire promptly (remote = {remote})"
        );
    }
}

/// An exact backend that logs the size of every `evaluate_batch` call.
struct BatchSizes {
    inner: StatevectorBackend,
    sizes: Arc<Mutex<Vec<usize>>>,
}

impl Backend for BatchSizes {
    fn evaluate(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        charged_op: &PauliOp,
        free_ops: &[&PauliOp],
    ) -> (f64, Vec<f64>) {
        self.inner
            .evaluate(circuit, params, initial, charged_op, free_ops)
    }

    fn evaluate_batch(&mut self, requests: &[EvalRequest<'_>]) -> Vec<EvalResult> {
        self.sizes.lock().unwrap().push(requests.len());
        self.inner.evaluate_batch(requests)
    }

    fn probe(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        op: &PauliOp,
    ) -> f64 {
        self.inner.probe(circuit, params, initial, op)
    }

    fn shots_used(&self) -> u64 {
        self.inner.shots_used()
    }

    fn reset_shots(&mut self) {
        self.inner.reset_shots();
    }

    fn shots_per_pauli(&self) -> u64 {
        self.inner.shots_per_pauli()
    }

    fn name(&self) -> &'static str {
        "batch-sizes"
    }
}

/// Slate shape: every round phase of a run that grows to three clusters reaches the
/// driver as exactly **one** `evaluate_batch` call holding every active cluster's SPSA
/// pair — in-process and over loopback.  `qexec.jobs_per_slate_mean` and
/// `vqa.batch_calls` rest on this.
#[test]
fn every_round_phase_reaches_the_driver_as_one_batch() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut app = pinned_application();
    app.tasks.truncate(3);
    let tree = TreeVqa::new(
        app,
        TreeVqaConfig {
            max_cluster_iterations: 12,
            // No first-step calibration: every phase is a cluster's ± pair.
            optimizer: qopt::OptimizerSpec::Spsa(qopt::SpsaConfig {
                calibrate_first_step: None,
                ..Default::default()
            }),
            // Splits as soon as the window fills: 3 tasks → 2 + 1 → 1 + 1 + 1.
            split_policy: SplitPolicy::Adaptive {
                warmup_iterations: 3,
                window_size: 3,
                epsilon_split: 1e6,
            },
            ..pinned_config()
        },
    );
    for remote in [false, true] {
        let sizes: Arc<Mutex<Vec<usize>>> = Arc::default();
        let executor = Executor::single(BatchSizes {
            inner: StatevectorBackend::with_shots(64),
            sizes: Arc::clone(&sizes),
        });
        let result = run_tree(&tree, executor, remote).expect("well-formed application");
        let nodes = result.tree.nodes();
        assert_eq!(
            result.tree.leaves().len(),
            3,
            "the run must reach 3 clusters"
        );
        // A cluster steps in the rounds from the one after its parent split (round 1
        // for the root) for as many rounds as it ran iterations.
        let mut first_round = vec![1usize; nodes.len()];
        for node in nodes {
            if let Some(parent) = node.parent {
                first_round[node.id] = first_round[parent] + nodes[parent].iterations;
            }
        }
        let last_round = nodes
            .iter()
            .map(|n| first_round[n.id] + n.iterations)
            .max()
            .unwrap();
        let expected: Vec<usize> = (1..last_round)
            .map(|round| {
                let active = nodes
                    .iter()
                    .filter(|n| {
                        (first_round[n.id]..first_round[n.id] + n.iterations).contains(&round)
                    })
                    .count();
                2 * active
            })
            .collect();
        assert_eq!(*sizes.lock().unwrap(), expected, "remote = {remote}");
    }
}

// ---------------------------------------------------------------------------
// 3. Service behavior.
// ---------------------------------------------------------------------------

fn spin_until(mut condition: impl FnMut() -> bool, what: &str) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !condition() {
        assert!(
            std::time::Instant::now() < deadline,
            "timed out waiting: {what}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Many connections submitting concurrently all complete, and the server accounts
/// for them per connection (labeled request counters) and in aggregate.
#[test]
fn concurrent_connections_all_complete_with_per_connection_accounting() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const CONNS: usize = 4;
    const PER_CONN: usize = 8;
    let executor = Arc::new(
        Executor::builder()
            .register("sv", StatevectorBackend::with_shots(64))
            .start(),
    );
    let server = NetServer::builder(Arc::clone(&executor))
        .observability(true)
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let addr = server.local_addr();

    let workers: Vec<_> = (0..CONNS)
        .map(|_c| {
            std::thread::spawn(move || {
                let client = NetClient::connect(addr).expect("connect");
                let handles: Vec<_> = (0..PER_CONN)
                    .map(|i| {
                        let (job, _) = loopback_jobs().swap_remove(i % JOBS);
                        client.submit(job).expect("submit")
                    })
                    .collect();
                for h in &handles {
                    h.wait().expect("job executes");
                }
                assert_eq!(client.rtt().count, PER_CONN as u64);
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client thread");
    }

    let snapshot = server.observability().snapshot();
    assert_eq!(snapshot.counter("conns_accepted"), CONNS as u64);
    assert_eq!(snapshot.counter("submits"), (CONNS * PER_CONN) as u64);
    assert_eq!(snapshot.counter("results_sent"), (CONNS * PER_CONN) as u64);
    assert_eq!(snapshot.counter("errors_sent"), 0);
    let conn_labels: Vec<_> = snapshot
        .labeled
        .iter()
        .filter(|(label, _)| label.starts_with("conn") && label.ends_with("_requests"))
        .collect();
    assert_eq!(
        conn_labels.len(),
        CONNS,
        "one request counter per connection"
    );
    for (label, count) in conn_labels {
        assert_eq!(*count, PER_CONN as u64, "uneven accounting on {label}");
    }
    server.shutdown();
    let snapshot = server.observability().snapshot();
    assert_eq!(snapshot.counter("conns_closed"), CONNS as u64);
}

/// A group is one unit on the way back too: on an idle server a 64-job batch frame is
/// answered with 64 result frames in exactly one socket write.
///
/// `frames_out` counts a frame when it is buffered and `writes` counts a write after it
/// returns, so the counters are compared once they have settled at `(65, 2)`, and again
/// after `shutdown` has joined every writer: its notice is the third write, and a group
/// split across two writes would read `(66, 4)` there.
#[test]
fn one_group_is_answered_in_one_write() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let executor = Arc::new(Executor::single(StatevectorBackend::with_shots(64)));
    let server = NetServer::bind("127.0.0.1:0", executor).expect("bind loopback");
    let client = NetClient::connect(server.local_addr()).expect("connect");
    let counters = || {
        let snapshot = server.observability().snapshot();
        (snapshot.counter("frames_out"), snapshot.counter("writes"))
    };
    let (job, _) = loopback_jobs().swap_remove(0);
    client
        .submit(job)
        .expect("submit")
        .wait()
        .expect("warm-up executes");
    spin_until(|| counters() == (1, 1), "the warm-up answer is counted");

    let jobs: Vec<EvalJob> = (0..64)
        .map(|i| loopback_jobs().swap_remove(i % JOBS).0)
        .collect();
    for handle in client.submit_group(jobs).expect("batch submit") {
        handle.wait().expect("job executes");
    }
    spin_until(|| counters() == (65, 2), "the group's answers are counted");
    server.shutdown();
    assert_eq!(
        counters(),
        (66, 3),
        "64 frames in one write, then the notice"
    );
}

/// A peer that submits and never reads cannot grow the server's memory: once its
/// outbox holds `max_frame` bytes behind a write that cannot finish, the server drops
/// the connection.  Other connections keep being served, and shutdown still returns.
#[test]
fn a_peer_that_never_reads_is_dropped_and_others_keep_being_served() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const MAX_FRAME: usize = 64 * 1024;
    let executor = Arc::new(Executor::single(StatevectorBackend::with_shots(64)));
    let server = NetServer::builder(Arc::clone(&executor))
        .max_frame(MAX_FRAME)
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let good = NetClient::connect_with(server.local_addr(), MAX_FRAME).expect("connect");
    let mut hostile = TcpStream::connect(server.local_addr()).expect("connect");
    spin_until(
        || server.active_connections() == 2,
        "both connections registered",
    );

    // One entry names a backend that does not exist, so the server refuses each frame
    // whole and answers every one of its 64 entries with the 400-byte name: more bytes
    // back than sent, and nothing to execute.
    let name = "x".repeat(400);
    let frame = Frame::SubmitBatch(
        (0..64)
            .map(|i| SubmitFrame {
                request_id: i,
                probe: false,
                opts: if i == 0 {
                    SubmitOptions::new().backend(name.clone())
                } else {
                    SubmitOptions::default()
                },
                job: loopback_jobs().swap_remove(i as usize % JOBS).0,
            })
            .collect(),
    );
    let bytes = encode(&frame);
    assert!(bytes.len() <= MAX_FRAME);
    // Non-blocking, so the flood notices the drop instead of blocking in a write the
    // server will never read; a partial write resumes where it stopped, so the server
    // only ever sees whole frames.
    hostile.set_nonblocking(true).expect("non-blocking");
    use std::io::Write as _;
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut offset = 0;
    while server.active_connections() == 2 {
        assert!(
            Instant::now() < deadline,
            "the server never dropped the peer"
        );
        match hostile.write(&bytes[offset..]) {
            Ok(n) => offset = (offset + n) % bytes.len(),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1))
            }
            Err(_) => break,
        }
    }
    spin_until(
        || server.active_connections() == 1,
        "the peer that never reads is dropped",
    );

    let (job, _) = loopback_jobs().swap_remove(0);
    let result = good
        .submit(job)
        .expect("submit")
        .wait_timeout(Duration::from_secs(10));
    assert!(
        matches!(result, Some(Ok(_))),
        "the other connection is served: {result:?}"
    );
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "shutdown returns"
    );
    drop(hostile);
}

/// The outbox cap is for peers that stop reading, not for large answers: on an idle
/// connection a refused batch whose error frames add up to more than `max_frame` comes
/// back whole, and the connection keeps serving.
#[test]
fn an_idle_connection_takes_a_refusal_larger_than_max_frame_whole() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const MAX_FRAME: usize = 48 * 1024;
    const ENTRIES: u64 = 64;
    let executor = Arc::new(Executor::single(StatevectorBackend::with_shots(64)));
    let server = NetServer::builder(executor)
        .max_frame(MAX_FRAME)
        .bind("127.0.0.1:0")
        .expect("bind loopback");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    // One entry names a missing backend, so the server refuses the frame whole and
    // answers each entry with the 1 000-byte name.
    let name = "x".repeat(1000);
    let frame = Frame::SubmitBatch(
        (0..ENTRIES)
            .map(|i| SubmitFrame {
                request_id: i,
                probe: false,
                opts: if i == 0 {
                    SubmitOptions::new().backend(name.clone())
                } else {
                    SubmitOptions::default()
                },
                job: loopback_jobs().swap_remove(i as usize % JOBS).0,
            })
            .collect(),
    );
    wire::write_frame(&mut stream, &frame, MAX_FRAME).expect("the batch fits max_frame");
    let mut answered = 0;
    for request_id in 0..ENTRIES {
        match wire::read_frame(&mut stream, MAX_FRAME).expect("refusal arrives") {
            Frame::Error {
                request_id: id,
                code,
                text,
                ..
            } => {
                assert_eq!(id, request_id);
                assert_eq!(code, ExecError::UnknownBackend(String::new()).code());
                assert_eq!(text, name);
                answered += wire::HEADER_LEN + text.len();
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
    }
    assert!(answered > MAX_FRAME, "the refusal outweighs max_frame");

    let (job, _) = loopback_jobs().swap_remove(0);
    let submit = Frame::Submit(SubmitFrame {
        request_id: 99,
        probe: false,
        opts: SubmitOptions::default(),
        job,
    });
    wire::write_frame(&mut stream, &submit, MAX_FRAME).expect("write valid");
    match wire::read_frame(&mut stream, MAX_FRAME).expect("result arrives") {
        Frame::Result { request_id, .. } => assert_eq!(request_id, 99),
        other => panic!("expected a result frame, got {other:?}"),
    }
    assert_eq!(server.active_connections(), 1);
    server.shutdown();
}

/// A malformed payload answers with a `CODE_MALFORMED` error frame and the
/// connection survives to serve a well-formed request — the stream stays
/// frame-synced, so one bad request does not cost the client its connection.
#[test]
fn malformed_frame_answers_error_and_connection_survives() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let executor = Arc::new(Executor::single(StatevectorBackend::with_shots(64)));
    let server = NetServer::bind("127.0.0.1:0", executor).expect("bind loopback");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    // A frame-synced but undecodable payload: correct header, 4 garbage bytes.
    let mut bad = Vec::new();
    bad.extend_from_slice(&wire::MAGIC.to_le_bytes());
    bad.push(wire::VERSION);
    bad.push(wire::TYPE_SUBMIT);
    bad.extend_from_slice(&0u64.to_le_bytes());
    bad.extend_from_slice(&4u32.to_le_bytes());
    bad.extend_from_slice(&[0xFF; 4]);
    use std::io::Write as _;
    stream.write_all(&bad).expect("write malformed");
    match wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME).expect("error frame arrives") {
        Frame::Error { code, .. } => assert_eq!(code, wire::CODE_MALFORMED),
        other => panic!("expected a malformed-code error frame, got {other:?}"),
    }

    // The same connection still executes a valid job.
    let (job, _) = loopback_jobs().swap_remove(0);
    let frame = Frame::Submit(SubmitFrame {
        request_id: 7,
        probe: false,
        opts: SubmitOptions::default(),
        job,
    });
    wire::write_frame(&mut stream, &frame, wire::DEFAULT_MAX_FRAME).expect("write valid");
    match wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME).expect("result arrives") {
        Frame::Result { request_id, .. } => assert_eq!(request_id, 7),
        other => panic!("expected a result frame, got {other:?}"),
    }
    server.shutdown();
}

/// Hostile job payloads — NaN parameters, absurd registers, empty observables — are
/// refused with the *same* stable codes remotely as locally: a wire client and an
/// in-process caller agree on what was wrong.
#[test]
fn hostile_jobs_refused_with_matching_codes_remote_and_local() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let executor = Arc::new(Executor::single(StatevectorBackend::with_shots(64)));
    let server = NetServer::bind("127.0.0.1:0", executor).expect("bind loopback");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    let small = Arc::new(HardwareEfficientAnsatz::new(2, 1, Entanglement::Linear).build());
    let zz = Arc::new(PauliOp::from_labels(2, &[("ZZ", 1.0)]));
    let nan_params = {
        let mut p = vec![0.1; small.num_parameters()];
        p[1] = f64::NAN;
        p
    };
    let huge =
        Arc::new(HardwareEfficientAnsatz::new(MAX_JOB_QUBITS + 1, 1, Entanglement::Linear).build());
    let huge_op = Arc::new(PauliOp::from_labels(
        MAX_JOB_QUBITS + 1,
        &[(&"Z".repeat(MAX_JOB_QUBITS + 1), 1.0)],
    ));
    let hostile: Vec<(EvalJob, ExecError)> = vec![
        (
            EvalJob::new(
                Arc::clone(&small),
                nan_params,
                InitialState::Basis(0),
                Arc::clone(&zz),
            ),
            ExecError::NonFiniteParameter { index: 1 },
        ),
        (
            EvalJob::new(
                Arc::clone(&huge),
                vec![0.0; huge.num_parameters()],
                InitialState::Basis(0),
                huge_op,
            ),
            ExecError::RegisterTooLarge {
                num_qubits: MAX_JOB_QUBITS + 1,
                max: MAX_JOB_QUBITS,
            },
        ),
        (
            EvalJob::new(
                Arc::clone(&small),
                vec![0.1; small.num_parameters()],
                InitialState::Basis(0),
                Arc::new(PauliOp::zero(2)),
            ),
            ExecError::EmptyObservable,
        ),
    ];
    for (request_id, (job, expected)) in hostile.into_iter().enumerate() {
        assert_eq!(job.validate(), Err(expected.clone()), "local validation");
        let frame = Frame::Submit(SubmitFrame {
            request_id: request_id as u64,
            probe: false,
            opts: SubmitOptions::default(),
            job,
        });
        wire::write_frame(&mut stream, &frame, wire::DEFAULT_MAX_FRAME).expect("write hostile");
        match wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME).expect("refusal arrives") {
            Frame::Error {
                request_id: rid,
                code,
                aux0,
                aux1,
                text,
            } => {
                assert_eq!(rid, request_id as u64);
                assert_eq!(code, expected.code(), "remote code diverged from local");
                assert_eq!(
                    Frame::to_exec_error(code, aux0, aux1, text),
                    expected,
                    "remote refusal lost structure"
                );
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
    }
    server.shutdown();
}

/// A refused *group* reports its cause, remote ≡ local: nothing of it is enqueued, so
/// every entry of the batch frame resolves with the error that refused it — the one the
/// local `submit_all` returns — where the accepted prefix used to come back `Cancelled`.
#[test]
fn refused_group_reports_its_cause_on_every_entry_remote_and_local() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let executor = Arc::new(Executor::single(StatevectorBackend::with_shots(64)));
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&executor)).expect("bind loopback");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    let group = || -> Vec<EvalJob> {
        let mut jobs: Vec<EvalJob> = loopback_jobs()
            .into_iter()
            .take(3)
            .map(|(job, _)| job)
            .collect();
        jobs[1].params[1] = f64::NAN;
        jobs
    };
    let expected = ExecError::NonFiniteParameter { index: 1 };
    assert_eq!(
        executor.client().submit_all(group()).map(|_| ()),
        Err(expected.clone()),
        "local refusal"
    );

    // Raw frames: `NetClient` would refuse the job before sending it.
    let frame = Frame::SubmitBatch(
        group()
            .into_iter()
            .enumerate()
            .map(|(i, job)| SubmitFrame {
                request_id: i as u64,
                probe: false,
                opts: SubmitOptions::default(),
                job,
            })
            .collect(),
    );
    wire::write_frame(&mut stream, &frame, wire::DEFAULT_MAX_FRAME).expect("write batch");
    let mut answered = Vec::new();
    for _ in 0..3 {
        match wire::read_frame(&mut stream, wire::DEFAULT_MAX_FRAME).expect("refusal arrives") {
            Frame::Error {
                request_id,
                code,
                aux0,
                aux1,
                text,
            } => {
                assert_eq!(Frame::to_exec_error(code, aux0, aux1, text), expected);
                answered.push(request_id);
            }
            other => panic!("expected a refusal, got {other:?}"),
        }
    }
    answered.sort_unstable();
    assert_eq!(answered, [0, 1, 2]);
    executor.wait_idle();
    assert_eq!(
        executor.shots_used(qexec::DEFAULT_BACKEND),
        Ok(0),
        "nothing of either refused group ran"
    );
    server.shutdown();
}

/// A batch frame larger than a `Block` executor's queue used to wait for room while
/// holding the pause that kept the queue from draining — wedging its connection and
/// leaving the served executor paused for every other one.  Now every entry resolves
/// `Overloaded` and the next connection's job still runs.
#[test]
fn oversized_batch_under_block_is_refused_and_the_executor_keeps_serving() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let executor = Arc::new(
        Executor::builder()
            .register(qexec::DEFAULT_BACKEND, StatevectorBackend::with_shots(64))
            .queue_capacity(2)
            .admission(AdmissionPolicy::Block)
            .start(),
    );
    let server = NetServer::bind("127.0.0.1:0", executor).expect("bind loopback");
    let patience = Duration::from_secs(10);

    let a = NetClient::connect(server.local_addr()).expect("connect a");
    let jobs: Vec<EvalJob> = loopback_jobs()
        .into_iter()
        .take(4)
        .map(|(job, _)| job)
        .collect();
    for handle in a.submit_group(jobs).expect("the frame is sent") {
        assert_eq!(
            handle.wait_timeout(patience),
            Some(Err(ExecError::Overloaded)),
            "every entry of the oversized group must resolve with a structured error"
        );
    }

    let b = NetClient::connect(server.local_addr()).expect("connect b");
    let (job, _) = loopback_jobs().swap_remove(0);
    let result = b.submit(job).expect("submit").wait_timeout(patience);
    assert!(
        matches!(result, Some(Ok(_))),
        "the executor must not be left paused: {result:?}"
    );
    drop((a, b));
    server.shutdown();
}

/// Connections beyond `max_conns` receive a polite over-capacity notice (their
/// handles resolve `Overloaded`), while established connections keep working.
#[test]
fn over_capacity_connections_politely_refused() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let executor = Arc::new(Executor::single(StatevectorBackend::with_shots(64)));
    let server = NetServer::builder(Arc::clone(&executor))
        .max_conns(1)
        .bind("127.0.0.1:0")
        .expect("bind loopback");

    let first = NetClient::connect(server.local_addr()).expect("first connect");
    spin_until(
        || server.active_connections() == 1,
        "first connection registered",
    );
    let second = NetClient::connect(server.local_addr()).expect("tcp connect succeeds");
    spin_until(|| second.is_closed(), "over-capacity refusal processed");
    let (job, _) = loopback_jobs().swap_remove(0);
    assert_eq!(second.submit(job).map(|_| ()), Err(ExecError::Overloaded));

    // The first connection is unaffected.
    let (job, _) = loopback_jobs().swap_remove(1);
    first.submit(job).expect("submit").wait().expect("executes");
    drop(second);
    drop(first);
    server.shutdown();
    assert_eq!(
        server.observability().snapshot().counter("conns_rejected"),
        1
    );
}

/// Shutdown fails queued work cleanly: every outstanding handle resolves with the
/// structured `ShutDown` error (never hangs, never a dropped connection mystery),
/// and later submissions are refused with the same code.
#[test]
fn shutdown_fails_queued_work_cleanly() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // A paused executor guarantees the jobs are still queued when shutdown lands.
    let executor = Arc::new(
        Executor::builder()
            .paused()
            .register("sv", StatevectorBackend::with_shots(64))
            .start(),
    );
    let server = NetServer::bind("127.0.0.1:0", Arc::clone(&executor)).expect("bind loopback");
    let client = NetClient::connect(server.local_addr()).expect("connect");
    let handles: Vec<_> = (0..5)
        .map(|i| {
            let (job, _) = loopback_jobs().swap_remove(i);
            client.submit(job).expect("submit")
        })
        .collect();
    // Ensure the server has accepted all five before shutting down.
    spin_until(
        || server.observability().snapshot().counter("submits") == 5,
        "server accepted the queued jobs",
    );
    server.shutdown();
    for h in &handles {
        assert_eq!(
            h.wait(),
            Err(ExecError::ShutDown),
            "queued job must report shutdown"
        );
    }
    spin_until(|| client.is_closed(), "client saw the shutdown notice");
    let (job, _) = loopback_jobs().swap_remove(5);
    assert_eq!(client.submit(job).map(|_| ()), Err(ExecError::ShutDown));
    executor.resume();
}

/// An exact backend whose every evaluation takes `delay`, and which records that one
/// has started.
struct Slow {
    inner: StatevectorBackend,
    delay: Duration,
    started: Arc<std::sync::atomic::AtomicBool>,
}

impl Backend for Slow {
    fn evaluate(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        charged_op: &PauliOp,
        free_ops: &[&PauliOp],
    ) -> (f64, Vec<f64>) {
        self.started
            .store(true, std::sync::atomic::Ordering::SeqCst);
        std::thread::sleep(self.delay);
        self.inner
            .evaluate(circuit, params, initial, charged_op, free_ops)
    }

    fn probe(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        op: &PauliOp,
    ) -> f64 {
        self.inner.probe(circuit, params, initial, op)
    }

    fn shots_used(&self) -> u64 {
        self.inner.shots_used()
    }

    fn reset_shots(&mut self) {
        self.inner.reset_shots();
    }

    fn shots_per_pauli(&self) -> u64 {
        self.inner.shots_per_pauli()
    }

    fn name(&self) -> &'static str {
        "slow"
    }
}

/// Work still executing when shutdown lands outlasts the readers' shutdown poll, yet
/// every connection gets its result and then the shutdown notice — also a connection
/// whose last job finished long before another connection's: a connection stays
/// writable until shutdown has sent its notice, so each client closes with `ShutDown`,
/// not a bare transport error.
#[test]
fn shutdown_notice_follows_long_in_flight_work() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let slow = |millis| {
        let started = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let backend = Slow {
            inner: StatevectorBackend::with_shots(64),
            delay: Duration::from_millis(millis),
            started: Arc::clone(&started),
        };
        (backend, started)
    };
    let (short, short_started) = slow(200);
    let (long, long_started) = slow(800);
    let executor = Arc::new(
        Executor::builder()
            .register("short", short)
            .register("long", long)
            .start(),
    );
    let server = NetServer::bind("127.0.0.1:0", executor).expect("bind loopback");
    let clients: Vec<NetClient> = (0..2)
        .map(|_| NetClient::connect(server.local_addr()).expect("connect"))
        .collect();
    let handles: Vec<_> = clients
        .iter()
        .zip(["short", "long"])
        .map(|(client, backend)| {
            let (job, _) = loopback_jobs().swap_remove(0);
            client
                .submit_with(job, &SubmitOptions::new().backend(backend))
                .expect("submit")
        })
        .collect();
    spin_until(
        || {
            short_started.load(std::sync::atomic::Ordering::SeqCst)
                && long_started.load(std::sync::atomic::Ordering::SeqCst)
        },
        "both jobs are executing",
    );
    server.shutdown();
    for (client, handle) in clients.iter().zip(&handles) {
        assert!(
            handle.wait().is_ok(),
            "in-flight work completes through shutdown"
        );
        spin_until(|| client.is_closed(), "client saw the shutdown notice");
        let (job, _) = loopback_jobs().swap_remove(1);
        assert_eq!(client.submit(job).map(|_| ()), Err(ExecError::ShutDown));
    }
}
