//! The relational equivalence harness: every "fast path ≡ its source" promise of the
//! stack — compiled ≡ reference, batch ≡ serial, zero noise ≡ exact — registered once, as
//! a row of a table, and checked on every case of a seeded domain.
//!
//! A row is a named `(fast, source, relation)` [`Pair`] over one domain's case type.  A
//! domain is a list of cases drawn from the one counter-based [`Gen`], built once per
//! test binary, together with the claims its cases must cover — gate kinds, sizes,
//! string shapes, start states — asserted in code before any row runs:
//!
//! * [`circuits`] and [`registers`] — random circuits with parameters, a dense initial
//!   state, a basis start and an insertion schedule, on 1–13 and on 14 qubits
//!   ([`CIRCUIT_PAIRS`]);
//! * [`expectations`] — the same circuits on 1–8 qubits with an observable, read by
//!   untruncated propagation, the dense driver and an interleaved oracle
//!   ([`EXPECTATION_PAIRS`]);
//! * [`cx_networks`] — circuits with maximal CX runs below and at or above
//!   `qsim::CX_GATHER_MIN_QUBITS`, with insertions inside and right after runs
//!   ([`CIRCUIT_PAIRS`]);
//! * [`single_qubit_runs`] — circuits with maximal single-qubit runs on registers of
//!   one and of several `qsim::TILE_QUBITS` tiles, high qubits inside runs, and
//!   insertions inside and right after runs ([`CIRCUIT_PAIRS`]);
//! * [`operators`] — states with operators and rotation sequences ([`OPERATOR_PAIRS`]);
//! * [`single_qubit_gates`] — fused, Y, H and lone Rx/Ry matrices (at angles that zero
//!   entries too) on each of qubits 0–3 and the top qubit of every register from 1 to
//!   14 qubits, from random and basis states ([`GATE_PAIRS`]);
//! * [`batches`] and [`parallel_batches`] — request batches at 4–5 qubits, and at
//!   11 qubits × 17 candidates, the shape that crosses `qsim::parallel_threshold`
//!   ([`BATCH_PAIRS`]).
//!
//! The entry tests of the `compiled_equivalence`, `soa_equivalence`,
//! `kernel_equivalence`, `differential_oracle` and `noise_channels` suites each run a
//! block of named rows over one or two domains; together the blocks run every row.
//! [`registers`] and [`parallel_batches`] run only the rows whose code paths change with
//! the register or batch size (kernels, the product prefix, spread batches): in a debug
//! build one of their cases costs as much as dozens of small ones.
//!
//! **Adding a pair:** write its fast and source functions over the domain's case type,
//! add a row to the table, name the row in an entry test, and make the domain claim
//! whatever the row needs its cases to contain.  The relation is [`Relation::Bits`]
//! unless the two sides compute different arithmetic: a row may say `Within(ε)` only
//! beside a comment naming why the bits differ (a fused matrix product, a reordered sum).

use qcircuit::{Angle, Circuit, Entanglement, Gate, HardwareEfficientAnsatz};
use qnoise::{PauliChannel, PauliNoiseModel, TrajectorySampler};
use qop::{Complex64, PauliOp, PauliString, Statevector};
use qrng::SeedPolicy;
use qsim::{reference, CompiledCircuit, PauliInsertion, PauliPropagator, PauliPropagatorConfig};
use std::collections::BTreeMap;
use std::f64::consts::{FRAC_PI_2, PI};
use std::panic::AssertUnwindSafe;
use std::sync::OnceLock;
use vqa::{
    Backend, EvalRequest, InitialState, NoisyBackend, NoisyStatevectorBackend, SampledBackend,
    StatevectorBackend,
};
use Relation::{Bits, Within};

/// How a fast path must relate to its source.
#[derive(Clone, Copy, Debug)]
pub enum Relation {
    /// Equal `to_bits()`, zero signs included.
    Bits,
    /// Every amplitude within `ε` in complex norm, or every value within `ε`.
    Within(f64),
}

impl Relation {
    /// Holds `fast` to `source` amplitude by amplitude.
    pub fn check_states(self, fast: &Statevector, source: &Statevector) -> Result<(), String> {
        if fast.dim() != source.dim() {
            return Err(format!("dimension {} vs {}", fast.dim(), source.dim()));
        }
        match self {
            Bits => self
                .check_values(fast.re(), source.re())
                .and_then(|_| self.check_values(fast.im(), source.im()))
                .map_err(|why| format!("re then im lane, {why}")),
            Within(eps) => match max_amplitude_diff(fast, source) {
                diff if diff < eps => Ok(()),
                diff => Err(format!("amplitudes differ by {diff:e}, not < {eps:e}")),
            },
        }
    }

    /// Holds `fast` to `source` value by value.
    pub fn check_values(self, fast: &[f64], source: &[f64]) -> Result<(), String> {
        if fast.len() != source.len() {
            return Err(format!("{} values vs {}", fast.len(), source.len()));
        }
        for (i, (a, b)) in fast.iter().zip(source).enumerate() {
            let held = match self {
                Bits => a.to_bits() == b.to_bits(),
                Within(eps) => (a - b).abs() < eps,
            };
            if !held {
                return Err(format!("value {i}: {a:e} vs {b:e} ({self:?})"));
            }
        }
        Ok(())
    }
}

/// What one side of a pair computes on a case.
pub enum Out {
    State(Statevector),
    Values(Vec<f64>),
}

/// One row of a table: `(name, fast, source, relation)` over cases of type `C`.
pub type Pair<C> = (&'static str, fn(&C) -> Out, fn(&C) -> Out, Relation);

/// A domain's cases, each with the label a failure names it by.
type Cases<C> = Vec<(String, C)>;

/// Runs the rows of `table` named by `names` on every case, and fails with the row, the
/// case and the first broken value.
fn check<C>(cases: &Cases<C>, table: &[Pair<C>], names: &[&str]) {
    for &name in names {
        let (_, fast, source, relation) = table
            .iter()
            .find(|row| row.0 == name)
            .unwrap_or_else(|| panic!("no pair named {name:?}"));
        for (label, case) in cases {
            let held = match (fast(case), source(case)) {
                (Out::State(f), Out::State(s)) => relation.check_states(&f, &s),
                (Out::Values(f), Out::Values(s)) => relation.check_values(&f, &s),
                _ => Err("fast and source return different kinds".into()),
            };
            if let Err(why) = held {
                panic!("{name} on {label}: {why}");
            }
        }
    }
}

/// How often the cases of a domain cover each thing the domain claims.
#[derive(Default)]
pub struct Tally(BTreeMap<String, usize>);

impl Tally {
    pub fn add(&mut self, what: impl Into<String>) {
        *self.0.entry(what.into()).or_default() += 1;
    }

    pub fn require(&self, what: &str, at_least: usize) {
        let got = self.0.get(what).copied().unwrap_or(0);
        assert!(
            got >= at_least,
            "the cases cover {what:?} {got} times, fewer than {at_least}: {:?}",
            self.0
        );
    }

    /// Counts the qubits, every gate variant (diagonal Pauli rotations apart) and every
    /// angle kind of `circuit`.
    fn circuit(&mut self, circuit: &Circuit) {
        self.add(format!("{} qubits", circuit.num_qubits()));
        for gate in circuit.gates() {
            let variant = format!("{gate:?}");
            self.add(match gate {
                Gate::PauliRotation(s, _) if s.x_mask() == 0 => "diagonal rotation",
                _ => variant.split('(').next().expect("a variant name"),
            });
            self.add(match gate.angle() {
                None => "no angle",
                Some(Angle::Fixed(_)) => "fixed angle",
                Some(Angle::Param { multiplier, .. }) if *multiplier == 1.0 => "slotted angle",
                Some(Angle::Param { .. }) => "scaled angle",
            });
        }
    }

    fn require_every_gate(&self) {
        let kinds = "H X Y Z S Sdg Cx Cz Rx Ry Rz PauliRotation";
        let angles = ["fixed angle", "slotted angle", "scaled angle"];
        for kind in kinds.split(' ').chain(["diagonal rotation"]).chain(angles) {
            self.require(kind, 1);
        }
    }
}

/// A stateless generator: a case is reproduced from its seed alone (`qrng::mix` does
/// not count as a draw, so generating inputs never disturbs the draw-count assertions
/// of `qrng::total_draws`, and a test that only generates inputs needs no lock).
pub struct Gen {
    seed: u64,
    counter: u64,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Gen { seed, counter: 0 }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.counter += 1;
        qrng::mix(self.seed, self.counter)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// A random string whose shape exercises a particular kernel: diagonal, generic,
    /// a single X/Y (one pivot, `xl == 0`), or an X mask confined to the two lowest
    /// qubits (`pivot < 2`, the in-chunk specialisations and scalar tails).
    pub fn string(&mut self, n: usize) -> PauliString {
        let mask = (1u64 << n) - 1;
        let (x, z) = match self.below(5) {
            0 => (0, self.next_u64() & mask),
            1 => (self.next_u64() & mask, self.next_u64() & mask),
            2 => (1u64 << self.below(n as u64), self.next_u64() & mask),
            3 => (self.next_u64() & mask & 0b11, self.next_u64() & mask),
            // Same X mask as a sibling is likely: only two bits of freedom.
            _ => (mask & 0b101, self.next_u64() & mask),
        };
        PauliString::from_masks(x, z, n)
    }

    /// A normalized state with random amplitudes.
    pub fn state(&mut self, num_qubits: usize) -> Statevector {
        let mut psi = Statevector::from_amplitudes(
            (0..1usize << num_qubits)
                .map(|_| Complex64::new(self.unit(), self.unit()))
                .collect(),
        );
        psi.normalize();
        psi
    }

    /// 1–`max_terms` random strings with coefficients in `[-1, 1)`, a quarter of the
    /// time plus an identity term.
    fn operator(&mut self, n: usize, max_terms: u64) -> PauliOp {
        let mut op = PauliOp::zero(n);
        for _ in 0..=self.below(max_terms) {
            op.add_term(self.string(n), self.unit());
        }
        if self.below(4) == 0 {
            op.add_term(PauliString::identity(n), self.unit());
        }
        op
    }
}

/// Checks `property` on `cases` cases: case `i` draws from `Gen::new(qrng::mix(seed, i))`,
/// so a failure, which names its case, reproduces from `(seed, i)` alone.
pub fn for_cases(seed: u64, cases: usize, mut property: impl FnMut(usize, &mut Gen)) {
    for i in 0..cases {
        let mut gen = Gen::new(qrng::mix(seed, i as u64));
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| property(i, &mut gen)));
        if let Err(panic) = run {
            eprintln!("failed on case {i} of {cases} (seed {seed:#x})");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A dense, structured, normalized state: every amplitude distinct so index or phase
/// mix-ups cannot cancel.
pub fn dense_state(num_qubits: usize) -> Statevector {
    let dim = 1usize << num_qubits;
    let mut psi = Statevector::from_amplitudes(
        (0..dim)
            .map(|i| Complex64::new((i as f64 * 0.137).sin() + 0.3, (i as f64 * 0.291).cos()))
            .collect(),
    );
    psi.normalize();
    psi
}

pub fn max_amplitude_diff(a: &Statevector, b: &Statevector) -> f64 {
    a.to_amplitudes()
        .iter()
        .zip(b.to_amplitudes())
        .map(|(x, y)| (*x - y).norm())
        .fold(0.0, f64::max)
}

/// Forces multiple workers even on single-core CI machines (the vendored rayon honors
/// this like the real global-pool configuration).
pub fn force_parallel_workers() {
    // Honor the CI matrix's RAYON_NUM_THREADS (1 pins every kernel serial, 2/4 vary
    // the worker partitioning); default to 4 so a plain local `cargo test` still
    // drives the parallel paths on a single-core box.
    let threads = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4);
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .ok();
}

/// A zero-rate model that still *lists* channels, so the trajectory machinery runs its
/// full path (channel flattening, schedule sampling) and must come out empty-handed.
fn zero_rate_model() -> PauliNoiseModel {
    PauliNoiseModel::depolarizing(0.0, 0.0)
        .with_single_qubit_channel(PauliChannel::Dephasing(0.0))
        .with_two_qubit_local(PauliChannel::AmplitudeDampingTwirled(0.0))
}

// ---- Circuits ---------------------------------------------------------------------------

const NUM_PARAMS: usize = 5;

/// One random circuit with everything its rows execute it with.
pub struct CircuitCase {
    seed: u64,
    circuit: Circuit,
    compiled: CompiledCircuit,
    /// Special angles `0, ±π/2, π` mixed with generic ones.
    params: Vec<f64>,
    /// `params` with the last slot moved: a second binding that keeps a QAOA cost
    /// layer's angle, so batch tables prepared for both stay bound.
    rebound: Vec<f64>,
    initial: Statevector,
    basis: u64,
    /// Sorted by `after_op`, anywhere in the op list (before, inside or after the
    /// product prefix).
    insertions: Vec<PauliInsertion>,
    trailing: PauliString,
    /// Whether the basis-start row binds batch tables.
    tables: bool,
    observable: PauliOp,
}

enum Shape {
    /// `Random(chains, max_tail)`: a leading layer of single-qubit chains on a random
    /// subset of at most `chains` qubits in random order (constant-only chains
    /// included) — the product prefix — then a tail of up to `max_tail` gates of every
    /// kind.
    Random(usize, u64),
    /// H wall, ZZ ring on slot 0, Rx mixers on the last slot: one tabulated diagonal
    /// pass from 8 qubits up.
    Qaoa,
    /// Three circular hardware-efficient layers: every fusion pattern.
    Hea,
    /// A product layer, then three bursts of CX gates — a ring, then two of 2–6 gates on
    /// random pairs — each followed by 1–4 gates of every kind: maximal CX runs.
    Networks,
    /// Three layers of one lone single-qubit gate of every kind on every qubit, in a
    /// random qubit order, a CZ ring after the first and a ZZ rotation after the
    /// second: maximal single-qubit runs, their high qubits anywhere in the run.
    Runs,
}

/// Gate kind `kind` (0–11: `Gate`'s variants in declaration order; 12–13: Z-string
/// rotations, the diagonal-batching pass's food) on qubit `q`, with a fixed, slotted or
/// scaled angle.
fn random_gate(gen: &mut Gen, n: usize, kind: u64, q: usize) -> Gate {
    let other = (q + 1 + gen.below(n.max(2) as u64 - 1) as usize) % n;
    let angle = match gen.below(3) {
        0 => Angle::Fixed(PI * gen.unit()),
        1 => Angle::param(gen.below(NUM_PARAMS as u64) as usize),
        _ => Angle::Param {
            index: gen.below(NUM_PARAMS as u64) as usize,
            multiplier: 2.0 * gen.unit(),
        },
    };
    match kind {
        0 => Gate::H(q),
        1 => Gate::X(q),
        2 => Gate::Y(q),
        3 => Gate::Z(q),
        4 => Gate::S(q),
        5 => Gate::Sdg(q),
        6 if n > 1 => Gate::Cx(q, other),
        7 if n > 1 => Gate::Cz(q, other),
        6 | 7 => Gate::H(q),
        8 => Gate::Rx(q, angle),
        9 => Gate::Ry(q, angle),
        10 => Gate::Rz(q, angle),
        11 => Gate::PauliRotation(gen.string(n), angle),
        _ => Gate::PauliRotation(
            PauliString::from_masks(0, gen.next_u64() & ((1 << n) - 1), n),
            angle,
        ),
    }
}

fn random_circuit(gen: &mut Gen, n: usize, shape: Shape) -> Circuit {
    let mut circuit = Circuit::new(n);
    match shape {
        Shape::Random(chains, max_tail) => {
            let mut qubits: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                qubits.swap(i, gen.below(i as u64 + 1) as usize);
            }
            qubits.truncate(gen.below(n.min(chains) as u64 + 1) as usize);
            let constant_only = gen.below(4) == 0;
            for &q in &qubits {
                for _ in 0..=gen.below(3) {
                    // Kinds 0–5 are the constant gates, 8–10 the single-qubit rotations.
                    let kind = gen.below(if constant_only { 6 } else { 9 });
                    let gate = random_gate(gen, n, if kind < 6 { kind } else { kind + 2 }, q);
                    circuit.push(gate);
                }
            }
            for _ in 0..=gen.below(max_tail) {
                let (kind, q) = (gen.below(14), gen.below(n as u64) as usize);
                circuit.push(random_gate(gen, n, kind, q));
            }
        }
        Shape::Qaoa => {
            for q in 0..n {
                circuit.push(Gate::H(q));
            }
            for q in 0..n {
                let ring = PauliString::from_masks(0, (1 << q) | (1 << ((q + 1) % n)), n);
                circuit.push(Gate::PauliRotation(ring, Angle::param(0)));
            }
            for q in 0..n {
                circuit.push(Gate::Rx(q, Angle::param(NUM_PARAMS - 1)));
            }
        }
        Shape::Hea => circuit = HardwareEfficientAnsatz::new(n, 3, Entanglement::Circular).build(),
        Shape::Runs => {
            for layer in 0..3 {
                let mut qubits: Vec<usize> = (0..n).collect();
                for i in (1..n).rev() {
                    qubits.swap(i, gen.below(i as u64 + 1) as usize);
                }
                for q in qubits {
                    // Kinds 0–5 are the constant gates, 8–10 the single-qubit rotations.
                    let kind = gen.below(9);
                    circuit.push(random_gate(
                        gen,
                        n,
                        if kind < 6 { kind } else { kind + 2 },
                        q,
                    ));
                }
                match layer {
                    0 => (0..n).for_each(|q| circuit.push(Gate::Cz(q, (q + 1) % n))),
                    1 => {
                        let zz = PauliString::from_masks(0, 0b11 << (n - 2), n);
                        circuit.push(Gate::PauliRotation(zz, Angle::param(0)));
                    }
                    _ => {}
                }
            }
        }
        Shape::Networks => {
            for q in 0..n {
                circuit.push(Gate::Ry(q, Angle::param(q % NUM_PARAMS)));
            }
            for burst in 0..3 {
                let pairs: Vec<(usize, usize)> = match burst {
                    0 => (0..n).map(|q| (q, (q + 1) % n)).collect(),
                    _ => (0..2 + gen.below(5))
                        .map(|_| {
                            let c = gen.below(n as u64) as usize;
                            (c, (c + 1 + gen.below(n as u64 - 1) as usize) % n)
                        })
                        .collect(),
                };
                for (c, t) in pairs {
                    circuit.push(Gate::Cx(c, t));
                }
                for _ in 0..=gen.below(4) {
                    let (kind, q) = (gen.below(14), gen.below(n as u64) as usize);
                    circuit.push(random_gate(gen, n, kind, q));
                }
            }
        }
    }
    circuit
}

fn circuit_case(seed: u64, n: usize, shape: Shape) -> (String, CircuitCase) {
    let mut gen = Gen::new(seed);
    let circuit = random_circuit(&mut gen, n, shape);
    let compiled = CompiledCircuit::compile(&circuit);
    let params: Vec<f64> = (0..circuit.num_parameters().max(NUM_PARAMS))
        .map(|_| match gen.below(8) {
            0 => 0.0,
            1 => FRAC_PI_2,
            2 => -FRAC_PI_2,
            3 => PI,
            _ => 3.2 * gen.unit(),
        })
        .collect();
    let mut rebound = params.clone();
    *rebound.last_mut().expect("NUM_PARAMS > 0") += 0.7 * gen.unit();
    let ops = compiled.num_ops() as u64;
    let mut insertions: Vec<PauliInsertion> = (0..gen.below(5))
        .filter(|_| ops > 0)
        .map(|_| PauliInsertion {
            after_op: gen.below(ops) as usize,
            string: gen.string(n),
        })
        .collect();
    insertions.sort_by_key(|p| p.after_op);
    let case = CircuitCase {
        seed,
        basis: gen.below(1 << n),
        trailing: gen.string(n),
        tables: gen.below(2) == 1,
        observable: gen.operator(n, 6),
        initial: dense_state(n),
        circuit,
        compiled,
        params,
        rebound,
        insertions,
    };
    (format!("seed {seed} ({n} qubits)"), case)
}

/// `initial` through the compiled circuit, replaying `insertions`, with or without batch
/// tables bound for `params` and `rebound`.
fn execute(c: &CircuitCase, insertions: &[PauliInsertion], tables: bool) -> Out {
    let tables = tables.then(|| c.compiled.prepare_batch_tables(&[&c.params, &c.rebound]));
    let mut psi = c.initial.clone();
    c.compiled
        .execute_in_place_with_insertions(&c.params, &mut psi, insertions, tables.as_ref());
    Out::State(psi)
}

fn plain(c: &CircuitCase) -> Out {
    execute(c, &[], false)
}

fn reference_state(c: &CircuitCase) -> Statevector {
    reference::run_circuit(&c.circuit, &c.params, &c.initial)
}

fn reference(c: &CircuitCase) -> Out {
    Out::State(reference_state(c))
}

/// A rollout of a nonzero-rate model through a fresh compilation and a fresh sampler.
fn rollout(c: &CircuitCase) -> Out {
    let model = PauliNoiseModel::ibm_like("p", 0.05, 0.1, 0.02, 0.0);
    let sampler = TrajectorySampler::new(&CompiledCircuit::compile(&c.circuit), &model);
    execute(c, &sampler.sample(c.seed, c.seed % 20), true)
}

/// The basis start through `execute_from_basis` into a stale state, or prepared and
/// executed.
fn basis_start(c: &CircuitCase, from_basis: bool) -> Out {
    let bound = c.compiled.prepare_batch_tables(&[&c.params]);
    let n = c.circuit.num_qubits();
    let (params, insertions, tables) = (&c.params, &c.insertions, c.tables.then_some(&bound));
    let mut psi = Statevector::basis_state(n, c.basis);
    if from_basis {
        psi = dense_state(n);
        c.compiled
            .execute_from_basis(c.basis, params, &mut psi, insertions, tables);
    } else {
        c.compiled
            .execute_in_place_with_insertions(params, &mut psi, insertions, tables);
    }
    Out::State(psi)
}

/// The rows over [`CircuitCase`]s.  The `Within(1e-12)` rows hold a fast executor to
/// the per-gate interleaved reference, which rounds the same unitary in another order:
/// fusion multiplies 2×2 matrices before applying them, the diagonal pass folds phases,
/// and even unfused split-lane kernels order their products differently.
pub const CIRCUIT_PAIRS: &[Pair<CircuitCase>] = &[
    ("compiled ≡ reference", plain, reference, Within(1e-12)),
    (
        "run_circuit ≡ reference",
        |c| Out::State(qsim::run_circuit(&c.circuit, &c.params, &c.initial)),
        reference,
        Within(1e-12),
    ),
    (
        "gate kernels ≡ reference",
        |c| {
            let mut psi = c.initial.clone();
            for gate in c.circuit.gates() {
                qsim::apply_gate(&mut psi, gate, &c.params);
            }
            Out::State(psi)
        },
        reference,
        Within(1e-12),
    ),
    (
        "rebinding is stateless",
        |c| {
            let mut scratch = c.initial.clone();
            c.compiled
                .execute_into(&c.rebound, &c.initial, &mut scratch);
            c.compiled.execute_into(&c.params, &c.initial, &mut scratch);
            Out::State(scratch)
        },
        |c| {
            let mut fresh = c.initial.zeros_like();
            CompiledCircuit::compile(&c.circuit).execute_into(&c.params, &c.initial, &mut fresh);
            Out::State(fresh)
        },
        Bits,
    ),
    (
        // P² = I, and the split-lane string application is phase-exact.
        "paired insertions cancel",
        |c| {
            let twice = c.insertions.iter().flat_map(|p| [p.clone(), p.clone()]);
            execute(c, &twice.collect::<Vec<_>>(), false)
        },
        plain,
        Bits,
    ),
    (
        "trailing insertion ≡ reference",
        |c| {
            let (after_op, string) = (c.compiled.num_ops().saturating_sub(1), c.trailing);
            execute(c, &[PauliInsertion { after_op, string }], false)
        },
        |c| {
            let mut psi = reference_state(c);
            reference::apply_pauli_string(&mut psi, &c.trailing);
            Out::State(psi)
        },
        Within(1e-12),
    ),
    (
        "batch tables ≡ unbound",
        |c| execute(c, &[], true),
        plain,
        Bits,
    ),
    (
        "basis start ≡ prepare + execute",
        |c| basis_start(c, true),
        |c| basis_start(c, false),
        Bits,
    ),
    (
        "rate-zero rollout ≡ ideal",
        |c| {
            let sampler = TrajectorySampler::new(&c.compiled, &zero_rate_model());
            assert!(sampler.is_trivial(), "a zero-rate sampler has sites");
            let schedule = sampler.sample(c.seed, c.seed % 4);
            assert!(schedule.is_empty(), "zero-rate insertions {schedule:?}");
            execute(c, &schedule, true)
        },
        plain,
        Bits,
    ),
    // A nonzero-rate schedule is a function of (seed, trajectory) alone.
    ("noisy rollout is reproducible", rollout, rollout, Bits),
    (
        // The source applies every CX with `qsim::apply_cx`, the case's insertions in
        // place; the fast side gathers every run no insertion falls strictly inside.
        "CX run gather ≡ per-gate CX",
        |c| execute(c, &c.insertions, false),
        |c| {
            let mut psi = c.initial.clone();
            c.compiled
                .with_per_gate_cx()
                .execute_in_place_with_insertions(&c.params, &mut psi, &c.insertions, None);
            Out::State(psi)
        },
        Bits,
    ),
    (
        // The fast side applies each maximal run of single-qubit ops below
        // `qsim::TILE_QUBITS` tile by tile; the source ends every run after one op.
        "tiled 1q runs ≡ one op at a time",
        |c| execute(c, &c.insertions, false),
        one_op_at_a_time,
        Bits,
    ),
];

/// `c`'s insertions, plus an identity insertion after every op: an insertion ends a
/// single-qubit run, so every run is one op long, and the identity changes no bit.
fn one_op_at_a_time(c: &CircuitCase) -> Out {
    let n = c.circuit.num_qubits();
    let identities = (0..c.compiled.num_ops()).map(|after_op| PauliInsertion {
        after_op,
        string: PauliString::identity(n),
    });
    let mut insertions: Vec<PauliInsertion> =
        c.insertions.iter().cloned().chain(identities).collect();
    insertions.sort_by_key(|p| p.after_op);
    execute(c, &insertions, false)
}

/// The op ranges `[start, end)` of `c`'s maximal runs of two or more consecutive
/// single-qubit ops, with each op's qubit, read from its noise sites: a single-qubit op
/// holds only gates on its one qubit.
fn one_qubit_op_runs(c: &CircuitCase) -> Vec<(usize, usize, Vec<usize>)> {
    let mut ops: Vec<Option<usize>> = vec![None; c.compiled.num_ops()];
    let mut multi = vec![false; c.compiled.num_ops()];
    for (gate, site) in gates_and_sites(c) {
        let one = site.qubits.len() == 1 && !matches!(gate, Gate::PauliRotation(..));
        multi[site.op_index] |= !one;
        ops[site.op_index] = Some(site.qubits[0]);
    }
    let mut runs: Vec<(usize, usize, Vec<usize>)> = Vec::new();
    for (op, q) in ops.iter().enumerate() {
        match (q, multi[op], runs.last_mut()) {
            (Some(q), false, Some(run)) if run.1 == op => {
                run.1 += 1;
                run.2.push(*q);
            }
            (Some(q), false, _) => runs.push((op, op + 1, vec![*q])),
            _ => {}
        }
    }
    runs.retain(|run| run.1 - run.0 >= 2);
    runs
}

/// The op ranges `[start, end)` of `c`'s maximal runs of two or more consecutive CX ops,
/// read from its noise sites: a CX is never fused, so its site's op holds it alone.
fn cx_runs(c: &CircuitCase) -> Vec<(usize, usize)> {
    let mut ops: Vec<usize> = gates_and_sites(c)
        .filter(|(gate, _)| matches!(gate, Gate::Cx(..)))
        .map(|(_, site)| site.op_index)
        .collect();
    ops.dedup();
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for op in ops {
        match runs.last_mut() {
            Some(run) if run.1 == op => run.1 += 1,
            _ => runs.push((op, op + 1)),
        }
    }
    runs.retain(|&(start, end)| end - start >= 2);
    runs
}

/// `c`'s non-identity gates beside their noise sites (identity rotations have none).
fn gates_and_sites(c: &CircuitCase) -> impl Iterator<Item = (&Gate, &qsim::NoiseSite)> {
    let gates = c.circuit.gates().iter().filter(|g| match g {
        Gate::PauliRotation(s, _) => !s.is_identity(),
        _ => true,
    });
    gates.zip(c.compiled.noise_sites())
}

/// The qubits of the product-prefix chains a basis start of `c` writes by doubling, in
/// op order: the leading ops holding single-qubit gates only, on distinct qubits, up to
/// the op after which the first insertion fires.
fn prefix_chains(c: &CircuitCase) -> Vec<usize> {
    let mut ops = vec![(0u64, true); c.compiled.num_ops()];
    for (gate, site) in gates_and_sites(c) {
        let op = &mut ops[site.op_index];
        op.0 |= site.qubits.iter().fold(0, |m, q| m | 1 << q);
        op.1 &= site.qubits.len() == 1 && !matches!(gate, Gate::PauliRotation(..));
    }
    let len = c.insertions.first().map_or(ops.len(), |p| p.after_op + 1);
    let mut touched = 0;
    let mut chains = Vec::new();
    for &(mask, single) in ops.iter().take(len) {
        if !single || touched & mask != 0 {
            break;
        }
        touched |= mask;
        chains.push(mask.trailing_zeros() as usize);
    }
    chains
}

/// Whether the basis start of `c` runs a qubit-0 chain on sub-cube runs of 2 amplitudes,
/// shorter than the 4-lane chunk of the full-width body: qubit 1 is neither written yet
/// nor where the chain's zero copies go (the next chain's qubit, else the lowest
/// unwritten one).
fn q0_chain_on_2_amplitude_runs(c: &CircuitCase) -> bool {
    let chains = prefix_chains(c);
    let Some(k) = chains.iter().position(|&q| q == 0) else {
        return false;
    };
    let covered = chains.iter().fold(0usize, |m, q| m | 1 << q);
    let all = (1usize << c.circuit.num_qubits()) - 1;
    let spare = (covered != all).then(|| (!covered & all).trailing_zeros() as usize);
    let next = chains.get(k + 1).copied().or(spare);
    !chains[..k].contains(&1) && next != Some(1)
}

fn tally_circuits(cases: &Cases<CircuitCase>) -> Tally {
    let mut tally = Tally::default();
    for (_, c) in cases {
        tally.circuit(&c.circuit);
        if q0_chain_on_2_amplitude_runs(c) {
            tally.add("q0 prefix chain on 2-amplitude runs");
        }
        if !c.insertions.is_empty() {
            tally.add("insertions");
        }
        let tables = c.compiled.prepare_batch_tables(&[&c.params, &c.rebound]);
        if tables.num_bound() > 0 {
            tally.add("bound tables");
        }
        if c.params.iter().any(|&p| p == FRAC_PI_2 || p == PI) {
            tally.add("special angle");
        }
    }
    tally
}

/// 69 circuits: 24 random at 5 qubits, 20 random and 4 hardware-efficient at 6, 13
/// random sweeping 1–13 qubits and 8 QAOA layers at 9–10 qubits.
pub fn circuits(names: &[&str]) {
    static CASES: OnceLock<Cases<CircuitCase>> = OnceLock::new();
    let cases = CASES.get_or_init(|| {
        let random = |max_tail| Shape::Random(6, max_tail);
        let cases: Cases<_> = (0..69u64)
            .map(|k| match k {
                0..=47 if k % 12 == 1 => circuit_case(k, 6, Shape::Hea),
                0..=47 => circuit_case(k, 5 + k as usize % 2, random(40)),
                // Past 8 qubits a tail of 8 gates keeps each case near a millisecond.
                48..=60 if k > 55 => circuit_case(k, k as usize - 47, random(8)),
                48..=60 => circuit_case(k, k as usize - 47, random(24)),
                _ => circuit_case(k, 9 + k as usize % 2, Shape::Qaoa),
            })
            .collect();
        let tally = tally_circuits(&cases);
        tally.require_every_gate();
        for n in 1..=13 {
            tally.require(&format!("{n} qubits"), 1);
        }
        tally.require("5 qubits", 24);
        tally.require("6 qubits", 24);
        tally.require("insertions", 48);
        tally.require("bound tables", 8);
        tally.require("special angle", 48);
        tally.require("q0 prefix chain on 2-amplitude runs", 4);
        cases
    });
    check(cases, CIRCUIT_PAIRS, names);
}

/// 8 random circuits on 14 qubits (tails of up to 10 gates): every block size, lane
/// permutation and sign-table path a 2^14-amplitude state reaches.
pub fn registers(names: &[&str]) {
    static CASES: OnceLock<Cases<CircuitCase>> = OnceLock::new();
    let cases = CASES.get_or_init(|| {
        let cases: Cases<_> = (0..8u64)
            .map(|k| circuit_case(1000 + k, 14, Shape::Random(6, 10)))
            .collect();
        let tally = tally_circuits(&cases);
        tally.require("14 qubits", 8);
        tally.require("insertions", 4);
        tally.require("PauliRotation", 1);
        cases
    });
    check(cases, CIRCUIT_PAIRS, names);
}

/// 30 circuits with CX runs: 18 at or above `qsim::CX_GATHER_MIN_QUBITS` (10–14 qubits)
/// and 12 below it (8–9), hardware-efficient and `Shape::Networks`.  Two thirds of
/// them replay one insertion strictly inside a run and one right after a run's last CX
/// (beside their random ones); the rest replay none, so every run is gathered.
pub fn cx_networks(names: &[&str]) {
    static CASES: OnceLock<Cases<CircuitCase>> = OnceLock::new();
    let cases = CASES.get_or_init(|| {
        let cases: Cases<_> = (0..30u64)
            .map(|k| {
                let n = [10, 11, 12, 13, 14, 12, 8, 9, 10, 12][k as usize % 10];
                let shape = if k % 4 == 1 {
                    Shape::Hea
                } else {
                    Shape::Networks
                };
                let (label, mut case) = circuit_case(6000 + k, n, shape);
                let mut gen = Gen::new(7000 + k);
                match (k % 3, cx_runs(&case).as_slice()) {
                    (0, _) => case.insertions.clear(),
                    (_, [first, .., last]) => {
                        let inside = first.0 + gen.below((first.1 - first.0 - 1) as u64) as usize;
                        for after_op in [inside, last.1 - 1] {
                            let string = gen.string(n);
                            case.insertions.push(PauliInsertion { after_op, string });
                        }
                        case.insertions.sort_by_key(|p| p.after_op);
                    }
                    _ => {}
                }
                (label, case)
            })
            .collect();
        let mut tally = tally_circuits(&cases);
        for (_, c) in &cases {
            let n = c.circuit.num_qubits();
            let runs = cx_runs(c);
            let gathered = n >= qsim::CX_GATHER_MIN_QUBITS;
            assert_eq!(
                c.compiled.stats().cx_runs,
                if gathered { runs.len() } else { 0 },
                "the compiled circuit's CX runs"
            );
            let floor = if gathered {
                "at the floor"
            } else {
                "below the floor"
            };
            for &(start, end) in &runs {
                tally.add(format!("run {floor}"));
                tally.add(format!("run {floor} at {n} qubits"));
                for p in &c.insertions {
                    if (start..end - 1).contains(&p.after_op) {
                        tally.add(format!("insertion inside a run {floor}"));
                    } else if p.after_op == end - 1 {
                        tally.add(format!("insertion after a run {floor}"));
                    }
                }
            }
        }
        for n in 10..=14 {
            tally.require(&format!("run at the floor at {n} qubits"), 2);
        }
        tally.require("run at the floor", 30);
        tally.require("run below the floor", 10);
        tally.require("insertion inside a run at the floor", 8);
        tally.require("insertion after a run at the floor", 8);
        cases
    });
    check(cases, CIRCUIT_PAIRS, names);
}

/// 24 circuits with single-qubit runs: 18 above `qsim::TILE_QUBITS` (12–14 qubits, more
/// than one tile) and 6 at or below it (9 and 11), `Shape::Runs`, QAOA and
/// hardware-efficient.  Two thirds of them replay one insertion strictly inside a run
/// and one right after a run's last op (beside their random ones); the rest replay
/// none, so every run is applied whole.
pub fn single_qubit_runs(names: &[&str]) {
    static CASES: OnceLock<Cases<CircuitCase>> = OnceLock::new();
    let cases = CASES.get_or_init(|| {
        let tile = qsim::TILE_QUBITS;
        let cases: Cases<_> = (0..24u64)
            .map(|k| {
                let n = [12, 13, 14, 12, 14, 13, 9, 11][k as usize % 8];
                let shape = match k % 6 {
                    1 => Shape::Qaoa,
                    4 => Shape::Hea,
                    _ => Shape::Runs,
                };
                let (label, mut case) = circuit_case(9000 + k, n, shape);
                let mut gen = Gen::new(9500 + k);
                match (k % 3, one_qubit_op_runs(&case).as_slice()) {
                    (0, _) => case.insertions.clear(),
                    (_, [first, .., last]) => {
                        let inside = first.0 + gen.below((first.1 - first.0 - 1) as u64) as usize;
                        for after_op in [inside, last.1 - 1] {
                            let string = gen.string(n);
                            case.insertions.push(PauliInsertion { after_op, string });
                        }
                        case.insertions.sort_by_key(|p| p.after_op);
                    }
                    _ => {}
                }
                (label, case)
            })
            .collect();
        let mut tally = tally_circuits(&cases);
        for (_, c) in &cases {
            let n = c.circuit.num_qubits();
            let tiles = if n > tile {
                "several tiles"
            } else {
                "one tile"
            };
            for (start, end, qubits) in one_qubit_op_runs(c) {
                tally.add(format!("run on {tiles}"));
                let high = |q: &usize| *q >= tile;
                if qubits.iter().any(high) && !qubits.iter().all(high) {
                    tally.add("run straddling the tile");
                }
                if qubits[1..qubits.len() - 1].iter().any(high) {
                    tally.add("high-qubit op inside a run");
                }
                for p in &c.insertions {
                    if (start..end - 1).contains(&p.after_op) {
                        tally.add(format!("insertion inside a run on {tiles}"));
                    } else if p.after_op == end - 1 {
                        tally.add(format!("insertion after a run on {tiles}"));
                    }
                }
            }
        }
        for n in [12, 13, 14] {
            tally.require(&format!("{n} qubits"), 4);
        }
        tally.require("run on several tiles", 18);
        tally.require("run on one tile", 6);
        tally.require("run straddling the tile", 12);
        tally.require("high-qubit op inside a run", 6);
        tally.require("insertion inside a run on several tiles", 8);
        tally.require("insertion after a run on several tiles", 8);
        tally.require("insertion inside a run on one tile", 2);
        tally.require("special angle", 12);
        cases
    });
    check(cases, CIRCUIT_PAIRS, names);
}

// ---- Expectations: the differential oracle ----------------------------------------------

/// `⟨ψ|op|ψ⟩` from interleaved amplitudes and `PauliString::apply_to_basis` alone.
fn naive_expectation(op: &PauliOp, state: &Statevector) -> f64 {
    let amps = state.to_amplitudes();
    op.terms()
        .iter()
        .map(|term| {
            let mut acc = Complex64::ZERO;
            for (col, &amp) in amps.iter().enumerate() {
                let (row, phase) = term.string.apply_to_basis(col as u64);
                acc += amps[row as usize].conj() * phase * amp;
            }
            term.coefficient * acc.re
        })
        .sum()
}

/// The row over circuits read from their basis start.  Each fast path is held to a
/// source it shares no kernel with, summing in another order — hence `Within(1e-10)`.
pub const EXPECTATION_PAIRS: &[Pair<CircuitCase>] = &[(
    "propagation, compiled charged and compiled free ≡ oracle",
    |c| {
        let n = c.circuit.num_qubits();
        let propagated = PauliPropagator::new(PauliPropagatorConfig {
            max_weight: n as u32,
            coefficient_threshold: 0.0,
            max_terms: usize::MAX,
        })
        .expectation(&c.circuit, &c.params, &c.observable, c.basis);
        let (charged, free) = StatevectorBackend::new().evaluate(
            &c.circuit,
            &c.params,
            &InitialState::Basis(c.basis),
            &c.observable,
            &[&c.observable],
        );
        Out::Values(vec![propagated, charged, free[0]])
    },
    |c| {
        let start = Statevector::basis_state(c.circuit.num_qubits(), c.basis);
        let state = reference::run_circuit(&c.circuit, &c.params, &start);
        Out::Values(vec![naive_expectation(&c.observable, &state); 3])
    },
    Within(1e-10),
)];

/// 40 random circuits, five at each size from 1 to 8 qubits.
pub fn expectations(names: &[&str]) {
    static CASES: OnceLock<Cases<CircuitCase>> = OnceLock::new();
    let cases = CASES.get_or_init(|| {
        let cases: Cases<_> = (0..40u64)
            .map(|k| circuit_case(2000 + k, 1 + k as usize % 8, Shape::Random(6, 24)))
            .collect();
        let tally = tally_circuits(&cases);
        tally.require_every_gate();
        for n in 1..=8 {
            tally.require(&format!("{n} qubits"), 5);
        }
        cases
    });
    check(cases, EXPECTATION_PAIRS, names);
}

// ---- Operators --------------------------------------------------------------------------

/// A state with an operator, a rotation sequence, and a second state and coefficient
/// for the reductions.
pub struct OperatorCase {
    psi: Statevector,
    phi: Statevector,
    coeff: Complex64,
    op: PauliOp,
    rotations: Vec<(PauliString, f64)>,
}

fn operator_case(seed: u64, n: usize) -> (String, OperatorCase) {
    let mut gen = Gen::new(seed);
    let case = OperatorCase {
        psi: match seed % 2 {
            0 => dense_state(n),
            _ => gen.state(n),
        },
        phi: dense_state(n),
        coeff: Complex64::new(gen.unit(), gen.unit()),
        op: gen.operator(n, 10),
        rotations: (0..=gen.below(12))
            .map(|_| (gen.string(n), 3.2 * gen.unit()))
            .collect(),
    };
    (format!("seed {seed} ({n} qubits)"), case)
}

fn rotate(c: &OperatorCase, rotation: fn(&mut Statevector, &PauliString, f64)) -> Out {
    let mut psi = c.psi.clone();
    for (string, theta) in &c.rotations {
        rotation(&mut psi, string, *theta);
    }
    Out::State(psi)
}

fn naive_string_values(c: &OperatorCase) -> Vec<f64> {
    let terms = c.op.terms().iter();
    terms
        .map(|t| PauliOp::string_expectation_naive(&t.string, &c.psi))
        .collect()
}

/// The rows over [`OperatorCase`]s.  The `Within` rows compare split-lane kernels and
/// readouts to interleaved arithmetic: vector accumulators, hoisted phases and the
/// naive clone-the-state rotation sum and multiply in another order.
pub const OPERATOR_PAIRS: &[Pair<OperatorCase>] = &[
    (
        "rotation kernel ≡ naive",
        |c| rotate(c, qsim::apply_pauli_rotation),
        |c| rotate(c, reference::apply_pauli_rotation),
        Within(1e-12),
    ),
    (
        "apply ≡ naive scatter",
        |c| Out::State(c.op.apply(&c.psi)),
        |c| {
            let mut expected = c.psi.zeros_like();
            for term in c.op.terms() {
                for b in 0..c.psi.dim() as u64 {
                    let (b2, phase) = term.string.apply_to_basis(b);
                    let contribution = phase * c.psi.amplitude(b) * term.coefficient;
                    expected.set_amplitude(b2, expected.amplitude(b2) + contribution);
                }
            }
            Out::State(expected)
        },
        Within(1e-12),
    ),
    (
        "axpy ≡ interleaved",
        |c| {
            let mut axpy = c.psi.clone();
            axpy.axpy(c.coeff, &c.phi);
            Out::State(axpy)
        },
        |c| {
            let (x, y) = (c.psi.to_amplitudes(), c.phi.to_amplitudes());
            let sum = x.iter().zip(&y).map(|(x, y)| *x + c.coeff * *y);
            Out::State(Statevector::from_amplitudes(sum.collect()))
        },
        Within(1e-12),
    ),
    (
        // Packed as the two amplitudes `[norm, ⟨ψ|φ⟩]`, so the inner product is held by
        // its complex distance.
        "norm and inner product ≡ interleaved",
        |c| {
            let norm = Complex64::new(c.psi.norm(), 0.0);
            Out::State(Statevector::from_amplitudes(vec![
                norm,
                c.psi.inner(&c.phi),
            ]))
        },
        |c| {
            let (x, y) = (c.psi.to_amplitudes(), c.phi.to_amplitudes());
            let norm = Complex64::new(x.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt(), 0.0);
            let inner = x.iter().zip(&y).map(|(x, y)| x.conj() * *y).sum();
            Out::State(Statevector::from_amplitudes(vec![norm, inner]))
        },
        Within(1e-12),
    ),
    (
        "probabilities ≡ |amplitude|²",
        |c| Out::Values(c.psi.probabilities()),
        |c| Out::Values(c.psi.to_amplitudes().iter().map(|z| z.norm_sqr()).collect()),
        Within(1e-15),
    ),
    (
        "string expectations ≡ naive",
        |c| {
            let terms = c.op.terms().iter();
            let fast = terms.map(|t| PauliOp::string_expectation(&t.string, &c.psi));
            Out::Values(fast.collect())
        },
        |c| Out::Values(naive_string_values(c)),
        Within(1e-12),
    ),
    (
        "term expectations ≡ naive",
        |c| Out::Values(c.op.term_expectations(&c.psi)),
        |c| Out::Values(naive_string_values(c)),
        Within(1e-12),
    ),
    (
        "expectation ≡ naive sum",
        |c| Out::Values(vec![c.op.expectation(&c.psi)]),
        |c| {
            let terms = c.op.terms().iter().zip(naive_string_values(c));
            Out::Values(vec![terms.map(|(t, v)| t.coefficient * v).sum()])
        },
        Within(1e-10),
    ),
];

/// 55 cases: 18 at 6 qubits, 18 at 7, 13 sweeping 1–13 and 6 at 14, alternately on
/// [`dense_state`] and on random normalized states.
pub fn operators(names: &[&str]) {
    static CASES: OnceLock<Cases<OperatorCase>> = OnceLock::new();
    let cases = CASES.get_or_init(|| {
        let cases: Cases<_> = (0..55u64)
            .map(|k| {
                let n = match k {
                    0..=35 => 6 + k as usize % 2,
                    36..=48 => k as usize - 35,
                    _ => 14,
                };
                operator_case(3000 + k, n)
            })
            .collect();
        let mut tally = Tally::default();
        for (_, c) in &cases {
            tally.add(format!("{} qubits", c.psi.num_qubits()));
            let strings = c.op.terms().iter().map(|t| &t.string);
            for s in strings.chain(c.rotations.iter().map(|(s, _)| s)) {
                tally.add(match s.x_mask() {
                    0 if s.is_identity() => "identity string",
                    0 => "diagonal string",
                    1..=3 => "pivot < 2 string",
                    _ => "general string",
                });
            }
        }
        for n in 1..=14 {
            tally.require(&format!("{n} qubits"), 1);
        }
        tally.require("6 qubits", 18);
        tally.require("7 qubits", 18);
        tally.require("14 qubits", 6);
        for shape in ["identity", "diagonal", "pivot < 2", "general"] {
            tally.require(&format!("{shape} string"), 1);
        }
        cases
    });
    check(cases, OPERATOR_PAIRS, names);
}

// ---- Single-qubit gates -------------------------------------------------------------------

/// A state, a qubit and a 2×2 matrix.
pub struct GateCase {
    psi: Statevector,
    qubit: usize,
    matrix: qsim::Matrix2,
}

/// The single-qubit bodies `qsim` ran on qubits 0–3 before they got full-width ones: the
/// generic walk over `(2·bit)`-blocks, and for qubits 0 and 1 of a register of at least
/// one 4-lane chunk a per-chunk body whose lanes read their pair's inputs by index.
fn former_single_qubit(c: &GateCase) -> Out {
    const LANES: usize = qop::lanes::LANES;
    let bit = 1usize << c.qubit;
    if bit >= LANES || c.psi.dim() < LANES {
        return generic_single_qubit(c);
    }
    let mut psi = c.psi.clone();
    let [m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i] = lane_matrix(&c.matrix);
    let (re, im) = psi.lanes_mut();
    // Lane j is side `j & bit` of the pair (j & !bit, j | bit): row 0 or row 1 of m.
    let row = |lo: f64, hi: f64| -> [f64; LANES] {
        std::array::from_fn(|j| if j & bit == 0 { lo } else { hi })
    };
    let (ar, ai) = (row(m00r, m10r), row(m00i, m10i));
    let (br, bi) = (row(m01r, m11r), row(m01i, m11i));
    for (rc, ic) in re.chunks_exact_mut(LANES).zip(im.chunks_exact_mut(LANES)) {
        let (mut nr, mut ni) = ([0.0; LANES], [0.0; LANES]);
        for j in 0..LANES {
            let (x0, y0) = (rc[j & !bit], ic[j & !bit]);
            let (x1, y1) = (rc[j | bit], ic[j | bit]);
            nr[j] = (ar[j] * x0 - ai[j] * y0) + (br[j] * x1 - bi[j] * y1);
            ni[j] = (ar[j] * y0 + ai[j] * x0) + (br[j] * y1 + bi[j] * x1);
        }
        rc.copy_from_slice(&nr);
        ic.copy_from_slice(&ni);
    }
    Out::State(psi)
}

/// `m` as `[m00, m01, m10, m11]`, each (re, im).
fn lane_matrix(m: &qsim::Matrix2) -> [f64; 8] {
    [
        m[0][0].re, m[0][0].im, m[0][1].re, m[0][1].im, m[1][0].re, m[1][0].im, m[1][1].re,
        m[1][1].im,
    ]
}

/// The generic single-qubit body, one scalar pair at a time over `(2·bit)`-blocks:
/// every one of the matrix's eight products, `0·v` terms included.
fn generic_single_qubit(c: &GateCase) -> Out {
    let mut psi = c.psi.clone();
    let [m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i] = lane_matrix(&c.matrix);
    let bit = 1usize << c.qubit;
    let (re, im) = psi.lanes_mut();
    for (rb, ib) in re
        .chunks_exact_mut(2 * bit)
        .zip(im.chunks_exact_mut(2 * bit))
    {
        let (r_lo, r_hi) = rb.split_at_mut(bit);
        let (i_lo, i_hi) = ib.split_at_mut(bit);
        for j in 0..bit {
            let (x0, y0, x1, y1) = (r_lo[j], i_lo[j], r_hi[j], i_hi[j]);
            r_lo[j] = (m00r * x0 - m00i * y0) + (m01r * x1 - m01i * y1);
            i_lo[j] = (m00r * y0 + m00i * x0) + (m01r * y1 + m01i * x1);
            r_hi[j] = (m10r * x0 - m10i * y0) + (m11r * x1 - m11i * y1);
            i_hi[j] = (m10r * y0 + m10i * x0) + (m11r * y1 + m11i * x1);
        }
    }
    Out::State(psi)
}

/// The rows over [`GateCase`]s.  The structured row holds the Rx-shaped body (a lone Rx
/// or Y), which drops the generic body's `0·v` terms, to that body: the two can differ
/// only in the sign of an exact zero output, and the Rx body hands any four pairs that
/// may hold one to the generic form, so the relation is `Bits` — on zero-rich basis
/// states and at the angles that make entries zero.  H and the lone Ry cases run the
/// generic body on both sides.
pub const GATE_PAIRS: &[Pair<GateCase>] = &[
    (
        "full-width 1q bodies ≡ former bodies",
        apply_single_qubit,
        former_single_qubit,
        Bits,
    ),
    (
        "structured 1q bodies ≡ generic body",
        apply_single_qubit,
        generic_single_qubit,
        Bits,
    ),
];

fn apply_single_qubit(c: &GateCase) -> Out {
    let mut psi = c.psi.clone();
    qsim::apply_single_qubit(&mut psi, c.qubit, &c.matrix);
    Out::State(psi)
}

/// Every qubit below 4 (and the top qubit) of every register from 1 to 14 qubits, each
/// with a fused rotation, Y (exact zeros and a negative entry), H, and a lone Rx and Ry
/// at each of the angles 0, ±π, 2π, π/2 and a random one, on a random state and on a
/// basis state (zero-rich): 2 × 15 × 58 cases.
pub fn single_qubit_gates(names: &[&str]) {
    static CASES: OnceLock<Cases<GateCase>> = OnceLock::new();
    let cases = CASES.get_or_init(|| {
        let c = Complex64::new;
        let h = std::f64::consts::FRAC_1_SQRT_2;
        let y = [[c(0.0, 0.0), c(0.0, -1.0)], [c(0.0, 1.0), c(0.0, 0.0)]];
        let hadamard = [[c(h, 0.0), c(h, 0.0)], [c(h, 0.0), c(-h, 0.0)]];
        let mut cases: Cases<GateCase> = Vec::new();
        let mut gen = Gen::new(8000);
        for n in 1..=14usize {
            let mut qubits: Vec<usize> = (0..n.min(4)).collect();
            if n > 4 {
                qubits.push(n - 1);
            }
            for qubit in qubits {
                let fused = {
                    let rz = qsim::rz_matrix(3.2 * gen.unit());
                    let ry = qsim::ry_matrix(3.2 * gen.unit());
                    let e = |r: usize, k: usize| rz[r][0] * ry[0][k] + rz[r][1] * ry[1][k];
                    [[e(0, 0), e(0, 1)], [e(1, 0), e(1, 1)]]
                };
                let mut matrices = vec![
                    ("fused".to_string(), fused),
                    ("Y".to_string(), y),
                    ("H".to_string(), hadamard),
                ];
                for angle in [0.0, PI, -PI, 2.0 * PI, FRAC_PI_2, 3.2 * gen.unit()] {
                    matrices.push((format!("Rx({angle})"), qsim::rx_matrix(angle)));
                    matrices.push((format!("Ry({angle})"), qsim::ry_matrix(angle)));
                }
                for (kind, matrix) in matrices {
                    let dense = gen.state(n);
                    let basis = Statevector::basis_state(n, gen.below(1 << n));
                    for (start, psi) in [("random", dense), ("basis", basis)] {
                        let label = format!("{kind} on q{qubit} of {n} qubits, {start} state");
                        cases.push((label, GateCase { psi, qubit, matrix }));
                    }
                }
            }
        }
        let mut tally = Tally::default();
        for (label, c) in &cases {
            let (n, q) = (c.psi.num_qubits(), c.qubit);
            let start = if label.ends_with("basis state") {
                "basis"
            } else {
                "random"
            };
            tally.add(format!("q{q} of {n} qubits"));
            let kind = label.split(['(', ' ']).next().expect("a kind");
            tally.add(format!("{kind} on q{q} of {n} qubits from a {start} state"));
            if q + 1 == n {
                tally.add(format!("{kind} on the top qubit from a {start} state"));
            }
        }
        for n in 1..=14 {
            for q in 0..n.min(4) {
                tally.require(&format!("q{q} of {n} qubits"), 30);
                for start in ["random", "basis"] {
                    for kind in ["Rx", "Ry", "H"] {
                        let at_angles = if kind == "H" { 1 } else { 6 };
                        let what = format!("{kind} on q{q} of {n} qubits from a {start} state");
                        tally.require(&what, at_angles);
                    }
                }
            }
        }
        for start in ["random", "basis"] {
            for kind in ["Rx", "Ry", "H"] {
                tally.require(&format!("{kind} on the top qubit from a {start} state"), 14);
            }
        }
        cases
    });
    check(cases, GATE_PAIRS, names);
}

// ---- Request batches --------------------------------------------------------------------

/// A circuit evaluated as batches of `sizes` candidates around `params`.
pub struct BatchCase {
    seed: u64,
    circuit: Circuit,
    params: Vec<f64>,
    sizes: &'static [usize],
    initial: InitialState,
    charged: PauliOp,
    free: Vec<PauliOp>,
    /// The trajectory rows' model and rollouts per request.
    model: PauliNoiseModel,
    trajectories: usize,
}

fn batch_case(seed: u64, n: usize, sizes: &'static [usize], shape: Shape) -> (String, BatchCase) {
    let mut gen = Gen::new(seed);
    let circuit = random_circuit(&mut gen, n, shape);
    let case = BatchCase {
        seed,
        params: (0..NUM_PARAMS).map(|_| 3.2 * gen.unit()).collect(),
        sizes,
        initial: match gen.below(3) {
            0 => InitialState::UniformSuperposition,
            _ => InitialState::Basis(gen.below(1 << n)),
        },
        charged: gen.operator(n, 4),
        free: (0..gen.below(3)).map(|_| gen.operator(n, 2)).collect(),
        model: match gen.below(2) {
            0 => PauliNoiseModel::ibm_like("p", 0.03, 0.08, 0.01, 0.02),
            _ => PauliNoiseModel::depolarizing(0.02, 0.05).with_readout(0.01),
        },
        trajectories: if n == 4 { 5 } else { 3 },
        circuit,
    };
    (format!("seed {seed} ({n} qubits, sizes {sizes:?})"), case)
}

/// Evaluates every candidate — `params` stepped by 0.013 per candidate, batch by batch —
/// through `evaluate_batch`, or through one `evaluate` call each, and returns every
/// request's charged and free values, then the backend's total shots.
fn evaluate(mut backend: impl Backend, c: &BatchCase, batched: bool) -> Out {
    let free: Vec<&PauliOp> = c.free.iter().collect();
    let mut values = Vec::new();
    for &size in c.sizes {
        let candidates: Vec<Vec<f64>> = (0..size)
            .map(|k| c.params.iter().map(|p| p + 0.013 * k as f64).collect())
            .collect();
        let requests = candidates.iter().map(|params| EvalRequest {
            circuit: &c.circuit,
            params,
            initial: &c.initial,
            charged_op: &c.charged,
            free_ops: &free,
            stream: None,
        });
        if batched {
            for result in backend.evaluate_batch(&requests.collect::<Vec<_>>()) {
                values.push(result.charged);
                values.extend(result.free);
            }
        } else {
            for r in requests {
                let (charged, free) =
                    backend.evaluate(r.circuit, r.params, r.initial, r.charged_op, r.free_ops);
                values.push(charged);
                values.extend(free);
            }
        }
    }
    values.push(backend.shots_used() as f64);
    Out::Values(values)
}

fn trajectories(c: &BatchCase) -> NoisyStatevectorBackend {
    NoisyStatevectorBackend::with_policy(c.model.clone(), 16, SeedPolicy::new(23))
        .with_trajectories(c.trajectories)
}

fn sampled(c: &BatchCase, shots: u64) -> SampledBackend {
    SampledBackend::with_policy(shots, SeedPolicy::new(c.seed))
}

/// The rows over [`BatchCase`]s.
pub const BATCH_PAIRS: &[Pair<BatchCase>] = &[
    (
        "exact batch ≡ serial",
        |c| evaluate(StatevectorBackend::with_shots(64), c, true),
        |c| evaluate(StatevectorBackend::with_shots(64), c, false),
        Bits,
    ),
    (
        // The sampled stage draws in request order however it batches.
        "sampled batch ≡ serial",
        |c| evaluate(sampled(c, 128), c, true),
        |c| evaluate(sampled(c, 128), c, false),
        Bits,
    ),
    (
        "trajectory batch ≡ serial",
        |c| evaluate(trajectories(c), c, true),
        |c| evaluate(trajectories(c), c, false),
        Bits,
    ),
    (
        // The prepared states are bit-identical; the trajectory readout accumulates the
        // identity term in another order than the exact one.
        "rate-zero trajectory backend ≡ exact",
        |c| {
            let policy = SeedPolicy::new(11);
            let noisy = NoisyStatevectorBackend::with_policy(zero_rate_model(), 32, policy);
            evaluate(noisy.with_trajectories(3), c, false)
        },
        |c| evaluate(StatevectorBackend::with_shots(32), c, false),
        Within(1e-12),
    ),
    (
        // The sampled estimator and the exact readout both fold from −0.0 in term order.
        "sampled at zero shots ≡ exact",
        |c| evaluate(sampled(c, 0), c, false),
        |c| evaluate(StatevectorBackend::with_shots(0), c, false),
        Bits,
    ),
    (
        // Equal values with a zero's sign free: the stage adds its shot noise,
        // `sampled − op_value` (+0.0 at zero shots), to the attenuated value, and
        // −0.0 + +0.0 is +0.0, so a charged value the exact stage reads as −0.0 reads +0.0
        // here.  Every other value is bit-identical.
        "attenuated at rate zero ≡ exact",
        |c| {
            let model = PauliNoiseModel::depolarizing(0.0, 0.0);
            let attenuated = NoisyBackend::with_policy(model, 0, SeedPolicy::new(c.seed));
            evaluate(attenuated, c, false)
        },
        |c| evaluate(StatevectorBackend::with_shots(0), c, false),
        Within(f64::MIN_POSITIVE),
    ),
];

fn tally_batches(cases: &Cases<BatchCase>) -> Tally {
    let mut tally = Tally::default();
    for (_, c) in cases {
        tally.circuit(&c.circuit);
        tally.add(match c.initial {
            InitialState::Basis(_) => "basis start",
            InitialState::UniformSuperposition => "uniform start",
        });
        if !c.free.is_empty() {
            tally.add("free observables");
        }
    }
    tally.require("basis start", 1);
    tally.require("uniform start", 1);
    tally.require("free observables", 1);
    tally
}

/// 48 circuits, 24 at 5 qubits and 24 at 4, each evaluated as batches of 1 (the
/// degenerate batch), 2 (an SPSA pair) and 17 (past the scratch pool's chunk) requests.
pub fn batches(names: &[&str]) {
    force_parallel_workers();
    static CASES: OnceLock<Cases<BatchCase>> = OnceLock::new();
    let cases = CASES.get_or_init(|| {
        let cases: Cases<_> = (0..48u64)
            .map(|k| {
                batch_case(
                    4000 + k,
                    5 - k as usize % 2,
                    &[1, 2, 17],
                    Shape::Random(6, 20),
                )
            })
            .collect();
        let tally = tally_batches(&cases);
        tally.require_every_gate();
        tally.require("5 qubits", 24);
        tally.require("4 qubits", 24);
        cases
    });
    check(cases, BATCH_PAIRS, names);
}

/// 6 short circuits on 11 qubits, each one batch of 17 candidates: 17 × 2^11 amplitudes
/// crosses the default `qsim::parallel_threshold` of 2^14 while each state stays below
/// it, the regime where threads take whole rollouts.
pub fn parallel_batches(names: &[&str]) {
    force_parallel_workers();
    static CASES: OnceLock<Cases<BatchCase>> = OnceLock::new();
    let cases = CASES.get_or_init(|| {
        let cases: Cases<_> = (0..6u64)
            .map(|k| batch_case(5000 + k, 11, &[17], Shape::Random(2, 8)))
            .collect();
        tally_batches(&cases).require("11 qubits", 6);
        let threshold = qsim::parallel_threshold();
        assert!(
            17 << 11 >= threshold && 1 << 11 < threshold,
            "17 states of 2^11 amplitudes no longer straddle the threshold {threshold}"
        );
        cases
    });
    check(cases, BATCH_PAIRS, names);
}
