//! Structured execution-service errors.

use std::fmt;

/// Why a job could not be accepted, scheduled, or executed.
///
/// Every malformed-input condition that used to panic deep inside the simulator stack
/// (parameter-count mismatches, operator/register size disagreements, out-of-range basis
/// states, empty circuits) is validated at the submission boundary and reported as a
/// value — either immediately from `submit`, or through the [`crate::JobHandle`] for
/// conditions that arise after queueing (cancellation, shutdown, a panicking driver).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// No backend with this name is registered with the executor.
    UnknownBackend(String),
    /// The selected backend does not advertise a capability the job requires.
    MissingCapability {
        /// The backend that was selected.
        backend: String,
        /// The first required capability it lacks (one of [`CAPABILITY_NAMES`]:
        /// `"batch"`, `"shots"`, `"noise"`, `"trajectories"`, or `"retry_safe"`).
        missing: &'static str,
    },
    /// The job's circuit has no gates.
    EmptyCircuit,
    /// The job's parameter vector does not match the circuit's parameter count.
    ParameterCountMismatch {
        /// Parameters the circuit expects.
        expected: usize,
        /// Parameters the job supplied.
        got: usize,
    },
    /// An observable's register size does not match the circuit's.
    QubitCountMismatch {
        /// Qubits in the circuit's register.
        circuit: usize,
        /// Qubits in the offending operator.
        operator: usize,
    },
    /// A basis-state initial state indexes outside the circuit's register.
    BasisStateOutOfRange {
        /// The requested basis index.
        basis: u64,
        /// Qubits in the circuit's register.
        num_qubits: usize,
    },
    /// The job was cancelled before execution started.
    Cancelled,
    /// The executor shut down before the job executed.
    ShutDown,
    /// The job's deadline passed before it was scheduled: the scheduler drops expired
    /// jobs ahead of slate assembly so a backlog never wastes backend time on work
    /// nobody is still waiting for.
    DeadlineExceeded,
    /// Admission control refused (or load-shedding evicted) the job: a bounded client
    /// or global queue was at capacity under the executor's
    /// [`crate::AdmissionPolicy`].
    Overloaded,
    /// The job targeted a quarantined backend (a driver panic tripped supervision), no
    /// failover was permitted or possible, and the supervisor has not yet readmitted
    /// the backend via a canary probe.
    BackendQuarantined {
        /// The quarantined backend's registry name.
        backend: String,
    },
    /// The backend driver failed while executing the job: it panicked (the payload is
    /// the panic message) or broke the one-result-per-request contract of
    /// `evaluate_batch`.  Validation makes this unreachable for well-formed jobs on the
    /// workspace drivers; it is the safety net that turns any residual driver fault
    /// into a per-job error instead of a crashed service.
    Execution(String),
    /// A parameter is NaN or infinite.  Non-finite parameters poison every amplitude
    /// they touch and can stall iterative optimizers silently, so the service boundary
    /// rejects them outright now that jobs arrive from untrusted network callers.
    NonFiniteParameter {
        /// Index of the first offending entry in the job's parameter vector.
        index: usize,
    },
    /// The circuit's register exceeds the service cap ([`crate::MAX_JOB_QUBITS`]).  A
    /// dense statevector is `2^n` amplitudes; an absurd `n` from a hostile caller must
    /// fail here, not as an allocation the size of the address space.
    RegisterTooLarge {
        /// Qubits in the circuit's register.
        num_qubits: usize,
        /// The service cap the register exceeds.
        max: usize,
    },
    /// The charged observable (or a free tracking observable) has zero Pauli terms.
    /// Its expectation is identically zero — a well-behaved in-process caller never
    /// submits one, so over the network it is treated as malformed input rather than
    /// silently billed work.
    EmptyObservable,
    /// The network transport to a remote executor failed (connection refused, reset,
    /// or closed mid-request; the payload describes the failure).  Local submissions
    /// never produce this — it exists so remote handles resolve with a structured
    /// error instead of a panic when the wire drops.
    Transport(String),
}

/// Capability names as they appear in [`ExecError::MissingCapability::missing`], in
/// wire-code order: [`ExecError::parts`] encodes the missing capability as an index
/// into this table so the `&'static str` survives a network round trip.
pub const CAPABILITY_NAMES: [&str; 5] = ["batch", "shots", "noise", "trajectories", "retry_safe"];

impl ExecError {
    /// The error's stable numeric wire code.
    ///
    /// Codes are part of the network protocol (`qnet` error frames carry them) and of
    /// the observability contract (failed jobs count under an `err<code>_<name>`
    /// label, so a Prometheus scrape and a wire client agree on what failed).  They
    /// are append-only: a new variant takes the next free code, existing codes are
    /// never renumbered.
    pub fn code(&self) -> u16 {
        match self {
            ExecError::UnknownBackend(_) => 1,
            ExecError::MissingCapability { .. } => 2,
            ExecError::EmptyCircuit => 3,
            ExecError::ParameterCountMismatch { .. } => 4,
            ExecError::QubitCountMismatch { .. } => 5,
            ExecError::BasisStateOutOfRange { .. } => 6,
            ExecError::Cancelled => 7,
            ExecError::ShutDown => 8,
            ExecError::DeadlineExceeded => 9,
            ExecError::Overloaded => 10,
            ExecError::BackendQuarantined { .. } => 11,
            ExecError::Execution(_) => 12,
            ExecError::NonFiniteParameter { .. } => 13,
            ExecError::RegisterTooLarge { .. } => 14,
            ExecError::EmptyObservable => 15,
            ExecError::Transport(_) => 16,
        }
    }

    /// The error's stable snake-case label, paired with [`ExecError::code`] in the
    /// qobs `err<code>_<name>` counter labels and in rendered error frames.
    pub fn code_name(&self) -> &'static str {
        match self {
            ExecError::UnknownBackend(_) => "unknown_backend",
            ExecError::MissingCapability { .. } => "missing_capability",
            ExecError::EmptyCircuit => "empty_circuit",
            ExecError::ParameterCountMismatch { .. } => "parameter_count_mismatch",
            ExecError::QubitCountMismatch { .. } => "qubit_count_mismatch",
            ExecError::BasisStateOutOfRange { .. } => "basis_state_out_of_range",
            ExecError::Cancelled => "cancelled",
            ExecError::ShutDown => "shut_down",
            ExecError::DeadlineExceeded => "deadline_exceeded",
            ExecError::Overloaded => "overloaded",
            ExecError::BackendQuarantined { .. } => "backend_quarantined",
            ExecError::Execution(_) => "execution",
            ExecError::NonFiniteParameter { .. } => "non_finite_parameter",
            ExecError::RegisterTooLarge { .. } => "register_too_large",
            ExecError::EmptyObservable => "empty_observable",
            ExecError::Transport(_) => "transport",
        }
    }

    /// Decomposes the error into its wire payload: two numeric auxiliaries and a
    /// string, exactly what [`ExecError::from_code`] needs (together with
    /// [`ExecError::code`]) to rebuild the value on the other side of a connection.
    pub fn parts(&self) -> (u64, u64, String) {
        match self {
            ExecError::UnknownBackend(name) => (0, 0, name.clone()),
            ExecError::MissingCapability { backend, missing } => {
                let idx = CAPABILITY_NAMES
                    .iter()
                    .position(|c| c == missing)
                    .expect("missing capability names come from CAPABILITY_NAMES");
                (idx as u64, 0, backend.clone())
            }
            ExecError::ParameterCountMismatch { expected, got } => {
                (*expected as u64, *got as u64, String::new())
            }
            ExecError::QubitCountMismatch { circuit, operator } => {
                (*circuit as u64, *operator as u64, String::new())
            }
            ExecError::BasisStateOutOfRange { basis, num_qubits } => {
                (*basis, *num_qubits as u64, String::new())
            }
            ExecError::BackendQuarantined { backend } => (0, 0, backend.clone()),
            ExecError::Execution(msg) | ExecError::Transport(msg) => (0, 0, msg.clone()),
            ExecError::NonFiniteParameter { index } => (*index as u64, 0, String::new()),
            ExecError::RegisterTooLarge { num_qubits, max } => {
                (*num_qubits as u64, *max as u64, String::new())
            }
            ExecError::EmptyCircuit
            | ExecError::Cancelled
            | ExecError::ShutDown
            | ExecError::DeadlineExceeded
            | ExecError::Overloaded
            | ExecError::EmptyObservable => (0, 0, String::new()),
        }
    }

    /// Rebuilds an error from its wire code and payload; the exact inverse of
    /// [`ExecError::code`] + [`ExecError::parts`]:
    /// `ExecError::from_code(e.code(), a, b, text) == Some(e)` for `(a, b, text) =
    /// e.parts()`.  Returns `None` for unknown codes or out-of-range payloads (e.g. a
    /// capability index past [`CAPABILITY_NAMES`]), so a newer peer's codes degrade
    /// into an explicit decode failure instead of a mislabeled error.
    pub fn from_code(code: u16, aux0: u64, aux1: u64, text: String) -> Option<ExecError> {
        Some(match code {
            1 => ExecError::UnknownBackend(text),
            2 => ExecError::MissingCapability {
                backend: text,
                missing: CAPABILITY_NAMES.get(aux0 as usize)?,
            },
            3 => ExecError::EmptyCircuit,
            4 => ExecError::ParameterCountMismatch {
                expected: aux0 as usize,
                got: aux1 as usize,
            },
            5 => ExecError::QubitCountMismatch {
                circuit: aux0 as usize,
                operator: aux1 as usize,
            },
            6 => ExecError::BasisStateOutOfRange {
                basis: aux0,
                num_qubits: aux1 as usize,
            },
            7 => ExecError::Cancelled,
            8 => ExecError::ShutDown,
            9 => ExecError::DeadlineExceeded,
            10 => ExecError::Overloaded,
            11 => ExecError::BackendQuarantined { backend: text },
            12 => ExecError::Execution(text),
            13 => ExecError::NonFiniteParameter {
                index: aux0 as usize,
            },
            14 => ExecError::RegisterTooLarge {
                num_qubits: aux0 as usize,
                max: aux1 as usize,
            },
            15 => ExecError::EmptyObservable,
            16 => ExecError::Transport(text),
            _ => return None,
        })
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::UnknownBackend(name) => write!(f, "unknown backend {name:?}"),
            ExecError::MissingCapability { backend, missing } => {
                write!(
                    f,
                    "backend {backend:?} lacks required capability {missing:?}"
                )
            }
            ExecError::EmptyCircuit => write!(f, "the job's circuit has no gates"),
            ExecError::ParameterCountMismatch { expected, got } => write!(
                f,
                "parameter vector length {got} does not match the circuit's {expected} parameters"
            ),
            ExecError::QubitCountMismatch { circuit, operator } => write!(
                f,
                "operator acts on {operator} qubits but the circuit register has {circuit}"
            ),
            ExecError::BasisStateOutOfRange { basis, num_qubits } => write!(
                f,
                "basis state {basis} does not fit a {num_qubits}-qubit register"
            ),
            ExecError::Cancelled => write!(f, "the job was cancelled before execution"),
            ExecError::ShutDown => write!(f, "the executor shut down before the job executed"),
            ExecError::DeadlineExceeded => {
                write!(f, "the job's deadline passed before it was scheduled")
            }
            ExecError::Overloaded => write!(
                f,
                "the executor is overloaded: a bounded queue rejected or shed the job"
            ),
            ExecError::BackendQuarantined { backend } => write!(
                f,
                "backend {backend:?} is quarantined after a driver panic and no failover applied"
            ),
            ExecError::Execution(msg) => write!(f, "the backend driver failed: {msg}"),
            ExecError::NonFiniteParameter { index } => {
                write!(f, "parameter {index} is NaN or infinite")
            }
            ExecError::RegisterTooLarge { num_qubits, max } => write!(
                f,
                "a {num_qubits}-qubit register exceeds the service cap of {max} qubits"
            ),
            ExecError::EmptyObservable => {
                write!(f, "an observable has zero Pauli terms")
            }
            ExecError::Transport(msg) => {
                write!(f, "transport to the remote executor failed: {msg}")
            }
        }
    }
}

impl std::error::Error for ExecError {}
