//! Per-gate Pauli error channels and the device-level noise model.
//!
//! Every channel here is a *Pauli channel*: with some probability an error drawn from
//! `{X, Y, Z}` (or a multi-qubit Pauli pattern) is applied after a gate.  Pauli channels
//! are exactly the class that stochastic statevector trajectories simulate without bias:
//! averaging trajectory expectations over the insertion distribution reproduces the
//! density-matrix channel exactly, and each channel's effect on a Pauli observable is a
//! closed-form attenuation factor (used by the convergence tests and documented per
//! channel below).

use qop::Pauli;

/// One elementary single-qubit Pauli error channel attached to a gate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PauliChannel {
    /// Depolarizing channel of strength `p`: each of `X`, `Y`, `Z` with probability
    /// `p/3`.  Attenuates every non-identity Pauli observable by `1 − 4p/3`.
    Depolarizing(f64),
    /// Pure dephasing of strength `p`: `Z` with probability `p`.  Attenuates `X`/`Y`
    /// observables by `1 − 2p` and leaves `Z` untouched.
    Dephasing(f64),
    /// Pauli-twirled amplitude damping of strength `γ`: twirling the amplitude-damping
    /// channel (Kraus `K₀ = diag(1, √(1−γ))`, `K₁ = √γ·|0⟩⟨1|`) over the Pauli group
    /// yields `pX = pY = γ/4`, `pZ = (1 − √(1−γ))²/4`.  Attenuates `Z` by `1 − γ` (the
    /// damping part, without the non-Pauli `+γ` bias that twirling removes) and `X`/`Y`
    /// by `(1 + √(1−γ))²/4 + γ/4 − ...` — see [`PauliChannel::attenuation`] for the
    /// closed form actually used.
    AmplitudeDampingTwirled(f64),
}

impl PauliChannel {
    /// The `[pX, pY, pZ]` error probabilities of this channel.
    ///
    /// # Panics
    ///
    /// Panics if the channel strength is outside `[0, 1]`.
    pub fn probabilities(&self) -> [f64; 3] {
        let check = |p: f64| {
            assert!(
                (0.0..=1.0).contains(&p),
                "channel strength {p} outside [0, 1]"
            );
            p
        };
        match *self {
            PauliChannel::Depolarizing(p) => {
                let p = check(p);
                [p / 3.0, p / 3.0, p / 3.0]
            }
            PauliChannel::Dephasing(p) => [0.0, 0.0, check(p)],
            PauliChannel::AmplitudeDampingTwirled(gamma) => {
                let gamma = check(gamma);
                let pz = (1.0 - (1.0 - gamma).sqrt()).powi(2) / 4.0;
                [gamma / 4.0, gamma / 4.0, pz]
            }
        }
    }

    /// Total probability that *some* error fires.
    pub fn error_probability(&self) -> f64 {
        self.probabilities().iter().sum()
    }

    /// The exact factor by which this channel multiplies the expectation of a
    /// non-identity Pauli `observable` on the affected qubit:
    /// `1 − 2 · Σ_{E anticommuting with observable} p_E`.
    ///
    /// # Panics
    ///
    /// Panics if `observable` is the identity (identity expectations are never
    /// attenuated; callers special-case them).
    pub fn attenuation(&self, observable: Pauli) -> f64 {
        assert!(
            observable != Pauli::I,
            "identity observables are not attenuated"
        );
        let probs = self.probabilities();
        let mut anti = 0.0;
        for (error, p) in [Pauli::X, Pauli::Y, Pauli::Z].into_iter().zip(probs) {
            if !error.commutes_with(observable) {
                anti += p;
            }
        }
        1.0 - 2.0 * anti
    }
}

/// The attenuation a `k`-qubit uniform depolarizing channel of strength `p` (probability
/// `p` of a uniformly random non-identity Pauli pattern on the `k` qubits) applies to any
/// Pauli observable that is non-identity on at least one of the `k` qubits:
/// `1 − p · 4^k / (4^k − 1)`.
///
/// (Observables acting as identity on all `k` qubits are untouched.)
pub fn uniform_depolarizing_attenuation(p: f64, k: u32) -> f64 {
    let patterns = (4f64).powi(k as i32);
    1.0 - p * patterns / (patterns - 1.0)
}

/// The factor a readout bit-flip probability `r` per measured qubit applies to a Pauli
/// term of the given weight: `(1 − 2r)^weight`.
///
/// Terms with `X`/`Y` components are measured in rotated bases, so every non-identity
/// position of the term is charged one flip, regardless of axis.
pub fn readout_attenuation(r: f64, weight: u32) -> f64 {
    (1.0 - 2.0 * r).powi(weight as i32)
}

/// A device noise model over per-gate Pauli channels plus readout error.
///
/// Channels are charged per [`qsim::NoiseSite`]: every non-entangling source gate pays
/// each `single_qubit` channel on its qubit; every entangling gate pays the
/// `two_qubit_depolarizing` channel on its full qubit set (uniform over the non-identity
/// Pauli patterns) plus each `two_qubit_local` channel on every touched qubit.  Readout
/// error is not a gate channel: it attenuates measured expectations per term weight at
/// readout time ([`readout_attenuation`]).
#[derive(Clone, Debug, PartialEq)]
pub struct PauliNoiseModel {
    /// Human-readable model name.
    pub name: String,
    /// Channels applied on the qubit of every non-entangling gate.
    pub single_qubit: Vec<PauliChannel>,
    /// Uniform depolarizing strength applied over the qubit set of every entangling
    /// gate (probability of a uniformly random non-identity Pauli pattern).
    pub two_qubit_depolarizing: f64,
    /// Channels applied on *each* qubit touched by an entangling gate.
    pub two_qubit_local: Vec<PauliChannel>,
    /// Readout bit-flip probability per measured qubit.
    pub readout_flip: f64,
}

impl PauliNoiseModel {
    /// A model with every rate zero (trajectories are exactly the ideal execution).
    pub fn noiseless() -> Self {
        PauliNoiseModel {
            name: "noiseless".to_string(),
            single_qubit: Vec::new(),
            two_qubit_depolarizing: 0.0,
            two_qubit_local: Vec::new(),
            readout_flip: 0.0,
        }
    }

    /// Plain gate depolarizing: strength `p1` per single-qubit gate, `p2` per entangling
    /// gate, no readout error.
    pub fn depolarizing(p1: f64, p2: f64) -> Self {
        PauliNoiseModel {
            name: format!("depolarizing-{p1}-{p2}"),
            single_qubit: vec![PauliChannel::Depolarizing(p1)],
            two_qubit_depolarizing: p2,
            two_qubit_local: Vec::new(),
            readout_flip: 0.0,
        }
    }

    /// A superconducting-device-flavoured model: gate depolarizing plus Pauli-twirled
    /// amplitude damping (`gamma` per gate, charged per touched qubit on entangling
    /// gates) and readout error.
    pub fn ibm_like(name: impl Into<String>, p1: f64, p2: f64, gamma: f64, readout: f64) -> Self {
        PauliNoiseModel {
            name: name.into(),
            single_qubit: vec![
                PauliChannel::Depolarizing(p1),
                PauliChannel::AmplitudeDampingTwirled(gamma),
            ],
            two_qubit_depolarizing: p2,
            two_qubit_local: vec![PauliChannel::AmplitudeDampingTwirled(gamma)],
            readout_flip: readout,
        }
    }

    /// Adds a channel to the single-qubit gate list (builder style).
    pub fn with_single_qubit_channel(mut self, channel: PauliChannel) -> Self {
        self.single_qubit.push(channel);
        self
    }

    /// Adds a per-touched-qubit channel to the entangling gate list (builder style).
    pub fn with_two_qubit_local(mut self, channel: PauliChannel) -> Self {
        self.two_qubit_local.push(channel);
        self
    }

    /// Sets the readout flip probability (builder style).
    pub fn with_readout(mut self, r: f64) -> Self {
        self.readout_flip = r;
        self
    }

    /// Returns `true` if every gate-channel rate is zero (readout may still be nonzero:
    /// it is applied analytically, not by trajectories).
    pub fn has_gate_noise(&self) -> bool {
        self.single_qubit
            .iter()
            .any(|c| c.error_probability() > 0.0)
            || self.two_qubit_depolarizing > 0.0
            || self
                .two_qubit_local
                .iter()
                .any(|c| c.error_probability() > 0.0)
    }

    /// Returns `true` if the model is a complete no-op (no gate noise and no readout
    /// error).
    pub fn is_noiseless(&self) -> bool {
        !self.has_gate_noise() && self.readout_flip == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depolarizing_attenuation_is_one_minus_four_thirds_p() {
        let ch = PauliChannel::Depolarizing(0.3);
        for obs in [Pauli::X, Pauli::Y, Pauli::Z] {
            assert!((ch.attenuation(obs) - (1.0 - 0.4 * 1.0)).abs() < 1e-15);
        }
    }

    #[test]
    fn dephasing_spares_z() {
        let ch = PauliChannel::Dephasing(0.2);
        assert!((ch.attenuation(Pauli::Z) - 1.0).abs() < 1e-15);
        assert!((ch.attenuation(Pauli::X) - 0.6).abs() < 1e-15);
        assert!((ch.attenuation(Pauli::Y) - 0.6).abs() < 1e-15);
    }

    #[test]
    fn twirled_amplitude_damping_probabilities_sum_and_damp_z_by_gamma() {
        let gamma = 0.37;
        let ch = PauliChannel::AmplitudeDampingTwirled(gamma);
        let [px, py, pz] = ch.probabilities();
        assert!((px - gamma / 4.0).abs() < 1e-15);
        assert!((py - gamma / 4.0).abs() < 1e-15);
        assert!(pz > 0.0 && pz < gamma);
        // ⟨Z⟩ is flipped by X and Y errors only: attenuation 1 − 2(γ/4 + γ/4) = 1 − γ.
        assert!((ch.attenuation(Pauli::Z) - (1.0 - gamma)).abs() < 1e-15);
    }

    #[test]
    fn uniform_depolarizing_matches_hand_count() {
        // For k = 2 and observable ZZ: of the 15 error patterns, 7 commute and 8
        // anticommute, so the factor is (1−p) + p(7−8)/15 = 1 − 16p/15.
        let p = 0.15;
        assert!((uniform_depolarizing_attenuation(p, 2) - (1.0 - 16.0 * p / 15.0)).abs() < 1e-15);
        assert!((uniform_depolarizing_attenuation(p, 1) - (1.0 - 4.0 * p / 3.0)).abs() < 1e-15);
    }

    #[test]
    fn readout_attenuation_per_weight() {
        assert!((readout_attenuation(0.02, 3) - 0.96f64.powi(3)).abs() < 1e-15);
        assert_eq!(readout_attenuation(0.0, 5), 1.0);
    }

    #[test]
    fn noiseless_and_flags() {
        assert!(PauliNoiseModel::noiseless().is_noiseless());
        assert!(!PauliNoiseModel::depolarizing(0.01, 0.05).is_noiseless());
        let readout_only = PauliNoiseModel::noiseless().with_readout(0.01);
        assert!(!readout_only.is_noiseless());
        assert!(!readout_only.has_gate_noise());
        assert!(PauliNoiseModel::ibm_like("x", 1e-4, 1e-3, 1e-3, 1e-2).has_gate_noise());
    }

    #[test]
    #[should_panic]
    fn out_of_range_strength_panics() {
        PauliChannel::Depolarizing(1.5).probabilities();
    }
}
