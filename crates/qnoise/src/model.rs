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
use qsim::NoiseSite;

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

    /// [`PauliChannel::attenuation`] averaged over the three non-identity observables:
    /// what the channel does to a term whose axis on the affected qubit is unknown.
    fn mean_attenuation(&self) -> f64 {
        [Pauli::X, Pauli::Y, Pauli::Z]
            .into_iter()
            .map(|observable| self.attenuation(observable))
            .sum::<f64>()
            / 3.0
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

    /// Synthetic calibrations standing in for the paper's five IBM backends (Section 8.7,
    /// Table 2): gate depolarizing plus readout error, no amplitude damping.
    ///
    /// The relative ordering (Cairo/Hanoi better than Kolkata/Auckland/Mumbai) follows the
    /// publicly reported calibration ballpark for those devices; exact numbers are not
    /// reproducible without IBM's historical calibration data.
    pub fn synthetic_backends() -> Vec<PauliNoiseModel> {
        [
            ("hanoi", 2.3e-4, 6.5e-3, 1.4e-2),
            ("cairo", 2.0e-4, 6.0e-3, 1.2e-2),
            ("mumbai", 3.5e-4, 9.0e-3, 2.3e-2),
            ("kolkata", 3.0e-4, 8.5e-3, 1.8e-2),
            ("auckland", 3.2e-4, 8.0e-3, 2.0e-2),
        ]
        .into_iter()
        .map(|(name, p1, p2, readout)| Self::ibm_like(name, p1, p2, 0.0, readout))
        .collect()
    }

    /// Looks up a synthetic backend by (case-insensitive) name.
    pub fn by_name(name: &str) -> Option<PauliNoiseModel> {
        Self::synthetic_backends()
            .into_iter()
            .find(|m| m.name.eq_ignore_ascii_case(name))
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

    /// The mean-field attenuation of this model over a circuit's noise sites: entry `w`
    /// is the factor the expectation of a weight-`w` Pauli term is multiplied by
    /// (`num_qubits + 1` entries, entry 0 is exactly 1).
    ///
    /// This is the *analytic* readout of the model — deterministic and free of state-sized
    /// work — where a [`crate::TrajectorySampler`] over the same `sites` is the
    /// stochastic one.  A trajectory knows which qubits an error hit and how it
    /// propagates; the mean field does not, so it spreads every gate's damage evenly over
    /// the register: a gate on `k` of the `n` qubits meets a weight-`w` term with
    /// exponent `k·w/n`, and its base is the channel's own closed form — the X/Y/Z mean
    /// of [`PauliChannel::attenuation`] for each channel on the gate's qubits,
    /// [`uniform_depolarizing_attenuation`] over an entangling gate's qubit set (a factor
    /// that would be negative is clamped to 0).  Readout error needs no heuristic: it is
    /// [`readout_attenuation`], exactly.  With `n = 1` nothing is spread and gate
    /// depolarizing is exact too.
    ///
    /// # Panics
    ///
    /// Panics if any channel strength is outside `[0, 1]`.
    pub fn mean_field_attenuation(&self, sites: &[NoiseSite], num_qubits: usize) -> Vec<f64> {
        assert!(
            (0.0..=1.0).contains(&self.two_qubit_depolarizing),
            "two-qubit depolarizing strength outside [0, 1]"
        );
        let mean = |channels: &[PauliChannel]| -> f64 {
            channels
                .iter()
                .map(PauliChannel::mean_attenuation)
                .product()
        };
        let (single, local) = (mean(&self.single_qubit), mean(&self.two_qubit_local));
        // ln of the factor a term covering the whole register would see, per unit of
        // `w/n`: summed in logs so deep circuits cannot underflow the product.
        let ln_gates: f64 = sites
            .iter()
            .map(|site| {
                let k = site.qubits.len();
                let factor = if site.entangling {
                    uniform_depolarizing_attenuation(self.two_qubit_depolarizing, k as u32) * local
                } else {
                    single
                };
                k as f64 * factor.max(0.0).ln()
            })
            .sum();
        let per_unit_weight = ln_gates / num_qubits as f64;
        let mut table = vec![1.0; num_qubits + 1];
        for (w, entry) in table.iter_mut().enumerate().skip(1) {
            *entry = (per_unit_weight * w as f64).exp()
                * readout_attenuation(self.readout_flip, w as u32);
        }
        table
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

    #[test]
    fn synthetic_backend_roster_matches_table2() {
        let names: Vec<String> = PauliNoiseModel::synthetic_backends()
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names, ["hanoi", "cairo", "mumbai", "kolkata", "auckland"]);
        assert!(PauliNoiseModel::by_name("HANOI").is_some());
        assert!(PauliNoiseModel::by_name("unknown").is_none());
    }

    /// `single` one-qubit sites followed by `entangling` two-qubit ones.
    fn sites(single: usize, entangling: usize) -> Vec<NoiseSite> {
        let site = |qubits: &[usize]| NoiseSite {
            op_index: 0,
            qubits: qubits.to_vec(),
            entangling: qubits.len() > 1,
        };
        let mut sites = vec![site(&[0]); single];
        sites.resize(single + entangling, site(&[0, 1]));
        sites
    }

    #[test]
    fn noiseless_mean_field_is_all_ones() {
        let table = PauliNoiseModel::noiseless().mean_field_attenuation(&sites(100, 40), 4);
        assert_eq!(table, [1.0; 5]);
    }

    #[test]
    fn mean_field_decreases_with_weight_and_gate_count() {
        let model = PauliNoiseModel::by_name("mumbai").unwrap();
        let small = model.mean_field_attenuation(&sites(10, 4), 4);
        let big = model.mean_field_attenuation(&sites(100, 40), 4);
        assert_eq!((small[0], big[0]), (1.0, 1.0));
        for w in 1..=4 {
            assert!(small[w] < small[w - 1] && big[w] < big[w - 1]);
            assert!(0.0 < big[w] && big[w] < small[w]);
        }
    }

    #[test]
    fn mean_field_uses_each_channels_closed_form() {
        // Readout only: exact, whatever the circuit.
        let r = 0.03;
        let table = PauliNoiseModel::noiseless()
            .with_readout(r)
            .mean_field_attenuation(&sites(7, 3), 3);
        for w in 0..=3u32 {
            assert_eq!(table[w as usize], readout_attenuation(r, w));
        }
        // Gates only, a weight-2 term on 2 of 4 qubits: every gate at exponent k·w/n.
        let (p1, p2, gamma) = (0.01, 0.05, 0.02);
        let model = PauliNoiseModel::ibm_like("x", p1, p2, gamma, 0.0);
        let damping = PauliChannel::AmplitudeDampingTwirled(gamma);
        let twirled = [Pauli::X, Pauli::Y, Pauli::Z].map(|o| damping.attenuation(o));
        let twirled = twirled.iter().sum::<f64>() / 3.0;
        let single = (1.0 - 4.0 * p1 / 3.0) * twirled;
        let entangling = (1.0 - 16.0 * p2 / 15.0) * twirled;
        let expected = single.powf(6.0 * 2.0 / 4.0) * entangling.powf(3.0 * 2.0 * 2.0 / 4.0);
        let table = model.mean_field_attenuation(&sites(6, 3), 4);
        assert!((table[2] - expected).abs() < 1e-12);
    }
}
