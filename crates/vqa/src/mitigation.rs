//! Error-mitigation wrappers over [`Backend`]s.
//!
//! Mitigation is deliberately a *wrapper*, not a backend feature: any execution
//! substrate — the trajectory-noise backend, the analytic noisy backend, even a future
//! real-hardware backend — can opt into zero-noise extrapolation by wrapping itself in
//! [`ZneBackend`], and the TreeVQA controller and baseline runners see an ordinary
//! [`Backend`].

use crate::backend::{
    default_serial_batch, uniform_circuit, Backend, CircuitCache, EvalRequest, EvalResult,
};
use crate::task::InitialState;
use qcircuit::Circuit;
use qnoise::{fold_gates, richardson_extrapolate, DEFAULT_ZNE_SCALES};
use qop::PauliOp;

/// Zero-noise extrapolation over any inner backend.
///
/// Every logical evaluation is executed at each configured gate-folding scale
/// (`g ↦ g·(g†·g)^((c−1)/2)`, [`qnoise::fold_gates`]) and the charged and tracking
/// values are Richardson-extrapolated to the zero-noise limit
/// ([`qnoise::richardson_extrapolate`]).  Shots are charged by the inner backend at
/// every scale — mitigation is not free, which is exactly the trade-off the noisy
/// experiments quantify.
///
/// Batches stay batched: [`ZneBackend::evaluate_batch`] submits one inner batch per
/// scale (each uniform in its folded circuit), so the wrapper rides the inner backend's
/// scratch-pool parallelism.  Note the inner backend therefore consumes its noise
/// streams scale-major within a batch, whereas a serial loop over
/// [`ZneBackend::evaluate`] consumes them request-major: mitigated values are unbiased
/// either way, but draw-level reproducibility holds per call shape (unlike the dense
/// backends, whose batched results are bit-identical to serial).
///
/// Probes pass through **unfolded**: fidelity metrics measure the prepared state, which
/// folding leaves unchanged by construction.
#[derive(Debug)]
pub struct ZneBackend<B: Backend> {
    inner: B,
    scales: Vec<usize>,
    folded: CircuitCache<Vec<Circuit>>,
}

impl<B: Backend> ZneBackend<B> {
    /// Wraps `inner` with the default 1×/3×/5× folding ladder.
    pub fn new(inner: B) -> Self {
        Self::with_scales(inner, DEFAULT_ZNE_SCALES.to_vec())
    }

    /// Wraps `inner` with explicit folding scales, validating them.
    ///
    /// Ladders that fit the compiled-circuit cache capacity minus one (see
    /// [`crate::circuit_cache_capacity`], default 8 → seven scales) stay fully
    /// amortized by the dense backends; longer ladders still compute correctly but
    /// recompile per scale unless the `VQA_COMPILED_CACHE` knob is raised.
    pub fn try_with_scales(inner: B, scales: Vec<usize>) -> Result<Self, MitigationError> {
        if scales.is_empty() {
            return Err(MitigationError("ZNE needs at least one scale"));
        }
        if !scales.iter().all(|s| s % 2 == 1) {
            return Err(MitigationError("gate-folding scales must be odd"));
        }
        if !scales.windows(2).all(|w| w[0] < w[1]) {
            return Err(MitigationError("scales must be strictly increasing"));
        }
        Ok(ZneBackend {
            inner,
            scales,
            folded: CircuitCache::new(2),
        })
    }

    /// Wraps `inner` with explicit (odd, strictly increasing) folding scales.
    ///
    /// # Panics
    ///
    /// Panics if `scales` is empty, contains an even factor, or is not strictly
    /// increasing; use [`ZneBackend::try_with_scales`] to handle that as a
    /// [`MitigationError`] instead.
    pub fn with_scales(inner: B, scales: Vec<usize>) -> Self {
        match Self::try_with_scales(inner, scales) {
            Ok(b) => b,
            Err(e) => panic!("{e}"),
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwraps the inner backend.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// The folding scales in use.
    pub fn scales(&self) -> &[usize] {
        &self.scales
    }

    /// Richardson-extrapolates per-scale results into one mitigated [`EvalResult`]
    /// (borrowed rows: the batch path re-groups by request without cloning).
    fn combine(&self, per_scale: &[&EvalResult]) -> EvalResult {
        let points: Vec<(f64, f64)> = self
            .scales
            .iter()
            .zip(per_scale)
            .map(|(&s, r)| (s as f64, r.charged))
            .collect();
        let charged = richardson_extrapolate(&points);
        let num_free = per_scale[0].free.len();
        let free = (0..num_free)
            .map(|i| {
                let pts: Vec<(f64, f64)> = self
                    .scales
                    .iter()
                    .zip(per_scale)
                    .map(|(&s, r)| (s as f64, r.free[i]))
                    .collect();
                richardson_extrapolate(&pts)
            })
            .collect();
        EvalResult {
            charged,
            free,
            shots: per_scale.iter().map(|r| r.shots).sum(),
        }
    }
}

impl<B: Backend> Backend for ZneBackend<B> {
    fn evaluate(
        &mut self,
        circuit: &Circuit,
        params: &[f64],
        initial: &InitialState,
        charged_op: &PauliOp,
        free_ops: &[&PauliOp],
    ) -> (f64, Vec<f64>) {
        let scales = &self.scales;
        let folded = self.folded.get_or_insert_with(circuit, |c| {
            scales.iter().map(|&s| fold_gates(c, s)).collect()
        });
        let mut per_scale = Vec::with_capacity(folded.len());
        for fc in folded {
            let before = self.inner.shots_used();
            let (charged, free) = self
                .inner
                .evaluate(fc, params, initial, charged_op, free_ops);
            per_scale.push(EvalResult {
                charged,
                free,
                shots: self.inner.shots_used() - before,
            });
        }
        let rows: Vec<&EvalResult> = per_scale.iter().collect();
        let combined = self.combine(&rows);
        (combined.charged, combined.free)
    }

    fn evaluate_batch(&mut self, requests: &[EvalRequest<'_>]) -> Vec<EvalResult> {
        if requests.is_empty() {
            return Vec::new();
        }
        // The hot path (TreeVQA submits one uniform-circuit batch per round) hits the
        // same folded-circuit cache as `evaluate`, so the inner backend sees stable
        // circuit allocations and its own compiled cache keeps hitting.  Mixed-circuit
        // batches fall back to the serial loop, whose per-request `evaluate` calls also
        // go through the cache.
        let Some(circuit) = uniform_circuit(requests) else {
            return default_serial_batch(self, requests);
        };
        let scales = &self.scales;
        let folded = self.folded.get_or_insert_with(circuit, |c| {
            scales.iter().map(|&s| fold_gates(c, s)).collect()
        });
        // One inner batch per scale; each is uniform in its folded circuit.
        let per_scale: Vec<Vec<EvalResult>> = folded
            .iter()
            .map(|fc| {
                let scaled: Vec<EvalRequest<'_>> = requests
                    .iter()
                    .map(|r| EvalRequest { circuit: fc, ..*r })
                    .collect();
                self.inner.evaluate_batch(&scaled)
            })
            .collect();
        (0..requests.len())
            .map(|ri| {
                let row: Vec<&EvalResult> = per_scale.iter().map(|scale| &scale[ri]).collect();
                self.combine(&row)
            })
            .collect()
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
        "zne"
    }

    fn capabilities(&self) -> crate::BackendCaps {
        // Mitigation is transparent: the wrapper batches iff the inner backend batches,
        // and inherits its noise/shot/trajectory/retry character.
        self.inner.capabilities()
    }

    fn recover(&mut self) {
        self.folded.clear();
        self.inner.recover();
    }
}

/// An invalid mitigation configuration (the message names the violated constraint).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MitigationError(pub &'static str);

impl std::fmt::Display for MitigationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid mitigation configuration: {}", self.0)
    }
}

impl std::error::Error for MitigationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoisyStatevectorBackend, StatevectorBackend};
    use qcircuit::{Entanglement, HardwareEfficientAnsatz};
    use qnoise::PauliNoiseModel;
    use qrng::SeedPolicy;

    fn demo() -> (Circuit, Vec<f64>, PauliOp) {
        let circuit = HardwareEfficientAnsatz::new(3, 1, Entanglement::Linear).build();
        let params: Vec<f64> = (0..circuit.num_parameters())
            .map(|i| 0.17 * i as f64)
            .collect();
        let h = PauliOp::from_labels(3, &[("ZZI", -1.0), ("IXX", 0.4)]);
        (circuit, params, h)
    }

    #[test]
    fn zne_over_an_exact_backend_is_exact() {
        // Folding preserves the unitary, so every scale measures the ideal value and the
        // extrapolation returns it (to fp accuracy).
        let (circuit, params, h) = demo();
        let ideal = StatevectorBackend::with_shots(0).evaluate(
            &circuit,
            &params,
            &InitialState::Basis(0),
            &h,
            &[],
        );
        let mut zne = ZneBackend::new(StatevectorBackend::with_shots(10));
        let (mitigated, _) = zne.evaluate(&circuit, &params, &InitialState::Basis(0), &h, &[]);
        assert!((mitigated - ideal.0).abs() < 1e-9);
        // Three scales, each charged.
        assert_eq!(zne.shots_used(), 3 * 10 * h.num_terms() as u64);
        assert_eq!(zne.name(), "zne");
        assert_eq!(zne.scales(), &[1, 3, 5]);
    }

    #[test]
    fn zne_recovers_more_signal_than_the_unmitigated_noisy_backend() {
        let (circuit, params, h) = demo();
        let ideal = StatevectorBackend::with_shots(0)
            .evaluate(&circuit, &params, &InitialState::Basis(0), &h, &[])
            .0;
        let model = PauliNoiseModel::depolarizing(0.004, 0.012);
        let k = 6000;
        let noisy = NoisyStatevectorBackend::with_policy(model.clone(), 0, SeedPolicy::new(11))
            .with_trajectories(k)
            .evaluate(&circuit, &params, &InitialState::Basis(0), &h, &[])
            .0;
        let mitigated = ZneBackend::new(
            NoisyStatevectorBackend::with_policy(model, 0, SeedPolicy::new(11))
                .with_trajectories(k),
        )
        .evaluate(&circuit, &params, &InitialState::Basis(0), &h, &[])
        .0;
        assert!(
            (mitigated - ideal).abs() < (noisy - ideal).abs(),
            "ZNE {mitigated} should beat raw noisy {noisy} against ideal {ideal}"
        );
    }

    #[test]
    fn zne_batch_matches_combined_shape_and_shots() {
        let (circuit, params, h) = demo();
        let requests = [EvalRequest {
            circuit: &circuit,
            params: &params,
            initial: &InitialState::Basis(0),
            charged_op: &h,
            free_ops: &[],
            stream: None,
        }];
        let mut zne = ZneBackend::new(StatevectorBackend::with_shots(7));
        let results = zne.evaluate_batch(&requests);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].shots, 3 * 7 * h.num_terms() as u64);
    }

    #[test]
    #[should_panic]
    fn even_scales_are_rejected() {
        let _ = ZneBackend::with_scales(StatevectorBackend::with_shots(0), vec![1, 2]);
    }
}
