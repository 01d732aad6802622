//! Error-mitigation wrappers over [`Backend`]s.
//!
//! Mitigation is deliberately a *wrapper*, not a backend feature: any execution
//! substrate — the trajectory-noise backend, the analytic noisy backend, even a future
//! real-hardware backend — can opt into zero-noise extrapolation by wrapping itself in
//! [`ZneBackend`], and the TreeVQA controller and baseline runners see an ordinary
//! [`Backend`].

use crate::backend::{
    default_serial_batch, same_circuit, Backend, CircuitCache, EvalRequest, EvalResult,
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
/// scratch-pool parallelism.  The scales must see **independent** noise — Richardson
/// coefficients sum to one, so three copies of one noise sample extrapolate to that
/// sample, unmitigated — hence scale `i` of a request with a pinned
/// [`EvalRequest::stream`] runs on `stream.substream(i)`.  Stream-less requests take the
/// inner backend's evaluation-order streams, consumed scale-major within a batch,
/// whereas a serial loop over [`ZneBackend::evaluate`] consumes them request-major:
/// mitigated values are unbiased either way, but draw-level reproducibility of
/// stream-less requests holds per call shape (unlike the dense driver, whose batched
/// results are bit-identical to serial).
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
    /// amortized by the dense driver; longer ladders still compute correctly but
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

    /// The folding scales in use.
    pub fn scales(&self) -> &[usize] {
        &self.scales
    }

    /// Richardson-extrapolates per-scale results into one mitigated [`EvalResult`]
    /// (borrowed rows: the batch path re-groups by request without cloning).
    fn combine(&self, per_scale: &[&EvalResult]) -> EvalResult {
        let extrapolate = |value: &dyn Fn(&EvalResult) -> f64| {
            let scaled = self.scales.iter().zip(per_scale);
            let points: Vec<(f64, f64)> = scaled.map(|(&s, r)| (s as f64, value(r))).collect();
            richardson_extrapolate(&points)
        };
        EvalResult {
            charged: extrapolate(&|r| r.charged),
            free: (0..per_scale[0].free.len())
                .map(|i| extrapolate(&|r| r.free[i]))
                .collect(),
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
        let request = EvalRequest::unpinned(circuit, params, initial, charged_op, free_ops);
        let result = self.evaluate_batch(&[request]).remove(0);
        (result.charged, result.free)
    }

    fn evaluate_batch(&mut self, requests: &[EvalRequest<'_>]) -> Vec<EvalResult> {
        let Some(first) = requests.first() else {
            return Vec::new();
        };
        // The hot path (TreeVQA submits one uniform-circuit batch per round) keeps
        // hitting the folded-circuit cache, so the inner backend sees stable circuit
        // allocations and its own compiled cache keeps hitting.  Mixed-circuit batches
        // fall back to the serial loop, one uniform batch of one per request.
        if !requests.iter().all(|r| same_circuit(r, first)) {
            return default_serial_batch(self, requests);
        }
        let scales = &self.scales;
        let folded = self.folded.get_or_insert_with(first.circuit, |c| {
            scales.iter().map(|&s| fold_gates(c, s)).collect()
        });
        // One inner batch per scale; each is uniform in its folded circuit and draws on
        // its own substream of every pinned stream.
        let per_scale: Vec<Vec<EvalResult>> = (0u64..)
            .zip(folded)
            .map(|(i, fc)| {
                let scaled: Vec<EvalRequest<'_>> = requests
                    .iter()
                    .map(|r| EvalRequest {
                        circuit: fc,
                        stream: r.stream.map(|s| s.substream(i)),
                        ..*r
                    })
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
    use crate::{NoisyStatevectorBackend, SampledBackend, StatevectorBackend};
    use qcircuit::{Entanglement, HardwareEfficientAnsatz};
    use qnoise::PauliNoiseModel;
    use qrng::{SeedPolicy, StreamId};

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
    fn pinned_streams_draw_independent_noise_at_every_scale() {
        // The executor pins one stream per job.  Were every scale to draw on it, the
        // three scales would carry one shot-noise sample and — Richardson coefficients
        // summing to one — extrapolate to exactly that sample.
        let (circuit, params, h) = demo();
        let sampled = || SampledBackend::with_policy(64, SeedPolicy::new(5));
        let request = |job: u64| EvalRequest {
            circuit: &circuit,
            params: &params,
            initial: &InitialState::Basis(0),
            charged_op: &h,
            free_ops: &[],
            stream: Some(StreamId::for_job(job)),
        };
        let charged = |backend: &mut dyn Backend, job: u64| {
            backend.evaluate_batch(&[request(job)]).remove(0).charged
        };
        let single = charged(&mut sampled(), 9);
        let mitigated = charged(&mut ZneBackend::new(sampled()), 9);
        assert!(
            (mitigated - single).abs() > 1e-6,
            "ZNE {mitigated} reproduces the single sample {single}"
        );
        assert_eq!(
            mitigated.to_bits(),
            charged(&mut ZneBackend::new(sampled()), 9).to_bits(),
            "a pinned stream reproduces its draws"
        );
        // Mitigation amplifies shot noise by Σcᵢ² ≈ 5.2 for scales 1/3/5.
        let variance = |backend: &mut dyn Backend| {
            let values: Vec<f64> = (0..200).map(|job| charged(backend, job)).collect();
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64
        };
        let (raw, zne) = (
            variance(&mut sampled()),
            variance(&mut ZneBackend::new(sampled())),
        );
        assert!(zne > 2.5 * raw, "ZNE variance {zne} vs unmitigated {raw}");
    }

    #[test]
    #[should_panic]
    fn even_scales_are_rejected() {
        let _ = ZneBackend::with_scales(StatevectorBackend::with_shots(0), vec![1, 2]);
    }
}
