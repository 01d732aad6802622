//! The parallel-execution policy of the whole stack: this module is the one place that
//! decides to split work across threads.
//!
//! `qop` sits at the bottom of the workspace, so the size threshold that decides when a
//! kernel is worth multi-threading lives here; `qsim` re-exports [`parallel_threshold`]
//! and documents it as the simulation stack's tuning knob.  There are two ways work is
//! split, both selected from the register dimension and one threshold: *within* a state
//! ([`use_parallel`], registers at or above the threshold) and *across* the states of a
//! batch ([`map_states`], registers below it whose batch crosses it).  The two never
//! nest, and nothing above them — batches, slates, the execution service — spawns
//! threads of its own.

use crate::complex::Complex64;
use std::sync::OnceLock;

/// Minimum number of indices a worker thread will take in a parallel kernel.
pub const MIN_PAR_INDICES: usize = 1 << 12;

/// The four powers of `i`, indexed by exponent mod 4 (shared by every phase kernel).
pub const I_POWERS: [Complex64; 4] = [
    Complex64::new(1.0, 0.0),
    Complex64::new(0.0, 1.0),
    Complex64::new(-1.0, 0.0),
    Complex64::new(0.0, -1.0),
];

/// The amount of per-call work (measured in amplitude visits) at which the dense kernels
/// in `qop` and `qsim` switch from serial to multi-threaded execution.
///
/// Defaults to `2^14`; override with the `QSIM_PAR_THRESHOLD` environment variable (a
/// plain count, read once per process; `0` forces every kernel serial).
pub fn parallel_threshold() -> usize {
    static THRESHOLD: OnceLock<usize> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        std::env::var("QSIM_PAR_THRESHOLD")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .unwrap_or(1 << 14)
    })
}

thread_local! {
    /// Set inside [`serial_scope`]: kernels on this thread stay serial regardless of
    /// size (inside [`map_states`], because the batch already owns the threads).
    static FORCE_SERIAL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with every dense kernel on the current thread forced serial, whatever its
/// size.  [`map_states`] wraps each state's work in this, so within-state and
/// across-state parallelism can never nest (nesting would spawn threads² with the
/// vendored scoped-thread rayon); a harness outside the product prices the serial
/// kernels the same way (the end-to-end benchmark's replay does).  Scopes nest, and the
/// pin is released when `f` unwinds.
pub fn serial_scope<T>(f: impl FnOnce() -> T) -> T {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            FORCE_SERIAL.with(|flag| flag.set(self.0));
        }
    }
    let prev = FORCE_SERIAL.with(|flag| flag.replace(true));
    let _reset = Reset(prev);
    f()
}

/// Whether a kernel visiting `work` amplitudes should run in parallel.
#[inline]
pub fn use_parallel(work: usize) -> bool {
    let t = parallel_threshold();
    t != 0 && work >= t && rayon::current_num_threads() > 1 && !FORCE_SERIAL.with(|flag| flag.get())
}

/// Runs `work(i, &mut states[i])` for every element of `states` — independent pieces of
/// state-sized work, each on a register of `dim` amplitudes — and returns the results
/// in index order.
///
/// Registers below [`parallel_threshold`] never parallelize within a state, so when a
/// batch of them together crosses it (`states.len() × dim ≥ threshold > dim`, more than
/// one thread, not inside a [`serial_scope`]) the states are spread over the threads,
/// one state per task, with every kernel `work` reaches pinned serial.  Otherwise this
/// is the serial loop, whose kernels parallelize within each state when the register is
/// large enough.  What `work` computes for a state must not depend on which of the two
/// ran it: every kernel gates on the register dimension alone, so it does not.
pub fn map_states<S, T, F>(states: &mut [S], dim: usize, work: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(usize, &mut S) -> T + Sync,
{
    use rayon::prelude::*;
    // The batch as a whole clears the same gate a single kernel would, while each
    // state on its own stays below the threshold.
    let across_states =
        states.len() >= 2 && dim < parallel_threshold() && use_parallel(states.len() * dim);
    if across_states {
        let base = SendPtr(states.as_mut_ptr());
        (0..states.len())
            .into_par_iter()
            .with_min_len(1)
            .map(|i| {
                serial_scope(|| {
                    // SAFETY: each index i < states.len() is visited by exactly one
                    // task and maps to the distinct element i, which outlives the
                    // parallel region.
                    let state = unsafe { &mut *base.add(i) };
                    work(i, state)
                })
            })
            .collect()
    } else {
        states
            .iter_mut()
            .enumerate()
            .map(|(i, state)| work(i, state))
            .collect()
    }
}

/// Raw pointer wrapper for sharing a mutable amplitude buffer across worker threads.
///
/// Safe only because every parallel kernel partitions the index space disjointly.
pub struct SendPtr<T>(pub *mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

// Manual impls: the derived versions would bound `T: Copy`, but a pointer is copyable
// regardless of its pointee ([`map_states`] shares a pointer to non-`Copy` states).
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// # Safety
    /// `index` must be in bounds and written by at most one thread at a time.
    #[inline(always)]
    pub unsafe fn add(self, index: usize) -> *mut T {
        unsafe { self.0.add(index) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Both tests reconfigure the process-global thread count.
    static THREADS: Mutex<()> = Mutex::new(());

    fn with_four_threads(body: impl FnOnce()) {
        let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let configure = |n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .expect("the vendored pool accepts reconfiguration")
        };
        configure(4);
        body();
        // 0 = back to RAYON_NUM_THREADS / the host's core count.
        configure(0);
    }

    /// The pin wins over any register size at any thread count, scopes nest, and an
    /// unwind through the scope releases it.
    #[test]
    fn serial_scope_pins_nests_and_survives_unwinding() {
        with_four_threads(|| {
            // What an unpinned kernel of any size decides (false only under
            // `QSIM_PAR_THRESHOLD=0`, which forces everything serial anyway).
            let unpinned = parallel_threshold() != 0;
            assert_eq!(use_parallel(usize::MAX), unpinned);
            serial_scope(|| {
                assert!(!use_parallel(usize::MAX));
                serial_scope(|| assert!(!use_parallel(usize::MAX)));
                assert!(
                    !use_parallel(usize::MAX),
                    "leaving an inner scope must restore the outer pin, not clear it"
                );
            });
            assert_eq!(use_parallel(usize::MAX), unpinned);
            let unwound = std::panic::catch_unwind(|| serial_scope(|| panic!("kernel failed")));
            assert!(unwound.is_err());
            assert_eq!(
                use_parallel(usize::MAX),
                unpinned,
                "a panic inside the scope must not leave the thread pinned serial"
            );
        });
    }

    /// On either side of the across-state rule every state is visited once, results come
    /// back in index order, and the work never sees an unpinned kernel gate while the
    /// batch owns the threads.
    #[test]
    fn map_states_visits_each_state_once_in_index_order() {
        with_four_threads(|| {
            let threshold = parallel_threshold();
            let dim = (threshold / 4).max(1);
            for count in [1usize, 3, 4, 9] {
                let across = count >= 2 && dim < threshold && count * dim >= threshold;
                let mut states = vec![0u32; count];
                let seen: Vec<(usize, bool)> = map_states(&mut states, dim, |i, state| {
                    *state += 1;
                    (i, use_parallel(usize::MAX))
                });
                assert!(states.iter().all(|&visits| visits == 1));
                for (i, (index, kernels_parallel)) in seen.into_iter().enumerate() {
                    assert_eq!(index, i);
                    assert_eq!(kernels_parallel, !across && threshold != 0);
                }
            }
        });
    }
}
