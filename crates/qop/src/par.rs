//! The parallel-execution policy of the whole stack: this module holds the one place
//! that splits work across threads.
//!
//! Work is split one way: *across* the states of a batch ([`map_states`]).  A thread
//! takes whole pieces of state-sized work — for the `vqa` dense driver a whole rollout,
//! prepare → every op → readout — and runs them through the serial kernels; no kernel in
//! `qop` or `qsim` splits its own index range, so each has one (vectorized) body and a
//! result's bits do not depend on the thread count.  Nothing above this module —
//! batches, slates, the execution service — spawns threads of its own.  `qop` sits at
//! the bottom of the workspace, so the size threshold lives here; `qsim` re-exports
//! [`parallel_threshold`] as the simulation stack's tuning knob.

use std::sync::OnceLock;

/// The number of amplitudes a chunk of states must hold in total
/// (`states.len() × dim`) before [`map_states`] spreads it over the threads; below it a
/// parallel region costs more than it saves.
///
/// Defaults to `2^14`; override with the `QSIM_PAR_THRESHOLD` environment variable (a
/// plain count, read once per process; `0` = never spawn).
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
    /// Set inside [`serial_scope`]: a [`map_states`] on this thread runs its serial
    /// loop regardless of size.
    static FORCE_SERIAL: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with every [`map_states`] on the current thread pinned to its serial loop,
/// whatever its size.  [`map_states`] wraps each state's work in this, so a nested
/// `map_states` can never open a region inside a region (threads² with the vendored
/// scoped-thread rayon); a harness outside the product that must not spawn uses it the
/// same way (the end-to-end benchmark's replay does).  Scopes nest, and the pin is
/// released when `f` unwinds.
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

/// Runs `work(i, &mut states[i])` for every element of `states` — independent pieces of
/// state-sized work, each on a register of `dim` amplitudes — and returns the results
/// in index order.
///
/// With at least two states, `states.len() × dim ≥` [`parallel_threshold`], more than
/// one thread, and no enclosing [`serial_scope`], the states are spread over the
/// threads as **one** parallel region, each thread running whole states one after
/// another; otherwise this is the serial loop on the calling thread.  `work` runs the
/// same serial code either way, so what it computes for a state cannot depend on which
/// of the two ran it, or on the thread count.  A panic in `work` reaches the caller with
/// its original payload in both cases.
pub fn map_states<S, T, F>(states: &mut [S], dim: usize, work: F) -> Vec<T>
where
    S: Send,
    T: Send,
    F: Fn(usize, &mut S) -> T + Sync,
{
    use rayon::prelude::*;
    let threshold = parallel_threshold();
    let across_states = states.len() >= 2
        && threshold != 0
        && states.len().saturating_mul(dim) >= threshold
        && rayon::current_num_threads() > 1
        && !FORCE_SERIAL.with(|flag| flag.get());
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

/// The states' base pointer, shared with the tasks of [`map_states`]' parallel region.
struct SendPtr<T>(*mut T);
// SAFETY: the region hands every index to exactly one task, which dereferences the
// pointer at that index only, so no element is reachable from two threads at once;
// `T: Send` lets that task mutate the element on its own thread.
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// # Safety
    /// `index` must be in bounds and dereferenced by at most one thread at a time.
    // A method on `&self`, not field access: a closure calling it captures the whole
    // (`Sync`) wrapper rather than the raw pointer inside it.
    #[inline(always)]
    unsafe fn add(&self, index: usize) -> *mut T {
        unsafe { self.0.add(index) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, panic_any};
    use std::sync::Mutex;
    use std::thread;

    /// The tests reconfigure the process-global thread count.
    static THREADS: Mutex<()> = Mutex::new(());

    fn with_threads(n: usize, body: impl FnOnce()) {
        let _guard = THREADS.lock().unwrap_or_else(|e| e.into_inner());
        let configure = |n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build_global()
                .expect("the vendored pool accepts reconfiguration")
        };
        configure(n);
        body();
        // 0 = back to RAYON_NUM_THREADS / the host's core count.
        configure(0);
    }

    /// A register so large that any two of them clear every non-zero threshold.
    const HUGE: usize = usize::MAX / 2;

    /// Whether a `map_states` over `count` registers of `dim` amplitudes opened a
    /// region.  A region runs its first piece on the calling thread and every other
    /// piece off it; the serial loop runs every work item on the calling thread.
    fn spawns(count: usize, dim: usize) -> bool {
        let caller = thread::current().id();
        let mut states = vec![(); count];
        let off_thread = map_states(&mut states, dim, |_, _| thread::current().id() != caller);
        assert!(!off_thread[0], "the calling thread runs the first piece");
        off_thread.contains(&true)
    }

    /// The pin wins over any chunk size at any thread count, scopes nest, and an unwind
    /// through the scope releases it.
    #[test]
    fn serial_scope_pins_nests_and_survives_unwinding() {
        with_threads(4, || {
            // What an unpinned chunk of any size does (serial only under
            // `QSIM_PAR_THRESHOLD=0`, which never spawns anyway).
            let unpinned = parallel_threshold() != 0;
            assert_eq!(spawns(2, HUGE), unpinned);
            serial_scope(|| {
                assert!(!spawns(2, HUGE));
                serial_scope(|| assert!(!spawns(2, HUGE)));
                assert!(
                    !spawns(2, HUGE),
                    "leaving an inner scope must restore the outer pin, not clear it"
                );
            });
            assert_eq!(spawns(2, HUGE), unpinned);
            let unwound = catch_unwind(|| serial_scope(|| panic!("kernel failed")));
            assert!(unwound.is_err());
            assert_eq!(
                spawns(2, HUGE),
                unpinned,
                "a panic inside the scope must not leave the thread pinned serial"
            );
        });
    }

    /// The rule — across states whenever `count ≥ 2` and `count × dim ≥ threshold`, for
    /// registers below, at and above the threshold alike — and on either side of it
    /// every state is visited once with results in index order.
    #[test]
    fn map_states_visits_each_state_once_in_index_order() {
        with_threads(4, || {
            let threshold = parallel_threshold();
            for dim in [threshold / 4, threshold, threshold.saturating_mul(4)] {
                let dim = dim.max(1);
                for count in [1usize, 2, 3, 4, 9] {
                    let across = count >= 2 && threshold != 0 && count * dim >= threshold;
                    let caller = thread::current().id();
                    let mut states = vec![0u32; count];
                    let seen: Vec<(usize, bool)> = map_states(&mut states, dim, |i, state| {
                        *state += 1;
                        (i, thread::current().id() != caller)
                    });
                    assert!(states.iter().all(|&visits| visits == 1));
                    for (i, &(index, _)) in seen.iter().enumerate() {
                        assert_eq!(index, i);
                    }
                    // State 0 is in the first piece, which the calling thread runs.
                    assert!(!seen[0].1, "dim {dim}, {count} states");
                    let off_thread = seen.iter().any(|&(_, off)| off);
                    assert_eq!(off_thread, across, "dim {dim}, {count} states");
                }
            }
            // The region owns the threads: a `map_states` inside a work item runs its
            // serial loop, whatever its size.
            let nested = map_states(&mut [(); 3], HUGE, |_, _| spawns(4, HUGE));
            assert_eq!(nested, [false; 3]);
            // One state never spawns, at any threshold.
            assert!(!spawns(1, HUGE));
        });
        // Neither does one thread.
        with_threads(1, || assert!(!spawns(9, HUGE)));
    }

    /// A panic in a work item reaches the caller with the payload the item raised —
    /// message and type — whether or not the chunk was spread over threads.
    #[test]
    fn a_panic_in_a_work_item_keeps_its_payload() {
        #[derive(Debug, PartialEq)]
        struct Fault(u32);
        with_threads(2, || {
            let failing = |raise: fn(usize) -> !| {
                catch_unwind(|| {
                    map_states(&mut [(); 3], HUGE, |i, _| {
                        if i == 1 {
                            raise(i)
                        }
                    })
                })
                .expect_err("work item 1 panics")
            };
            let message = failing(|i| panic!("state {i} failed"));
            assert_eq!(
                message.downcast_ref::<String>().map(String::as_str),
                Some("state 1 failed")
            );
            let typed = failing(|_| panic_any(Fault(7)));
            assert_eq!(typed.downcast_ref::<Fault>(), Some(&Fault(7)));
        });
    }
}
