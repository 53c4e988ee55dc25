//! # lip-par
//!
//! A zero-dependency scoped threadpool with a **deterministic partitioning
//! contract**, shared by every parallel kernel in the workspace.
//!
//! ## The contract
//!
//! 1. **Partitioning depends only on the problem size.** Work is split into
//!    fixed-size chunks derived from the input's shape (never from the thread
//!    count, load, or timing). The same input always yields the same chunks.
//! 2. **Chunks are pure and disjoint.** A chunk's result is a function of
//!    the chunk index and the inputs alone; output regions never overlap.
//! 3. **Reductions combine per-chunk partials in a fixed tree order**
//!    ([`combine_tree`]): partials are paired `(0,1) (2,3) …` level by level.
//!    Floating-point reductions therefore associate identically no matter
//!    which thread computed which partial.
//!
//! Together these make every kernel built on this crate **bit-identical
//! whether it runs on 1 or 64 threads** — the thread count only decides who
//! executes a chunk, never what is computed. PR 1's byte-level
//! reproducibility guarantees survive parallelism unchanged.
//!
//! ## Thread budget
//!
//! The number of workers a parallel region may use comes from, in order:
//! a scoped [`with_threads`] override (used by the test battery to sweep
//! thread counts in-process), the `LIP_THREADS` environment variable, and
//! finally [`std::thread::available_parallelism`]. The default budget (the
//! last two) is resolved **once per process**, on first use: kernels ask
//! for the budget on every call, and `available_parallelism` re-reads the
//! CPU affinity and cgroup files each time. So a later change to
//! `LIP_THREADS`, the affinity mask or the cgroup quota is not seen.
//! Nested regions run serially on their caller: the pool never deadlocks on
//! itself and oversubscription stays bounded at one level of fan-out.
//!
//! ## Example
//!
//! ```
//! // A deterministic chunked sum: same bits at any thread count.
//! let data: Vec<f32> = (0..100_000).map(|i| (i as f32).sin()).collect();
//! let sum = |threads: usize| {
//!     lip_par::with_threads(threads, || {
//!         lip_par::reduce_chunks(
//!             lip_par::Partition::new(data.len(), lip_par::REDUCE_CHUNK),
//!             |_, r| data[r].iter().sum::<f32>(),
//!             |a, b| a + b,
//!         )
//!         .unwrap_or(0.0)
//!     })
//! };
//! assert_eq!(sum(1).to_bits(), sum(8).to_bits());
//! ```

#![warn(missing_docs)]
// The ONLY crate in the workspace allowed to use `unsafe` (every other crate
// carries `#![forbid(unsafe_code)]`): the five sites below this root are the
// disjoint-window fan-out in `chunk.rs` and the scoped-lifetime erasure in
// `pool.rs`, each with a `// SAFETY:` argument, and each covered by the
// static race checker in `lip-analyze --verify-plan`.
#![deny(unsafe_op_in_unsafe_fn)]

mod chunk;
mod pool;

pub use chunk::{
    combine_tree, for_each_chunk, map_chunks, par_chunks_mut, reduce_chunks, Partition,
};

use std::cell::Cell;
use std::sync::OnceLock;

/// Elements per chunk for elementwise kernels (maps, broadcasts, fused
/// accumulation). ~128 KiB of f32 per chunk: large enough to amortize
/// dispatch, small enough to load-balance.
pub const ELEMWISE_CHUNK: usize = 32 * 1024;

/// Elements per partial for chunked reductions (sum / mean / loss folds).
/// Every full reduction uses this chunking even on one thread, so the
/// combine tree — and therefore the f32 rounding — is fixed by size alone.
pub const REDUCE_CHUNK: usize = 16 * 1024;

/// Multiply–accumulates per matmul chunk; rows are grouped so one chunk is
/// roughly this much work regardless of the operand shapes.
pub const MATMUL_CHUNK_MACS: usize = 1 << 18;

thread_local! {
    /// Scoped [`with_threads`] override for the current thread.
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The process-wide default budget: `LIP_THREADS` when it parses as an
/// integer (`0` counts as 1), else the machine's available parallelism.
/// Resolved on first use; every later call is one atomic load.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        match std::env::var("LIP_THREADS").ok().and_then(|v| v.trim().parse::<usize>().ok()) {
            Some(n) => n.max(1),
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    })
}

/// The thread budget for parallel regions started by this thread:
/// [`with_threads`] override, else `LIP_THREADS`, else the machine's
/// available parallelism. Always at least 1.
///
/// The default (everything but the override) is resolved once per process,
/// so this costs a thread-local check and an atomic load; a later change
/// to the environment, the CPU affinity or the cgroup quota is not seen.
pub fn max_threads() -> usize {
    THREAD_OVERRIDE.with(Cell::get).unwrap_or_else(default_threads)
}

/// Run `f` with the thread budget pinned to `threads` on this thread.
///
/// This is how the test battery sweeps thread counts in one process; the
/// deterministic contract promises `f`'s numeric results do not depend on
/// the value chosen. Restores the previous budget on exit, including on
/// panic (so a failing property case cannot poison later cases).
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "thread budget must be at least 1");
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(Some(threads))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_overrides_and_restores() {
        let outside = max_threads();
        let inside = with_threads(5, max_threads);
        assert_eq!(inside, 5);
        assert_eq!(max_threads(), outside);
        // nesting: innermost override wins, both restore
        with_threads(2, || {
            assert_eq!(max_threads(), 2);
            with_threads(7, || assert_eq!(max_threads(), 7));
            assert_eq!(max_threads(), 2);
        });
    }

    #[test]
    fn with_threads_restores_on_panic() {
        let before = max_threads();
        let r = std::panic::catch_unwind(|| with_threads(3, || panic!("boom")));
        assert!(r.is_err());
        assert_eq!(max_threads(), before);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_budget_rejected() {
        with_threads(0, || ());
    }

    /// Read syscalls made so far by the calling thread (`None` where the
    /// kernel does not expose per-thread I/O accounting).
    fn thread_read_syscalls() -> Option<u64> {
        let io = std::fs::read_to_string("/proc/thread-self/io").ok()?;
        io.lines().find_map(|l| l.strip_prefix("syscr:")).and_then(|v| v.trim().parse().ok())
    }

    #[test]
    fn default_budget_lookup_makes_no_syscalls() {
        // kernels ask for the budget on every call, so after the first
        // lookup it must not touch the affinity or cgroup files again
        max_threads();
        let Some(before) = thread_read_syscalls() else {
            eprintln!("skipped: /proc/thread-self/io is not readable here");
            return;
        };
        for _ in 0..10_000 {
            std::hint::black_box(max_threads());
        }
        let reads = thread_read_syscalls().expect("readable a moment ago") - before;
        assert!(reads < 64, "10,000 budget lookups made {reads} read syscalls");
    }

    #[test]
    fn default_budget_is_process_wide_and_overrides_stay_on_their_thread() {
        let default = max_threads();
        assert_eq!(std::thread::spawn(max_threads).join().unwrap(), default);
        let pinned = default + 3;
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            // a thread spawned under an override starts from the default
            let fresh = with_threads(pinned, || s.spawn(max_threads));
            let helper = s.spawn(|| {
                with_threads(pinned, || {
                    barrier.wait(); // override live on the helper
                    barrier.wait(); // caller has looked
                    max_threads()
                })
            });
            barrier.wait();
            assert_eq!(max_threads(), default, "a helper's override leaked");
            barrier.wait();
            assert_eq!(helper.join().unwrap(), pinned);
            assert_eq!(fresh.join().unwrap(), default);
        });
    }
}
