//! The persistent worker pool and scoped parallel regions.
//!
//! Workers are spawned lazily (up to the largest budget ever requested) and
//! live for the process. A *region* queues one job per helper, each
//! carrying the same `task` closure, and the caller runs `task` too; the
//! closure races over a shared chunk counter, so whichever thread is free
//! takes the next chunk. Once the caller's own pass returns, every chunk has
//! been claimed, so a helper job still in the queue has nothing left to do:
//! the caller takes its jobs back out of the queue and waits only for the
//! helpers that started. No job outlives its region, which is what makes it
//! sound to pass borrowed (non-`'static`) closures to pool threads.
//!
//! Nesting: a region started from inside another region (a tensor kernel
//! called by a parallelized benchmark sweep, or by one shard of a served
//! batch) runs serially on its caller. Pool workers therefore never block
//! on other pool jobs, every submitted job terminates, and the pool cannot
//! deadlock on itself.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// One helper's copy of a region's task. The latch it reports to also
/// tags it with its region, so the region's caller can take it back.
struct Job {
    /// The region's task with its lifetime erased (see `run_region`).
    task: &'static (dyn Fn() + Sync),
    latch: Arc<Latch>,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
}

struct Pool {
    shared: Arc<Shared>,
    /// How many workers have been spawned so far.
    spawned: Mutex<usize>,
}

fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        shared: Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
        }),
        spawned: Mutex::new(0),
    })
}

/// Lock `m`, recovering the guard from poison: no user code runs under the
/// pool's locks and each update under them leaves the data valid, while a
/// region must not unwind when a job it queued could still run.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    /// Grow the pool until at least `n` workers exist.
    fn ensure_workers(&self, n: usize) {
        let mut spawned = lock(&self.spawned);
        while *spawned < n {
            let shared = Arc::clone(&self.shared);
            std::thread::Builder::new()
                .name(format!("lip-par-{spawned}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn lip-par worker");
            *spawned += 1;
        }
    }

    /// Queue `helpers` copies of `task`, each reporting to `latch`.
    fn submit(&self, task: &'static (dyn Fn() + Sync), latch: &Arc<Latch>, helpers: usize) {
        let mut queue = lock(&self.shared.queue);
        queue.extend((0..helpers).map(|_| Job { task, latch: Arc::clone(latch) }));
        drop(queue);
        for _ in 0..helpers {
            self.shared.work_ready.notify_one();
        }
    }

    /// Remove the jobs reporting to `latch` that no worker has taken yet;
    /// returns how many. A job is either taken by a worker or removed here,
    /// never both: both happen under the queue lock.
    fn take_back(&self, latch: &Arc<Latch>) -> usize {
        let mut queue = lock(&self.shared.queue);
        let queued = queue.len();
        queue.retain(|job| !Arc::ptr_eq(&job.latch, latch));
        queued - queue.len()
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared.work_ready.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // the panic payload is dropped here, never unwound across the pool,
        // so the worker stays alive; `job.task` is not touched after this
        let panicked = run_marked(job.task).is_err();
        job.latch.job_done(panicked);
    }
}

/// Completion latch for one region: counts outstanding helper jobs and
/// remembers whether any of them panicked.
struct Latch {
    state: Mutex<(usize, bool)>,
    done: Condvar,
}

impl Latch {
    fn new(outstanding: usize) -> Self {
        Latch {
            state: Mutex::new((outstanding, false)),
            done: Condvar::new(),
        }
    }

    fn job_done(&self, panicked: bool) {
        let mut state = lock(&self.state);
        state.0 -= 1;
        state.1 |= panicked;
        if state.0 == 0 {
            self.done.notify_all();
        }
    }

    /// Count off the `taken_back` jobs that will never run, then block until
    /// every other job finished; returns true if any of them panicked.
    fn wait(&self, taken_back: usize) -> bool {
        let mut state = lock(&self.state);
        state.0 -= taken_back;
        while state.0 > 0 {
            state = self.done.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.1
    }
}

thread_local! {
    /// True while this thread is executing a region's task (caller or
    /// worker). Regions started under it run serially.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Run `task` while marked as inside a region, clearing the mark afterwards
/// even on panic. Returns whether `task` panicked (payload re-raised or
/// recorded by the caller).
fn run_marked(task: &(dyn Fn() + Sync)) -> std::thread::Result<()> {
    struct Clear;
    impl Drop for Clear {
        fn drop(&mut self) {
            IN_REGION.with(|c| c.set(false));
        }
    }
    IN_REGION.with(|c| c.set(true));
    let _clear = Clear;
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(task))
}

/// Execute `task` on the calling thread and on up to `helpers` pool
/// workers, returning once every copy that started has finished. `task`
/// must partition its own work, so that the caller's pass alone completes
/// it (all callers go through [`crate::for_each_chunk`]'s shared chunk
/// counter): a helper that has not started when that pass returns is taken
/// back and never runs.
///
/// Runs `task` once inline instead when `helpers == 0` or when already
/// inside a region (see module docs on nesting).
pub(crate) fn run_region<'env>(helpers: usize, task: &'env (dyn Fn() + Sync + 'env)) {
    if helpers == 0 || IN_REGION.with(Cell::get) {
        task();
        return;
    }

    let pool = pool();
    pool.ensure_workers(helpers);
    let latch = Arc::new(Latch::new(helpers));
    // SAFETY: erasing 'env to 'static is sound because no job outlives
    // this region: each either ran to completion or was removed from the
    // queue unrun. A worker takes a job and `take_back` removes the rest
    // under the same queue lock, so every job is one or the other, and
    // `latch.wait` returns only after each taken job counted itself done,
    // which a worker does after its last use of `task`. Neither
    // `take_back` nor `wait` can panic (their locks ignore poison), and the
    // caller's own panic is caught by `run_marked` until both have run, so
    // the borrows inside `task` outlive every use, even when unwinding.
    let erased = unsafe {
        std::mem::transmute::<&'env (dyn Fn() + Sync + 'env), &'static (dyn Fn() + Sync)>(task)
    };
    pool.submit(erased, &latch, helpers);

    // The caller participates instead of idling; when its pass returns,
    // every chunk is claimed, so it waits only for helpers that started.
    let caller = run_marked(task);
    let helper_panicked = latch.wait(pool.take_back(&latch));
    if let Err(payload) = caller {
        std::panic::resume_unwind(payload);
    }
    if helper_panicked {
        panic!("lip-par: worker panicked inside a parallel region");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    /// Tests that hold pool workers in a blocking task run one at a time:
    /// two at once could each hold workers that the other is waiting for.
    fn exclusive() -> MutexGuard<'static, ()> {
        static EXCLUSIVE: Mutex<()> = Mutex::new(());
        lock(&EXCLUSIVE)
    }

    #[test]
    fn region_runs_task_on_all_participants() {
        let _exclusive = exclusive();
        let entries = AtomicUsize::new(0);
        // no copy returns before all four have entered, so the caller's
        // pass cannot end while a helper job is still queued
        let all_in = Barrier::new(4);
        run_region(3, &|| {
            entries.fetch_add(1, Ordering::SeqCst);
            all_in.wait();
        });
        // caller + 3 helpers
        assert_eq!(entries.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn nested_region_is_serial_inline() {
        let _exclusive = exclusive();
        let inner_entries = AtomicUsize::new(0);
        let outer_entries = AtomicUsize::new(0);
        let all_in = Barrier::new(3);
        run_region(2, &|| {
            outer_entries.fetch_add(1, Ordering::SeqCst);
            all_in.wait();
            run_region(5, &|| {
                inner_entries.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(outer_entries.load(Ordering::SeqCst), 3);
        // each of the 3 outer copies ran the inner task exactly once, inline
        assert_eq!(inner_entries.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn helper_panic_propagates_to_caller() {
        let _exclusive = exclusive();
        let hits = AtomicUsize::new(0);
        let all_in = Barrier::new(3);
        let r = std::panic::catch_unwind(|| {
            run_region(2, &|| {
                // every participant panics; caller must still observe it
                // after all helpers completed
                hits.fetch_add(1, Ordering::SeqCst);
                all_in.wait();
                panic!("kernel bug");
            });
        });
        assert!(r.is_err());
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        // pool still usable afterwards
        let again = AtomicUsize::new(0);
        run_region(2, &|| {
            again.fetch_add(1, Ordering::SeqCst);
            all_in.wait();
        });
        assert_eq!(again.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn region_completes_while_another_holds_every_worker() {
        let _exclusive = exclusive();
        pool().ensure_workers(1);
        let workers = *lock(&pool().spawned);
        // the holding region's caller, each of its helpers, and this thread
        let all_in = Barrier::new(workers + 2);
        let released = (Mutex::new(false), Condvar::new());
        let entries = AtomicUsize::new(0);
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                run_region(workers, &|| {
                    all_in.wait();
                    let mut go = lock(&released.0);
                    while !*go {
                        go = released.1.wait(go).unwrap_or_else(PoisonError::into_inner);
                    }
                });
            });
            all_in.wait();
            // every pool worker is now inside the holding region, so this
            // region's helper job cannot start until that region ends
            let entries = &entries;
            s.spawn(move || {
                run_region(1, &|| {
                    entries.fetch_add(1, Ordering::SeqCst);
                });
                done_tx.send(()).expect("test thread waits");
            });
            let completed = done_rx.recv_timeout(Duration::from_secs(10)).is_ok();
            *lock(&released.0) = true;
            released.1.notify_all();
            assert!(completed, "a region waited for a helper that never started");
        });
        if *lock(&pool().spawned) == workers {
            // no concurrent test grew the pool, so no worker was free
            assert_eq!(entries.load(Ordering::SeqCst), 1, "only the caller ran the task");
        }
    }

    #[test]
    fn borrowed_state_survives_region() {
        let mut owned = vec![0u64; 128];
        let parts: Vec<&mut [u64]> = owned.chunks_mut(32).collect();
        // hand each helper a disjoint borrow through an atomic claim index
        let next = AtomicUsize::new(0);
        let parts = Mutex::new(parts);
        run_region(3, &|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(part) = parts.lock().unwrap().get_mut(i).map(|p| p.as_mut_ptr()) else {
                break;
            };
            // SAFETY: each index claimed once; slices are disjoint.
            unsafe {
                for k in 0..32 {
                    *part.add(k) = (i * 32 + k) as u64;
                }
            }
        });
        for (i, v) in owned.iter().enumerate() {
            assert_eq!(*v, i as u64);
        }
    }
}
