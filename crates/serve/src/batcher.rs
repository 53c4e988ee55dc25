//! Leaderless, work-conserving micro-batching: concurrent submitters
//! coalesce into one batched run without a dedicated batcher thread.
//!
//! The first submitter to find no active leader becomes the **leader**. It
//! waits only while a partner could still join: it flushes as soon as the
//! queue holds [`BatchPolicy::max_batch`] items or nothing is
//! [`InFlight`] — no request has been read by the server without yet being
//! queued, sent past the batcher, or failed. The [`Ticket`] release that
//! takes the count to zero wakes the leader; nothing polls.
//! [`BatchPolicy::max_wait`] only caps the wait. The leader then drains the
//! oldest `max_batch` items, runs the batch runner **once**, and hands
//! leadership to the oldest queued submitter (or steps down when the queue
//! is empty). Its own item was the oldest queued, so it rode that batch,
//! and its answer never waits on batches it is not part of. Followers
//! enqueue and block on their private channel, which delivers either
//! their result or leadership.
//!
//! Invariants the unit suite pins down:
//!
//! * **FIFO de-interleaving** — results return to submitters in submission
//!   order; a batch of `[a, b, c]` answers `a` with `run(batch)[0]`, …;
//! * **flush rules** — a batch flushes the moment it reaches `max_batch`
//!   (never grows past it) or the in-flight count reaches zero, so a lone
//!   request runs at once at `B = 1`; a request counted in flight is
//!   waited for and rides the same batch, and one that never arrives holds
//!   a partial batch for at most `max_wait`;
//! * **hand-off** — a leader runs exactly one batch, then the oldest queued
//!   submitter leads the next;
//! * **no wedging** — a panicking runner is caught; every submitter in the
//!   batch gets a typed error, leadership is handed on, and the next batch
//!   runs normally.
//!
//! The invariant `leader == false ⇒ queue is empty` holds because enqueue
//! and leader-claim happen in one critical section, and leadership only
//! lapses when the hand-off finds the queue empty.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// When a pending micro-batch flushes.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Flush immediately at this many queued requests (also the cap).
    pub max_batch: usize,
    /// Longest a leader waits for in-flight requests before it flushes a
    /// partial batch.
    pub max_wait: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_batch: 16, max_wait: Duration::from_millis(2) }
    }
}

/// What each submitter gets back.
pub type BatchResult<R> = Result<R, String>;

fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // a poisoned lock means some holder panicked; the state behind every
    // lock here (a count, or a queue and a flag) is valid after each
    // update, so serving beats dying
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Requests read but not yet handed to a batcher, counted across every
/// batcher that shares this value. Leaders wait on it for partners.
#[derive(Default)]
pub struct InFlight {
    count: Mutex<usize>,
    /// Signalled when `count` drops to zero or a batcher's queue fills.
    wake: Condvar,
}

/// One request counted in [`InFlight`]. Dropping it — once the request is
/// queued, sent past the batcher, or failed — releases the count.
#[must_use = "dropping a ticket releases the count at once"]
pub struct Ticket(Arc<InFlight>);

impl InFlight {
    /// Count one more request in flight until the returned ticket drops.
    pub fn enter(self: &Arc<Self>) -> Ticket {
        *relock(&self.count) += 1;
        Ticket(Arc::clone(self))
    }

    /// Wake every waiting leader. Taking the count lock first means a
    /// leader between its checks and its wait cannot miss the signal.
    fn wake(&self) {
        let _count = relock(&self.count);
        self.wake.notify_all();
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let mut count = relock(&self.0.count);
        *count -= 1;
        if *count == 0 {
            self.0.wake.notify_all();
        }
    }
}

/// What a queued submitter receives: its answer, or leadership.
enum Msg<R> {
    Done(BatchResult<R>),
    Lead,
}

struct Inner<T, R> {
    queue: VecDeque<(T, mpsc::Sender<Msg<R>>)>,
    leader: bool,
}

/// A coalescing queue: `submit` blocks until the item's batch has run.
pub struct Batcher<T, R> {
    inner: Mutex<Inner<T, R>>,
    policy: BatchPolicy,
    in_flight: Arc<InFlight>,
    /// Cumulative count of batches executed (for stats and tests).
    batches: AtomicU64,
}

/// Hands leadership on when a leader's batch is done, and also if the
/// leader unwinds, so the queue is never left without a leader.
struct HandOff<'a, T, R>(&'a Batcher<T, R>);

impl<T, R> Drop for HandOff<'_, T, R> {
    fn drop(&mut self) {
        let mut inner = self.0.lock();
        match inner.queue.front() {
            // `leader` stays set: the oldest queued submitter owns it now.
            // Its receiver is alive, since `submit` blocks on it until a
            // result arrives.
            Some((_, next)) => {
                let _ = next.send(Msg::Lead);
            }
            None => inner.leader = false,
        }
    }
}

impl<T, R> Batcher<T, R> {
    /// A new batcher with the given flush policy (`max_batch` is clamped to
    /// at least 1) and an in-flight count of its own, which stays zero: its
    /// leaders flush at once.
    pub fn new(policy: BatchPolicy) -> Self {
        Batcher::with_in_flight(policy, Arc::default())
    }

    /// A new batcher whose leaders wait on a shared in-flight count.
    pub fn with_in_flight(policy: BatchPolicy, in_flight: Arc<InFlight>) -> Self {
        let policy = BatchPolicy { max_batch: policy.max_batch.max(1), ..policy };
        Batcher {
            inner: Mutex::new(Inner { queue: VecDeque::new(), leader: false }),
            policy,
            in_flight,
            batches: AtomicU64::new(0),
        }
    }

    /// Batches executed so far.
    pub fn batches_run(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Items queued and not yet drained into a batch (test hook).
    pub fn queued(&self) -> usize {
        self.lock().queue.len()
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T, R>> {
        relock(&self.inner)
    }

    /// Submit one item and block until its batch has run. `run` maps a
    /// drained batch to one result per item, in order; it only executes on
    /// the thread that happens to lead the batch.
    ///
    /// Returns `Err` when the runner failed (or panicked) for the whole
    /// batch, or when the result channel was severed.
    pub fn submit(&self, item: T, run: impl Fn(Vec<T>) -> Vec<BatchResult<R>>) -> BatchResult<R> {
        self.enqueue(item, None, run)
    }

    /// [`Batcher::submit`] for a request counted in flight: `ticket` is
    /// released once the item is queued.
    pub fn submit_counted(
        &self,
        item: T,
        ticket: Ticket,
        run: impl Fn(Vec<T>) -> Vec<BatchResult<R>>,
    ) -> BatchResult<R> {
        self.enqueue(item, Some(ticket), run)
    }

    fn enqueue(
        &self,
        item: T,
        ticket: Option<Ticket>,
        run: impl Fn(Vec<T>) -> Vec<BatchResult<R>>,
    ) -> BatchResult<R> {
        let (tx, rx) = mpsc::channel();
        let (lead, full) = {
            let mut inner = self.lock();
            inner.queue.push_back((item, tx));
            let lead = !inner.leader;
            inner.leader = true;
            (lead, inner.queue.len() >= self.policy.max_batch)
        };
        drop(ticket);
        if full {
            self.in_flight.wake();
        }
        if lead {
            self.lead(&run);
        }
        loop {
            match rx.recv() {
                Ok(Msg::Done(result)) => return result,
                Ok(Msg::Lead) => self.lead(&run),
                Err(_) => return Err("batch runner dropped the response channel".into()),
            }
        }
    }

    /// Lead one batch: wait for partners, run the oldest `max_batch` items
    /// (the leader's own among them), then hand leadership on.
    fn lead(&self, run: &impl Fn(Vec<T>) -> Vec<BatchResult<R>>) {
        let _hand_off = HandOff(self);
        self.wait_for_partners();
        let batch = {
            let mut inner = self.lock();
            let n = inner.queue.len().min(self.policy.max_batch);
            inner.queue.drain(..n).collect()
        };
        self.run_batch(batch, run);
    }

    /// Block while requests are in flight and the queue is not full, for at
    /// most `max_wait`.
    fn wait_for_partners(&self) {
        let started = Instant::now();
        let mut count = relock(&self.in_flight.count);
        while *count > 0 && self.lock().queue.len() < self.policy.max_batch {
            let left = self.policy.max_wait.saturating_sub(started.elapsed());
            if left.is_zero() {
                return;
            }
            count = self
                .in_flight
                .wake
                .wait_timeout(count, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    fn run_batch(
        &self,
        batch: Vec<(T, mpsc::Sender<Msg<R>>)>,
        run: &impl Fn(Vec<T>) -> Vec<BatchResult<R>>,
    ) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        let (items, senders): (Vec<T>, Vec<mpsc::Sender<Msg<R>>>) = batch.into_iter().unzip();
        let n = items.len();
        let fail_all = |msg: String| {
            for s in &senders {
                let _ = s.send(Msg::Done(Err(msg.clone())));
            }
        };
        match catch_unwind(AssertUnwindSafe(|| run(items))) {
            Ok(results) if results.len() == n => {
                for (s, r) in senders.iter().zip(results) {
                    let _ = s.send(Msg::Done(r));
                }
            }
            Ok(results) => {
                fail_all(format!("batch runner returned {} results for {n} items", results.len()))
            }
            Err(payload) => {
                let what = payload
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| payload.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic>");
                fail_all(format!("batch runner panicked: {what}"));
            }
        }
    }
}
