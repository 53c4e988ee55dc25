//! Unit suite for the leader-based micro-batcher: flush rules, hand-off,
//! FIFO de-interleaving, and panic recovery — pure, no sockets or models.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use lip_serve::batcher::{BatchPolicy, Batcher, InFlight};

type Recorded = Arc<Mutex<Vec<Vec<u32>>>>;

/// A `max_wait` no passing test comes near: a flush that waits it out fails.
const LONG: Duration = Duration::from_secs(10);

/// A runner that records every batch it executes and answers `item * 10`.
fn recording_runner(log: &Recorded) -> impl Fn(Vec<u32>) -> Vec<Result<u32, String>> + Clone {
    let log = Arc::clone(log);
    move |items: Vec<u32>| {
        log.lock().unwrap().push(items.clone());
        items.into_iter().map(|i| Ok(i * 10)).collect()
    }
}

/// A batcher whose leaders wait on the returned in-flight count.
fn counted(policy: BatchPolicy) -> (Arc<Batcher<u32, u32>>, Arc<InFlight>) {
    let in_flight = Arc::new(InFlight::default());
    (Arc::new(Batcher::with_in_flight(policy, Arc::clone(&in_flight))), in_flight)
}

/// Block until `n` items sit in the batcher's queue.
fn wait_queued(batcher: &Batcher<u32, u32>, n: usize) {
    while batcher.queued() < n {
        std::thread::yield_now();
    }
}

#[test]
fn lone_submit_runs_immediately_at_b1() {
    let batcher = Batcher::new(BatchPolicy { max_batch: 8, max_wait: Duration::ZERO });
    let log: Recorded = Arc::default();
    let out = batcher.submit(7u32, recording_runner(&log));
    assert_eq!(out, Ok(70));
    assert_eq!(batcher.batches_run(), 1);
    assert_eq!(*log.lock().unwrap(), vec![vec![7]]);
}

#[test]
fn lone_submit_with_nothing_in_flight_skips_max_wait() {
    let batcher = Batcher::new(BatchPolicy { max_batch: 8, max_wait: LONG });
    let log: Recorded = Arc::default();
    let started = Instant::now();
    assert_eq!(batcher.submit(7u32, recording_runner(&log)), Ok(70));
    let took = started.elapsed();
    assert!(took < Duration::from_millis(100), "a lone submit waited {took:?}");
    assert_eq!(*log.lock().unwrap(), vec![vec![7]]);
}

#[test]
fn in_flight_request_rides_the_same_batch() {
    let (batcher, in_flight) = counted(BatchPolicy { max_batch: 8, max_wait: LONG });
    let log: Recorded = Arc::default();
    let ticket = in_flight.enter();
    let started = Instant::now();
    let leader = {
        let batcher = Arc::clone(&batcher);
        let run = recording_runner(&log);
        std::thread::spawn(move || batcher.submit(1u32, run))
    };
    // the leader holds item 1 while item 2 is still counted in flight
    wait_queued(&batcher, 1);
    assert_eq!(batcher.submit_counted(2u32, ticket, recording_runner(&log)), Ok(20));
    assert_eq!(leader.join().expect("leader"), Ok(10));
    assert!(started.elapsed() < LONG / 10, "the flush waited out max_wait");
    assert_eq!(*log.lock().unwrap(), vec![vec![1, 2]]);
}

#[test]
fn failed_in_flight_request_releases_the_leader() {
    let (batcher, in_flight) = counted(BatchPolicy { max_batch: 8, max_wait: LONG });
    let log: Recorded = Arc::default();
    let ticket = in_flight.enter();
    let leader = {
        let batcher = Arc::clone(&batcher);
        let run = recording_runner(&log);
        std::thread::spawn(move || batcher.submit(1u32, run))
    };
    wait_queued(&batcher, 1);
    // the request it waits for fails before it is queued
    let released = Instant::now();
    drop(ticket);
    assert_eq!(leader.join().expect("leader"), Ok(10));
    assert!(released.elapsed() < LONG / 10, "the leader waited out max_wait");
    assert_eq!(*log.lock().unwrap(), vec![vec![1]]);
}

#[test]
fn max_wait_flushes_a_partial_batch() {
    // an in-flight request that never arrives: only max_wait can flush
    let max_wait = Duration::from_millis(30);
    let (batcher, in_flight) = counted(BatchPolicy { max_batch: 8, max_wait });
    let log: Recorded = Arc::default();
    let _never_queued = in_flight.enter();
    let started = Instant::now();
    assert_eq!(batcher.submit(1u32, recording_runner(&log)), Ok(10));
    assert!(started.elapsed() >= max_wait, "flushed before max_wait");
    assert_eq!(*log.lock().unwrap(), vec![vec![1]]);
}

#[test]
fn leader_hands_off_instead_of_running_the_next_batch() {
    let batcher = Arc::new(Batcher::new(BatchPolicy {
        max_batch: 8,
        max_wait: Duration::from_millis(50),
    }));
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (back_tx, back_rx) = mpsc::channel::<()>();
    let gates = Arc::new(Mutex::new((started_tx, release_rx, back_rx)));
    let slow_done: Arc<Mutex<Option<Instant>>> = Arc::default();
    let run = {
        let slow_done = Arc::clone(&slow_done);
        move |items: Vec<u32>| -> Vec<Result<u32, String>> {
            let gates = gates.lock().unwrap();
            if items == [1] {
                // the first batch: hold it until item 2 queues behind it
                gates.0.send(()).unwrap();
                gates.1.recv().unwrap();
            } else {
                // the batch behind it: runs until the first submitter is
                // back (or 5 s, when the first submitter is running it)
                let _ = gates.2.recv_timeout(Duration::from_secs(5));
                *slow_done.lock().unwrap() = Some(Instant::now());
            }
            items.into_iter().map(|x| Ok(x * 10)).collect()
        }
    };
    let spawn = |item: u32| {
        let batcher = Arc::clone(&batcher);
        let run = run.clone();
        std::thread::spawn(move || (batcher.submit(item, run), Instant::now()))
    };
    let first = spawn(1);
    started_rx.recv().unwrap();
    let second = spawn(2);
    wait_queued(&batcher, 1);
    release_tx.send(()).unwrap();

    let (out, back) = first.join().expect("first submitter");
    let _ = back_tx.send(());
    assert_eq!(out, Ok(10));
    assert_eq!(second.join().expect("second submitter").0, Ok(20));
    let slow_done = slow_done.lock().unwrap().expect("second batch ran");
    assert!(back < slow_done, "the leader's submit waited for a batch it was not part of");
    assert_eq!(batcher.batches_run(), 2);
}

#[test]
fn results_deinterleave_to_their_submitters() {
    let batcher = Arc::new(Batcher::new(BatchPolicy {
        max_batch: 8,
        max_wait: Duration::from_millis(100),
    }));
    let log: Recorded = Arc::default();
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8u32)
        .map(|i| {
            let batcher = Arc::clone(&batcher);
            let log = Arc::clone(&log);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let out = batcher.submit(i, |items: Vec<u32>| {
                    log.lock().unwrap().push(items.clone());
                    items.into_iter().map(|x| Ok(x * 10)).collect()
                });
                assert_eq!(out, Ok(i * 10), "submitter {i} got someone else's result");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("submitter");
    }
    // every item ran exactly once, whatever the batch split was
    let mut seen: Vec<u32> = log.lock().unwrap().iter().flatten().copied().collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..8).collect::<Vec<_>>());
}

#[test]
fn batches_never_exceed_max_batch() {
    let max_batch = 3usize;
    let batcher = Arc::new(Batcher::new(BatchPolicy {
        max_batch,
        max_wait: Duration::from_millis(40),
    }));
    let log: Recorded = Arc::default();
    let barrier = Arc::new(Barrier::new(10));
    let handles: Vec<_> = (0..10u32)
        .map(|i| {
            let batcher = Arc::clone(&batcher);
            let log = Arc::clone(&log);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                batcher.submit(i, |items: Vec<u32>| {
                    log.lock().unwrap().push(items.clone());
                    // slow runner so followers pile up while the leader works
                    std::thread::sleep(Duration::from_millis(10));
                    items.into_iter().map(|x| Ok(x * 10)).collect()
                })
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().expect("submitter").is_ok());
    }
    let log = log.lock().unwrap();
    assert!(
        log.iter().all(|b| b.len() <= max_batch && !b.is_empty()),
        "batch sizes: {:?}",
        log.iter().map(Vec::len).collect::<Vec<_>>()
    );
    assert_eq!(log.iter().map(Vec::len).sum::<usize>(), 10, "items lost or duplicated");
}

#[test]
fn panicking_runner_fails_the_batch_without_wedging() {
    let batcher = Batcher::new(BatchPolicy { max_batch: 4, max_wait: Duration::ZERO });
    let out = batcher.submit(13u32, |_items: Vec<u32>| -> Vec<Result<u32, String>> {
        panic!("kernel exploded");
    });
    let err = out.expect_err("panicking runner must surface an error");
    assert!(err.contains("panicked"), "error: {err}");
    assert!(err.contains("kernel exploded"), "panic payload lost: {err}");

    // the batcher is still serviceable: leadership was released on unwind
    let out = batcher.submit(2u32, |items: Vec<u32>| {
        items.into_iter().map(|x| Ok(x * 10)).collect()
    });
    assert_eq!(out, Ok(20));
}

#[test]
fn panicking_batch_hands_off_to_the_submitter_behind_it() {
    let batcher = Arc::new(Batcher::new(BatchPolicy { max_batch: 4, max_wait: LONG }));
    let (started_tx, started_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let gates = Arc::new(Mutex::new((started_tx, release_rx)));
    let run = move |items: Vec<u32>| -> Vec<Result<u32, String>> {
        if items == [13] {
            let gates = gates.lock().unwrap();
            gates.0.send(()).unwrap();
            gates.1.recv().unwrap();
            panic!("kernel exploded");
        }
        items.into_iter().map(|x| Ok(x * 10)).collect()
    };
    let spawn = |item: u32| {
        let batcher = Arc::clone(&batcher);
        let run = run.clone();
        std::thread::spawn(move || batcher.submit(item, run))
    };
    let doomed = spawn(13);
    started_rx.recv().unwrap();
    let behind = spawn(2);
    wait_queued(&batcher, 1);
    release_tx.send(()).unwrap();
    let err = doomed.join().expect("doomed submitter").expect_err("panicking batch");
    assert!(err.contains("kernel exploded"), "error: {err}");
    assert_eq!(behind.join().expect("submitter behind"), Ok(20));
}

#[test]
fn wrong_arity_runner_is_a_typed_error() {
    let batcher = Batcher::new(BatchPolicy { max_batch: 4, max_wait: Duration::ZERO });
    let out = batcher.submit(1u32, |_items: Vec<u32>| vec![]);
    let err = out.expect_err("arity mismatch must fail");
    assert!(err.contains("0 results for 1 items"), "error: {err}");
    // and again: still serviceable
    assert_eq!(
        batcher.submit(3u32, |items: Vec<u32>| items.into_iter().map(Ok).collect()),
        Ok(3)
    );
}

#[test]
fn sustained_concurrency_conserves_every_result() {
    // hammer the batcher from many threads in waves; every submission gets
    // exactly its own answer back
    let batcher = Arc::new(Batcher::new(BatchPolicy {
        max_batch: 5,
        max_wait: Duration::from_millis(2),
    }));
    let total = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let batcher = Arc::clone(&batcher);
            let total = Arc::clone(&total);
            std::thread::spawn(move || {
                for i in 0..50u32 {
                    let item = t * 1000 + i;
                    let out = batcher.submit(item, |items: Vec<u32>| {
                        items.into_iter().map(|x| Ok(x ^ 0xABCD)).collect()
                    });
                    assert_eq!(out, Ok(item ^ 0xABCD));
                    total.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("wave thread");
    }
    assert_eq!(total.load(Ordering::Relaxed), 300);
    assert!(batcher.batches_run() <= 300);
}
