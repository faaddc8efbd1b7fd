//! A persistent worker pool with panic-isolated jobs.
//!
//! The exchange pipeline used to execute each epoch on a burst of
//! `thread::scope` workers: spawn, shard, join, repeat — one barrier per
//! epoch, and one panicking swap engine aborting the entire exchange
//! through the scope's `join().expect(..)`. [`WorkerPool`] replaces the
//! bursts with **long-lived workers** that outlive any single epoch, so
//! overlapping epochs feed one shared execution tier:
//!
//! * **Queue-on-admit.** Producers [`submit`](WorkerPool::submit) jobs the
//!   moment the work exists (the exchange queues every swap the instant
//!   its epoch enters execution); nothing waits for an epoch barrier.
//! * **One run queue.** Jobs wait in a single FIFO under the pool's one
//!   mutex, and every idle worker takes the next one from its front — so a
//!   skewed batch (one long swap next to many short ones) keeps every
//!   worker busy instead of serializing behind an unlucky queue.
//! * **Wake-ups ride with the work.** A wake-up is the one expensive thing
//!   `submit` can do, and a worker woken next to its submitter competes
//!   with it for the core. So `submit` wakes a sleeping worker only while
//!   no other wake-up is on its way, and a worker that takes a job while
//!   more are queued wakes the next sleeper itself: a burst of jobs costs
//!   its submitter one wake-up, the rest fan out from worker to worker,
//!   and a lone job never wakes more than one.
//! * **Results over a channel.** Every job's return value comes back
//!   through [`recv`](WorkerPool::recv) as a [`Completed`] record carrying
//!   the submitter's tag. Completion order is host-scheduling-dependent;
//!   callers that need determinism re-order by tag (the exchange merges in
//!   swap-id order, which is what keeps `ExchangeReport` byte-invariant
//!   across worker counts).
//! * **Panic isolation.** Each job runs under
//!   [`std::panic::catch_unwind`] *at the worker boundary*: a panicking
//!   job reports [`JobPanic`] through the same channel, the worker thread
//!   survives, and every other job's finished result still arrives. No
//!   result is ever lost to a sibling's panic.
//!
//! The pool is deliberately tag-generic (`K`) and result-generic (`T`): it
//! schedules closures, not swaps, so unit tests can drive it with plain
//! functions and the exchange can ship whole swaps — admission
//! ([`crate::instance::ProvisionedSwap::admit_for_queue`]), run and
//! tear-down — through it.
//!
//! # Example
//!
//! ```
//! use swap_core::pool::WorkerPool;
//!
//! let mut pool: WorkerPool<u32, u32> = WorkerPool::new(2);
//! for n in 0u32..4 {
//!     pool.submit(n, move || n * n);
//! }
//! let mut results: Vec<(u32, u32)> =
//!     (0..4).map(|_| pool.recv()).map(|c| (c.tag, c.result.unwrap())).collect();
//! results.sort(); // completion order is a host-scheduling artifact
//! assert_eq!(results, vec![(0, 0), (1, 1), (2, 4), (3, 9)]);
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work: the submitter's tag plus the closure to run.
type Job<K, T> = (K, Box<dyn FnOnce() -> T + Send + 'static>);

/// One finished job, as delivered by [`WorkerPool::recv`].
#[derive(Debug)]
pub struct Completed<K, T> {
    /// The tag the job was submitted under.
    pub tag: K,
    /// The job's return value, or the panic it was caught unwinding with.
    pub result: Result<T, JobPanic>,
}

/// A job panicked; the worker caught it at the pool boundary and survived.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload, stringified (`&str` and `String` payloads are
    /// carried verbatim; anything else is summarized).
    pub message: String,
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// The run queue and shutdown flag, under the pool's one mutex. Jobs are
/// heavyweight (a full protocol run each), so a single lock is contention-
/// free in practice.
struct State<K, T> {
    queue: VecDeque<Job<K, T>>,
    /// Workers blocked on `work_ready`.
    idle: usize,
    /// Wake-ups issued that no worker has woken to yet.
    waking: usize,
    shutdown: bool,
}

impl<K, T> State<K, T> {
    /// Claims a sleeping worker that no wake-up is on its way to yet, if
    /// there is one; the caller notifies `work_ready` once it has unlocked.
    fn claim_sleeper(&mut self) -> bool {
        let claimed = self.idle > self.waking;
        if claimed {
            self.waking += 1;
        }
        claimed
    }
}

struct Shared<K, T> {
    state: Mutex<State<K, T>>,
    work_ready: Condvar,
    panics: AtomicU64,
}

/// A fixed-size pool of long-lived worker threads with one shared run
/// queue and a single result channel. See the [module docs](self) for the
/// design.
pub struct WorkerPool<K, T> {
    shared: Arc<Shared<K, T>>,
    results: Receiver<Completed<K, T>>,
    handles: Vec<JoinHandle<()>>,
}

impl<K: Send + 'static, T: Send + 'static> WorkerPool<K, T> {
    /// Spawns a pool of `workers` long-lived threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> WorkerPool<K, T> {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                idle: 0,
                waking: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            panics: AtomicU64::new(0),
        });
        let (tx, results) = channel();
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let tx: Sender<Completed<K, T>> = tx.clone();
                std::thread::spawn(move || worker_loop(shared, tx))
            })
            .collect();
        WorkerPool { shared, results, handles }
    }

    /// The number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Queues a job at the back of the run queue. The job's return value
    /// — or its caught panic — comes back from [`recv`](WorkerPool::recv)
    /// tagged with `tag`.
    pub fn submit(&mut self, tag: K, job: impl FnOnce() -> T + Send + 'static) {
        let mut state = self.shared.state.lock().expect("pool state lock");
        state.queue.push_back((tag, Box::new(job)));
        // The submitter pays for at most one wake-up at a time: while one
        // is on its way, the worker it reaches wakes the next sleeper
        // itself if a backlog remains (see `worker_loop`).
        let wake = state.waking == 0 && state.claim_sleeper();
        drop(state);
        if wake {
            self.shared.work_ready.notify_one();
        }
    }

    /// Blocks until the next job finishes (successfully or by panic) and
    /// returns its [`Completed`] record. Callers are responsible for
    /// receiving exactly as many completions as they submitted jobs.
    pub fn recv(&self) -> Completed<K, T> {
        self.results.recv().expect("worker pool threads outlive the queue")
    }

    /// How many jobs panicked (and were isolated) so far.
    pub fn panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }
}

impl<K, T> fmt::Debug for WorkerPool<K, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .field("panics", &self.shared.panics.load(Ordering::Relaxed))
            .finish()
    }
}

impl<K, T> Drop for WorkerPool<K, T> {
    fn drop(&mut self) {
        if let Ok(mut state) = self.shared.state.lock() {
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            // A worker never panics (jobs are caught), so join cannot fail
            // in practice; swallow the error rather than double-panic in
            // Drop if it somehow does.
            let _ = handle.join();
        }
    }
}

/// One worker: take jobs from the front of the run queue, sleep on the
/// condvar when it is empty, exit on shutdown.
fn worker_loop<K: Send, T: Send>(shared: Arc<Shared<K, T>>, results: Sender<Completed<K, T>>) {
    loop {
        let (job, wake_sibling) = {
            let mut state = shared.state.lock().expect("pool state lock");
            let job = loop {
                if let Some(job) = state.queue.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state.idle += 1;
                state = shared.work_ready.wait(state).expect("pool state lock");
                state.idle -= 1;
                // One notify can release two waiters (or this one woke on
                // its own), so `waking` may already be spent: it only ever
                // errs low, towards a wake-up too many.
                state.waking = state.waking.saturating_sub(1);
            };
            let backlog = !state.queue.is_empty();
            (job, backlog && state.claim_sleeper())
        };
        if wake_sibling {
            shared.work_ready.notify_one();
        }
        let Some((tag, run)) = job else { return };
        let result = catch_unwind(AssertUnwindSafe(run)).map_err(|payload| {
            shared.panics.fetch_add(1, Ordering::Relaxed);
            JobPanic { message: panic_message(payload.as_ref()) }
        });
        if results.send(Completed { tag, result }).is_err() {
            // The pool (and its receiver) is gone; nothing left to report
            // to, so the worker retires.
            return;
        }
    }
}

/// Stringifies a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn results_come_back_tagged() {
        let mut pool: WorkerPool<usize, usize> = WorkerPool::new(3);
        for n in 0..16 {
            pool.submit(n, move || n + 100);
        }
        let mut seen: Vec<(usize, usize)> =
            (0..16).map(|_| pool.recv()).map(|c| (c.tag, c.result.unwrap())).collect();
        seen.sort();
        assert_eq!(seen, (0..16).map(|n| (n, n + 100)).collect::<Vec<_>>());
    }

    #[test]
    fn an_idle_worker_takes_the_next_queued_job() {
        // Two workers, three jobs. A blocks until C runs — so the test only
        // completes if the worker that finishes B takes C while the other
        // is still inside A. A job stuck behind A deadlocks (and the test
        // harness times out).
        let mut pool: WorkerPool<&'static str, ()> = WorkerPool::new(2);
        let (unblock_tx, unblock_rx) = mpsc::channel::<()>();
        pool.submit("a", move || {
            unblock_rx.recv().expect("c runs and signals");
        });
        pool.submit("b", || {});
        pool.submit("c", move || {
            unblock_tx.send(()).expect("a is waiting");
        });
        let mut tags: Vec<&str> = (0..3).map(|_| pool.recv().tag).collect();
        tags.sort();
        assert_eq!(tags, ["a", "b", "c"]);
    }

    #[test]
    fn a_backlog_wakes_every_sleeping_worker() {
        // Three jobs that each wait for the other two: the test only
        // completes if all three workers end up running at once — the
        // submitter wakes one, and the wake-ups fan out from there.
        let mut pool: WorkerPool<usize, ()> = WorkerPool::new(3);
        let all_running = Arc::new(std::sync::Barrier::new(3));
        for n in 0..3 {
            let all_running = Arc::clone(&all_running);
            pool.submit(n, move || {
                all_running.wait();
            });
        }
        let mut tags: Vec<usize> = (0..3).map(|_| pool.recv().tag).collect();
        tags.sort();
        assert_eq!(tags, [0, 1, 2]);
        // And a job that arrives while one worker is busy and the others
        // sleep again still gets a worker of its own.
        let (release, held) = mpsc::channel::<()>();
        let (started_tx, started) = mpsc::channel::<()>();
        pool.submit(3, move || {
            started_tx.send(()).expect("the test listens");
            held.recv().expect("released after job 4 ran");
        });
        started.recv().expect("job 3 starts");
        pool.submit(4, || {});
        assert_eq!(pool.recv().tag, 4, "job 4 must not wait behind job 3");
        release.send(()).expect("job 3 is waiting");
        assert_eq!(pool.recv().tag, 3);
    }

    #[test]
    fn panicking_job_is_isolated_and_the_worker_survives() {
        let mut pool: WorkerPool<u8, u8> = WorkerPool::new(1);
        pool.submit(0, || panic!("deliberate test panic"));
        pool.submit(1, || 7);
        let mut completions: Vec<Completed<u8, u8>> = (0..2).map(|_| pool.recv()).collect();
        completions.sort_by_key(|c| c.tag);
        let err = completions[0].result.as_ref().unwrap_err();
        assert!(err.message.contains("deliberate test panic"), "{err}");
        assert_eq!(*completions[1].result.as_ref().unwrap(), 7, "the sole worker survived");
        assert_eq!(pool.panics(), 1);
    }

    #[test]
    fn zero_worker_request_clamps_to_one() {
        let mut pool: WorkerPool<(), u8> = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        pool.submit((), || 3);
        assert_eq!(pool.recv().result.unwrap(), 3);
    }
}
