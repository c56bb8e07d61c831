//! A persistent work-stealing worker pool for shard-granular parallelism.
//!
//! Before this module, every parallel section — the sharded fill in
//! [`crate::shard`], the multi-chain sampler pass in [`crate::sampling`],
//! the service's vote fan-out — paid a fresh `std::thread::scope`
//! spawn/join barrier. That is microseconds per call, which is fine for
//! one big fill and ruinous when a federation of thousands of small
//! shards refills a handful of them per assertion. The pool keeps its
//! threads alive for the process lifetime and replaces the barrier with a
//! batch latch.
//!
//! ## Shape
//!
//! * one [`Mutex`]`<VecDeque>` run queue per worker; submitters push
//!   round-robin, workers pop their own queue front-first and steal from
//!   the back of their neighbours' queues when empty;
//! * [`WorkerPool::run`] submits a batch of closures and blocks until all
//!   of them finished, **helping** — the calling thread executes queued
//!   tasks while it waits. Helping is what makes nested batches (a shard
//!   fill task that itself runs a multi-chain pass) deadlock-free: the
//!   inner batch's submitter drains work itself even when every pool
//!   worker is busy;
//! * results land in per-task slots and are returned **in submission
//!   order**, so the merge order — and with it every downstream posterior
//!   and report byte — is a pure function of the task list, never of
//!   scheduling. This is the pool's determinism contract (see
//!   `docs/POOL.md`): thread count and steal order may change wall-clock,
//!   not results;
//! * a panicking task is caught, its batch still completes, and the panic
//!   resumes on the submitting thread — same observable behaviour as a
//!   panicked scoped thread, without poisoning the long-lived workers.
//!
//! ## Safety
//!
//! Tasks borrow the submitting frame (`'env`), while the worker threads
//! are `'static`; the lifetime is erased at submission. This is sound for
//! the same reason scoped threads are: `run` does not return until every
//! task in the batch has executed (or unwound) and been dropped, and the
//! batch state itself is only dropped after every result slot has been
//! drained on the submitting thread.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// A unit of pool work returning `T`, allowed to borrow the submitting
/// frame.
pub type Task<'env, T> = Box<dyn FnOnce() -> T + Send + 'env>;

type RawTask = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    /// One run queue per worker; submitters push round-robin.
    queues: Vec<Mutex<VecDeque<RawTask>>>,
    /// The high-priority lane: latency-critical batches (the serving
    /// layer's per-shard commit lanes) enqueue here and every worker
    /// checks it before its own queue, so commits overtake queued
    /// background work (gain scans, shard refills) without preempting a
    /// task already running.
    high: Mutex<VecDeque<RawTask>>,
    /// Wakes sleeping workers when work arrives (paired with `sleep`).
    wake: Condvar,
    sleep: Mutex<()>,
    shutdown: AtomicBool,
}

impl Shared {
    /// Pops work for worker `w`: the high-priority lane first, then its
    /// own queue (front = FIFO), then a steal sweep over the other queues
    /// (back = the submission-order tail, keeping owners and thieves off
    /// the same end).
    fn find_task(&self, w: usize) -> Option<RawTask> {
        if let Some(t) = self.high.lock().expect("pool queue").pop_front() {
            return Some(t);
        }
        if let Some(t) = self.queues[w].lock().expect("pool queue").pop_front() {
            return Some(t);
        }
        let n = self.queues.len();
        for step in 1..n {
            let q = (w + step) % n;
            if let Some(t) = self.queues[q].lock().expect("pool queue").pop_back() {
                return Some(t);
            }
        }
        None
    }

    /// Pops work from any queue — the help-while-waiting path for
    /// submitting threads, which have no home queue. Honours the
    /// high-priority lane first, like the workers.
    fn find_any_task(&self) -> Option<RawTask> {
        if let Some(t) = self.high.lock().expect("pool queue").pop_front() {
            return Some(t);
        }
        for q in &self.queues {
            if let Some(t) = q.lock().expect("pool queue").pop_front() {
                return Some(t);
            }
        }
        None
    }
}

/// Per-batch completion state: one result slot per task plus a latch.
struct Batch<T> {
    remaining: AtomicUsize,
    slots: Vec<Mutex<Option<std::thread::Result<T>>>>,
    done: Condvar,
    done_lock: Mutex<()>,
}

/// The persistent work-stealing pool. One lives for the whole process
/// (see [`global`]); tests may build private ones.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    next_queue: AtomicUsize,
}

impl WorkerPool {
    /// Spawns a pool with `threads` long-lived workers (min 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            high: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            sleep: Mutex::new(()),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("smn-pool-{w}"))
                    .spawn(move || worker_loop(w, &shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, handles, next_queue: AtomicUsize::new(0) }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.queues.len()
    }

    /// Runs a batch of tasks to completion and returns their results in
    /// submission order. The calling thread helps execute queued work
    /// while it waits. Panics in tasks resume on this thread after the
    /// whole batch has settled.
    pub fn run<'env, T: Send + 'env>(&self, tasks: Vec<Task<'env, T>>) -> Vec<T> {
        self.run_with(tasks, false)
    }

    /// Like [`WorkerPool::run`], but submits the batch to the
    /// high-priority lane: every worker drains it before its own queue,
    /// so these tasks overtake queued background batches. Results still
    /// come back in submission order — priority changes wall-clock, never
    /// bytes.
    pub fn run_high<'env, T: Send + 'env>(&self, tasks: Vec<Task<'env, T>>) -> Vec<T> {
        self.run_with(tasks, true)
    }

    fn run_with<'env, T: Send + 'env>(&self, tasks: Vec<Task<'env, T>>, priority: bool) -> Vec<T> {
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 || self.threads() == 1 {
            // nothing to parallelize: run inline, skipping the latch
            return tasks.into_iter().map(|t| t()).collect();
        }
        let batch: Arc<Batch<T>> = Arc::new(Batch {
            remaining: AtomicUsize::new(n),
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            done: Condvar::new(),
            done_lock: Mutex::new(()),
        });
        for (i, task) in tasks.into_iter().enumerate() {
            let b = Arc::clone(&batch);
            let closure: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(task));
                *b.slots[i].lock().expect("batch slot") = Some(result);
                // last finisher trips the latch under the lock so the
                // notify cannot race the submitter's final check
                if b.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let _g = b.done_lock.lock().expect("batch latch");
                    b.done.notify_all();
                }
            });
            // SAFETY: erases 'env to 'static. The closure (and everything
            // it borrows) is guaranteed to have finished executing and
            // been dropped before `run` returns: tasks only leave the
            // queues by being executed, execution decrements `remaining`
            // after dropping the task, and we block below until
            // `remaining == 0`.
            let raw: RawTask =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, RawTask>(closure) };
            if priority {
                self.shared.high.lock().expect("pool queue").push_back(raw);
            } else {
                let q = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.threads();
                self.shared.queues[q].lock().expect("pool queue").push_back(raw);
            }
        }
        self.shared.wake.notify_all();
        // Help while waiting: run queued tasks (ours or anyone's — also
        // what keeps nested batches live), then park briefly on the latch.
        while batch.remaining.load(Ordering::Acquire) != 0 {
            if let Some(t) = self.shared.find_any_task() {
                t();
                continue;
            }
            let g = batch.done_lock.lock().expect("batch latch");
            if batch.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            // timed backstop: a worker could finish the last task between
            // our check and the wait
            let _ = batch.done.wait_timeout(g, Duration::from_micros(200)).expect("batch latch");
        }
        // Drain every slot before the batch can be dropped; panics are
        // re-raised only after the whole batch has settled.
        let mut out = Vec::with_capacity(n);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for slot in &batch.slots {
            match slot.lock().expect("batch slot").take().expect("every batch slot filled") {
                Ok(v) => out.push(v),
                Err(p) => panic = Some(p),
            }
        }
        if let Some(p) = panic {
            resume_unwind(p);
        }
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // wake everyone under the sleep lock so no worker can re-park
        // between the flag store and the notify
        {
            let _g = self.shared.sleep.lock().expect("pool sleep lock");
            self.shared.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(w: usize, shared: &Shared) {
    loop {
        if let Some(task) = shared.find_task(w) {
            task();
            continue;
        }
        let g = shared.sleep.lock().expect("pool sleep lock");
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Timed park: submission notifies, but a push can land between
        // our empty sweep and this wait — the timeout bounds that race
        // instead of a queue-revision protocol.
        let _ = shared.wake.wait_timeout(g, Duration::from_millis(1)).expect("pool sleep lock");
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
    }
}

/// The process-wide pool, sized by `SMN_POOL_THREADS` when set (≥1), else
/// the machine's available parallelism. Spawned on first use, alive for
/// the process lifetime.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::env::var("SMN_POOL_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(std::num::NonZero::get).unwrap_or(1)
            });
        WorkerPool::new(threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boxed<T: Send + 'static>(
        fns: impl IntoIterator<Item = T>,
        f: impl Fn(T) -> T + Send + Sync + Copy + 'static,
    ) -> Vec<Task<'static, T>> {
        fns.into_iter().map(|x| Box::new(move || f(x)) as Task<'static, T>).collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4);
        let out = pool.run(boxed(0u64..64, |x| x * 3));
        assert_eq!(out, (0..64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn pooled_matches_sequential() {
        let pool = WorkerPool::new(3);
        let work = |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let pooled =
            pool.run((0u64..40).map(|x| Box::new(move || work(x)) as Task<'_, u64>).collect());
        let sequential: Vec<u64> = (0..40).map(work).collect();
        assert_eq!(pooled, sequential);
    }

    #[test]
    fn tasks_may_borrow_the_submitting_frame() {
        let pool = WorkerPool::new(2);
        let data: Vec<u64> = (0..100).collect();
        let slices: Vec<&[u64]> = data.chunks(7).collect();
        let sums = pool.run(
            slices
                .iter()
                .map(|s| {
                    let s: &[u64] = s;
                    Box::new(move || s.iter().sum::<u64>()) as Task<'_, u64>
                })
                .collect(),
        );
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn nested_batches_complete() {
        // a task that itself submits a batch to the same pool — the shard
        // fill / multi-chain nesting shape
        let pool = Arc::new(WorkerPool::new(2));
        let outer: Vec<Task<'_, u64>> = (0..8u64)
            .map(|i| {
                let pool = Arc::clone(&pool);
                Box::new(move || pool.run(boxed(0u64..8, move |x| x + 1)).iter().sum::<u64>() + i)
                    as Task<'_, u64>
            })
            .collect();
        let out = pool.run(outer);
        assert_eq!(out, (0..8u64).map(|i| 36 + i).collect::<Vec<_>>());
    }

    #[test]
    fn panics_resume_on_the_submitter_after_the_batch_settles() {
        let pool = WorkerPool::new(2);
        let tasks: Vec<Task<'_, u64>> = (0..16u64)
            .map(|i| {
                Box::new(move || {
                    if i == 7 {
                        panic!("task 7 exploded");
                    }
                    i
                }) as Task<'_, u64>
            })
            .collect();
        let caught = catch_unwind(AssertUnwindSafe(|| pool.run(tasks)));
        let msg = *caught.expect_err("must propagate").downcast::<&str>().expect("str payload");
        assert_eq!(msg, "task 7 exploded");
        // the pool survives and keeps working
        assert_eq!(pool.run(boxed(0u64..4, |x| x)), vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(
            pool.run(boxed(0u64..10, |x| x * 2)),
            (0..10).map(|x| x * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(2);
        let out: Vec<u64> = pool.run(Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn high_priority_batches_return_the_same_results_as_normal_ones() {
        let pool = WorkerPool::new(3);
        let work = |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13);
        let normal = pool.run(boxed(0u64..48, move |x| work(x)));
        let high = pool.run_high(boxed(0u64..48, move |x| work(x)));
        assert_eq!(high, normal);
        assert_eq!(high, (0..48).map(work).collect::<Vec<_>>());
    }

    #[test]
    fn high_priority_tasks_overtake_queued_background_work() {
        use std::sync::atomic::AtomicU64;
        // Flood the normal queues with slow tasks from another thread,
        // then submit a high batch: every high task must start before the
        // background tail drains, i.e. the lane really is checked first.
        let pool = Arc::new(WorkerPool::new(2));
        let started = Arc::new(AtomicU64::new(0));
        let bg_done = Arc::new(AtomicU64::new(0));
        let bg = {
            let pool = Arc::clone(&pool);
            let bg_done = Arc::clone(&bg_done);
            std::thread::spawn(move || {
                let tasks: Vec<Task<'static, ()>> = (0..64)
                    .map(|_| {
                        let bg_done = Arc::clone(&bg_done);
                        Box::new(move || {
                            std::thread::sleep(Duration::from_micros(500));
                            bg_done.fetch_add(1, Ordering::SeqCst);
                        }) as Task<'static, ()>
                    })
                    .collect();
                pool.run(tasks);
            })
        };
        // give the background batch a head start at filling the queues
        std::thread::sleep(Duration::from_millis(2));
        let drained: Vec<u64> = pool.run_high(
            (0..8u64)
                .map(|_| {
                    let started = Arc::clone(&started);
                    let bg_done = Arc::clone(&bg_done);
                    Box::new(move || {
                        started.fetch_add(1, Ordering::SeqCst);
                        bg_done.load(Ordering::SeqCst)
                    }) as Task<'_, u64>
                })
                .collect(),
        );
        bg.join().expect("background batch");
        assert_eq!(started.load(Ordering::SeqCst), 8);
        // at least one high task ran while background work was still queued
        assert!(
            drained.iter().any(|&seen| seen < 64),
            "high-priority lane never overtook the background queue: {drained:?}"
        );
    }
}
