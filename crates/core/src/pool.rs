//! A persistent worker pool for shard-granular parallelism.
//!
//! Every per-shard batch in the workspace — the sharded fill and gain
//! scan in [`crate::shard`], the what-if branches of
//! [`ShardHost::entropy_after`](crate::ShardHost::entropy_after) and the
//! commit lanes of
//! [`commit_batch`](crate::ProbabilisticNetwork::commit_batch) — goes
//! through [`WorkerPool::map`], and this module decides whether it runs
//! concurrently (the gain scan alone keeps a caller-side size cut, see
//! `docs/POOL.md`). A batch runs inline on the calling thread when the
//! pool has one thread, when it has one item, or when the caller is
//! inside a [`sequential`] scope; otherwise it fans out.
//! The integrity constraints couple only candidates that share a
//! conflict, so every per-shard batch gives the same bits on any
//! schedule. The threads live for the process lifetime, so a batch pays a
//! latch, not a spawn/join barrier.
//!
//! ## Shape
//!
//! * one FIFO run queue and the shutdown flag under one [`Mutex`], plus
//!   one [`Condvar`]: a submitter pushes its whole batch under a single
//!   lock and wakes the workers; workers pop the front and block on the
//!   condvar while the queue is empty. Every push and the shutdown flag
//!   change under the lock that an idle worker checks before it blocks,
//!   so no wakeup is lost and nothing polls;
//! * [`WorkerPool::map`] submits one task per item and blocks until all
//!   of them finished, **helping** — the calling thread pops and executes
//!   queued tasks from the same front until the queue is empty or its
//!   batch is done, then blocks on the batch latch. Helping is what makes
//!   nested batches (a pool task that itself submits a batch)
//!   deadlock-free: the inner batch's submitter drains work itself even
//!   when every pool worker is busy;
//! * results land in per-task slots and are returned **in item order**,
//!   so the merge order — and with it every downstream posterior and
//!   report byte — is a pure function of the items, never of scheduling.
//!   This is the pool's determinism contract (see `docs/POOL.md`): thread
//!   count, which thread pops which task and [`sequential`] scopes may
//!   change wall-clock, not results;
//! * a panicking task is caught, its batch still completes, and the panic
//!   resumes on the submitting thread — same observable behaviour as a
//!   panicked scoped thread, without poisoning the long-lived workers.
//!
//! ## Safety
//!
//! Tasks borrow the submitting frame (the mapped function and the items),
//! while the worker threads are `'static`; the lifetime is erased at
//! submission. This is sound for
//! the same reason scoped threads are: a batch does not return until
//! every task in it has executed (or unwound) and been dropped, and the
//! batch state itself is only dropped after every result slot has been
//! drained on the submitting thread.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

type RawTask = Box<dyn FnOnce() + Send + 'static>;

/// The run queue and the shutdown flag, guarded together.
#[derive(Default)]
struct Queue {
    tasks: VecDeque<RawTask>,
    shutdown: bool,
}

#[derive(Default)]
struct Shared {
    queue: Mutex<Queue>,
    /// Signalled when tasks are pushed or the pool shuts down.
    work: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("pool queue")
    }
}

/// Per-batch completion state: one result slot per task plus a latch
/// counting the tasks still to finish.
struct Batch<T> {
    slots: Vec<Mutex<Option<std::thread::Result<T>>>>,
    remaining: Mutex<usize>,
    done: Condvar,
}

/// The persistent worker pool. One lives for the whole process
/// (see [`global`]); tests may build private ones.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `threads` long-lived workers (min 1).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let handles = (0..threads.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("smn-pool-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Applies `f` to every item as one batch and returns the results in
    /// item order. The batch runs inline on the calling thread when the
    /// pool has one thread, when there is one item, or inside a
    /// [`sequential`] scope; otherwise its tasks fan out across the
    /// workers while the calling thread helps execute queued work. Panics
    /// in tasks resume on this thread after the whole batch has settled.
    pub fn map<X: Send, T: Send>(
        &self,
        items: impl IntoIterator<Item = X>,
        f: impl Fn(X) -> T + Sync,
    ) -> Vec<T> {
        let items: Vec<X> = items.into_iter().collect();
        let n = items.len();
        if n <= 1 || self.threads() == 1 || in_sequential_scope() {
            // nothing to parallelize (or the caller asked for none): run
            // inline, skipping the latch
            return items.into_iter().map(f).collect();
        }
        let batch: Arc<Batch<T>> = Arc::new(Batch {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            remaining: Mutex::new(n),
            done: Condvar::new(),
        });
        let f = &f;
        let tasks: Vec<RawTask> = items
            .into_iter()
            .enumerate()
            .map(|(i, x)| {
                let b = Arc::clone(&batch);
                let closure: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| f(x)));
                    *b.slots[i].lock().expect("batch slot") = Some(result);
                    let mut remaining = b.remaining.lock().expect("batch latch");
                    *remaining -= 1;
                    if *remaining == 0 {
                        b.done.notify_all();
                    }
                });
                // SAFETY: erases the borrow of `f` and the items' lifetimes
                // to 'static. The closure (and everything it borrows) is
                // guaranteed to have finished executing and been dropped
                // before `map` returns: tasks only leave the queue by
                // being executed, execution decrements `remaining` after
                // dropping the task, and we block below until
                // `remaining == 0`.
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, RawTask>(closure) }
            })
            .collect();
        self.shared.lock().tasks.extend(tasks);
        self.shared.work.notify_all();
        // Help while waiting: run queued tasks (ours or anyone's — also
        // what keeps nested batches live) until the queue is empty or the
        // batch is done, then block on the latch. Whatever of the batch is
        // still unfinished by then is running on other threads.
        while *batch.remaining.lock().expect("batch latch") != 0 {
            let Some(task) = self.shared.lock().tasks.pop_front() else { break };
            task();
        }
        let remaining = batch.remaining.lock().expect("batch latch");
        drop(batch.done.wait_while(remaining, |left| *left != 0).expect("batch latch"));
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
        // set under the queue lock, so no worker can block between its
        // check of the flag and the notify; a poisoned lock still guards a
        // whole queue (tasks run outside it), and `drop` must not panic
        self.shared.queue.lock().unwrap_or_else(PoisonError::into_inner).shutdown = true;
        self.shared.work.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let idle = |q: &mut Queue| q.tasks.is_empty() && !q.shutdown;
    loop {
        let mut queue = shared.work.wait_while(shared.lock(), idle).expect("pool queue");
        // only shutdown wakes a worker to an empty queue
        let Some(task) = queue.tasks.pop_front() else { return };
        drop(queue);
        task();
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

thread_local! {
    /// How many [`sequential`] scopes the current thread is inside.
    static SEQUENTIAL_DEPTH: Cell<usize> = const { Cell::new(0) };
}

fn in_sequential_scope() -> bool {
    SEQUENTIAL_DEPTH.with(|d| d.get() > 0)
}

/// Runs `f` with every batch the current thread submits — on any pool,
/// nested batches included — executed inline, item by item, on this
/// thread. Results are the same bits as a pooled run; only wall-clock
/// changes. Scopes nest, and the scope ends when `f` returns or unwinds.
pub fn sequential<R>(f: impl FnOnce() -> R) -> R {
    struct Exit;
    impl Drop for Exit {
        fn drop(&mut self) {
            SEQUENTIAL_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    SEQUENTIAL_DEPTH.with(|d| d.set(d.get() + 1));
    let _exit = Exit;
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    fn mix(x: u64) -> u64 {
        x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = WorkerPool::new(4);
        let out = pool.map(0u64..64, |x| x * 3);
        assert_eq!(out, (0..64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn pooled_matches_sequential() {
        let pool = WorkerPool::new(3);
        let sequential: Vec<u64> = (0..40).map(mix).collect();
        assert_eq!(pool.map(0u64..40, mix), sequential);
    }

    #[test]
    fn tasks_may_borrow_the_submitting_frame() {
        let pool = WorkerPool::new(2);
        let data: Vec<u64> = (0..100).collect();
        let sums = pool.map(data.chunks(7), |s| s.iter().sum::<u64>());
        assert_eq!(sums.iter().sum::<u64>(), data.iter().sum::<u64>());
    }

    #[test]
    fn nested_batches_complete() {
        // a task that itself submits a batch to the same pool; helping
        // keeps the inner batches live while every worker runs an outer task
        let pool = WorkerPool::new(2);
        let out = pool.map(0..8u64, |i| pool.map(0u64..8, |x| x + 1).iter().sum::<u64>() + i);
        assert_eq!(out, (0..8u64).map(|i| 36 + i).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_submitters_each_get_their_own_results_in_item_order() {
        // each submitter's first batch holds a task that waits at a barrier
        // for the other submitters' tasks, so all first batches share the
        // one run queue at once and helping submitters pop each other's
        // tasks; the later rounds overlap as they happen to
        const SUBMITTERS: u64 = 4;
        let pool = WorkerPool::new(3);
        let in_flight = Barrier::new(SUBMITTERS as usize);
        std::thread::scope(|s| {
            let submitters: Vec<_> = (0..SUBMITTERS)
                .map(|t| {
                    let (pool, in_flight) = (&pool, &in_flight);
                    s.spawn(move || {
                        (0..20u64).all(|round| {
                            let base = (t << 32) | (round << 16);
                            let out = pool.map(base..base + 48, |x| {
                                if round == 0 && x == base {
                                    in_flight.wait();
                                }
                                mix(x)
                            });
                            out == (base..base + 48).map(mix).collect::<Vec<_>>()
                        })
                    })
                })
                .collect();
            for h in submitters {
                assert!(
                    h.join().expect("submitter"),
                    "a submitter got foreign or reordered results"
                );
            }
        });
    }

    #[test]
    fn panics_resume_on_the_submitter_after_the_batch_settles() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.map(0..16u64, |i| {
                if i == 7 {
                    panic!("task 7 exploded");
                }
                i
            })
        }));
        let msg = *caught.expect_err("must propagate").downcast::<&str>().expect("str payload");
        assert_eq!(msg, "task 7 exploded");
        // the pool survives and keeps working
        assert_eq!(pool.map(0u64..4, |x| x), vec![0, 1, 2, 3]);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.map(0u64..10, |x| x * 2), (0..10).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(2);
        let out: Vec<u64> = pool.map(Vec::<u64>::new(), |x| x);
        assert!(out.is_empty());
    }

    /// Runs a 32-item `map` on `pool`, checks that it returns its results
    /// in item order, and returns the threads that ran the items.
    fn traced(pool: &WorkerPool) -> Vec<ThreadId> {
        let out = pool.map(0u64..32, |x| (mix(x), std::thread::current().id()));
        let values: Vec<u64> = out.iter().map(|&(v, _)| v).collect();
        assert_eq!(values, (0..32).map(mix).collect::<Vec<_>>(), "item order");
        out.into_iter().map(|(_, t)| t).collect()
    }

    fn all_on_this_thread(threads: &[ThreadId]) -> bool {
        threads.iter().all(|&t| t == std::thread::current().id())
    }

    #[test]
    fn map_runs_inline_on_one_thread_one_item_or_a_sequential_scope() {
        let me = std::thread::current().id();
        assert!(all_on_this_thread(&traced(&WorkerPool::new(1))), "one-thread pool");
        let pool = WorkerPool::new(3);
        assert_eq!(pool.map([5u64], |x| (mix(x), std::thread::current().id())), vec![(mix(5), me)]);
        assert!(sequential(|| all_on_this_thread(&traced(&pool))), "sequential scope");
        // scopes nest, and leaving the inner one keeps the outer in force
        assert!(sequential(|| {
            let inner = sequential(|| traced(&pool));
            all_on_this_thread(&inner) && all_on_this_thread(&traced(&pool))
        }));
        // a batch issued from inside an inline task stays inline too
        let nested = sequential(|| pool.map(0u64..4, |_| traced(&pool)));
        assert!(nested.iter().all(|t| all_on_this_thread(t)));
        // outside any scope, the same pool still produces the same values
        traced(&pool);
    }

    #[test]
    fn sequential_scopes_are_per_thread_and_hold_inside_pool_tasks() {
        let pool = WorkerPool::new(2);
        // a pool task that opens a scope runs its own batch inline on
        // whichever thread executes it
        let per_task = pool.map(0..4u64, |_| {
            let outer = std::thread::current().id();
            let inner = sequential(|| traced(&pool));
            inner.iter().all(|&t| t == outer)
        });
        assert_eq!(per_task, vec![true; 4]);
        // a scope ends when its closure unwinds
        let caught = catch_unwind(AssertUnwindSafe(|| sequential(|| panic!("unwind"))));
        assert!(caught.is_err());
        assert!(!in_sequential_scope());
    }
}
