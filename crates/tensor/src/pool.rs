//! A small fixed-size worker pool for data-parallel kernels.
//!
//! The shape follows the classic work-queue idiom: one shared injector
//! (a mutex-guarded deque plus a condvar), a fixed set of persistent
//! worker threads that pop and run tasks, and an mpsc result channel the
//! submitting thread drains to know when its batch is done. The caller
//! *participates*: while waiting for its batch it pops queued tasks and
//! runs them itself, so a busy pool degrades to inline execution instead
//! of deadlocking, and a single-threaded host loses nothing.
//!
//! Determinism contract: the pool runs tasks in any order and on any
//! thread, so callers must only submit batches whose tasks write
//! *disjoint* data (or combine partial results afterwards in a fixed,
//! task-index order). Every kernel in this workspace that uses the pool
//! follows that rule — see `DESIGN.md` §12.
//!
//! Sizing comes from `ACP_KERNEL_THREADS` (total parallelism including
//! the submitting thread; `0` or `1` forces inline execution) and
//! defaults to the machine's available parallelism, capped at 8.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle};

/// A lifetime-erased queued task. Soundness: `WorkerPool::run` blocks the
/// submitting thread until every task of its batch has completed, so the
/// borrows captured by the closure outlive its execution.
enum Task {
    Run(Box<dyn FnOnce() + Send + 'static>),
    Exit,
}

struct Injector {
    queue: Mutex<VecDeque<Task>>,
    ready: Condvar,
}

impl Injector {
    fn push_batch(&self, tasks: Vec<Task>) {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let n = tasks.len();
        q.extend(tasks);
        drop(q);
        if n == 1 {
            self.ready.notify_one();
        } else {
            self.ready.notify_all();
        }
    }

    fn try_pop(&self) -> Option<Task> {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front()
    }

    fn pop_blocking(&self) -> Task {
        let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(task) = q.pop_front() {
                return task;
            }
            q = self.ready.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }
}

thread_local! {
    /// Set while this thread is executing a pool task; nested `run` calls
    /// then execute inline instead of re-entering the queue, which keeps
    /// composed kernels (a pooled matmul inside a pooled codec) from
    /// deadlocking a fully busy pool.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

fn run_task_guarded(task: Task) {
    if let Task::Run(f) = task {
        let was = IN_POOL.with(|c| c.replace(true));
        f();
        IN_POOL.with(|c| c.set(was));
    }
}

/// Fixed-size worker pool; see the module docs for the execution model.
pub struct WorkerPool {
    injector: Arc<Injector>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Creates a pool with `workers` background threads (0 means every
    /// [`WorkerPool::run`] executes inline on the caller).
    pub fn new(workers: usize) -> Self {
        let injector = Arc::new(Injector {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        });
        // A failed spawn (thread exhaustion) degrades the pool rather
        // than panicking: tasks that can't be handed off run inline on
        // the caller, so a smaller pool is still correct.
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let inj = Arc::clone(&injector);
            let spawned = thread::Builder::new()
                .name(format!("acp-kernel-{i}"))
                .spawn(move || loop {
                    match inj.pop_blocking() {
                        Task::Exit => return,
                        task => run_task_guarded(task),
                    }
                });
            match spawned {
                Ok(h) => handles.push(h),
                Err(_) => break,
            }
        }
        WorkerPool {
            injector,
            workers: handles,
        }
    }

    /// Total parallelism of this pool: worker threads plus the caller.
    pub fn parallelism(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `f(0)`, `f(1)`, …, `f(tasks - 1)` across the pool and the
    /// calling thread, returning once all of them completed. Panics in
    /// tasks are caught per-task and the first one resumes on the caller
    /// after the whole batch has drained (so no borrow escapes).
    pub fn run<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize) + Send + Sync,
    {
        if tasks == 0 {
            return;
        }
        let inline = self.workers.is_empty() || tasks == 1 || IN_POOL.with(|c| c.get());
        if inline {
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        let (tx, rx) = channel::<thread::Result<()>>();
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        let batch: Vec<Task> = (0..tasks)
            .map(|i| {
                let task = make_task(f_ref, i, tx.clone());
                // SAFETY: the borrows inside `task` (`f_ref`, captured by
                // reference) live until this function returns, and this
                // function does not return before it has received `tasks`
                // completions — one per queued task, sent even on panic.
                unsafe {
                    std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Box<dyn FnOnce() + Send>>(
                        task,
                    )
                }
            })
            .map(Task::Run)
            .collect();
        drop(tx);
        self.injector.push_batch(batch);
        let mut done = 0usize;
        let mut first_panic: Option<Box<dyn std::any::Any + Send>> = None;
        while done < tasks {
            // Help: run queued tasks (ours or a concurrent batch's) instead
            // of sleeping while workers are behind.
            if let Some(task) = self.injector.try_pop() {
                match task {
                    Task::Exit => {
                        // Re-queue shutdown signals meant for a worker.
                        self.injector.push_batch(vec![Task::Exit]);
                    }
                    task => run_task_guarded(task),
                }
            }
            while let Ok(result) = rx.try_recv() {
                done += 1;
                if let Err(p) = result {
                    first_panic.get_or_insert(p);
                }
            }
            if done < tasks && self.injector.is_empty() {
                // Nothing left to help with; block on the next completion.
                if let Ok(result) = rx.recv() {
                    done += 1;
                    if let Err(p) = result {
                        first_panic.get_or_insert(p);
                    }
                }
            }
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
    }

    /// Splits `data` into `chunks` contiguous pieces (the first
    /// `len % chunks` one element longer) and runs `f(chunk_index, piece)`
    /// across the pool. Pieces are disjoint, so any execution order
    /// produces identical memory contents — the fixed *split* is what the
    /// determinism contract needs, not a fixed order.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunks: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Send + Sync,
    {
        let len = data.len();
        let chunks = chunks.clamp(1, len.max(1));
        let base = len / chunks;
        let extra = len % chunks;
        let ptr = SendPtr(data.as_mut_ptr());
        self.run(chunks, move |i| {
            let start = i * base + i.min(extra);
            let n = base + usize::from(i < extra);
            // SAFETY: [start, start + n) ranges are disjoint across chunk
            // indices and lie within `data`, which outlives `run` because
            // `run` blocks until every task has completed.
            let piece = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(start), n) };
            f(i, piece);
        });
    }

    /// Like [`WorkerPool::for_each_chunk_mut`], but chunk boundaries fall on
    /// multiples of `unit` elements and `f` receives the starting *unit*
    /// index of its piece instead of the chunk index. This is how matrix
    /// kernels hand whole output rows to each task.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `unit`.
    pub fn for_each_unit_chunk_mut<T, F>(&self, data: &mut [T], unit: usize, chunks: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Send + Sync,
    {
        if data.is_empty() || unit == 0 {
            return;
        }
        assert_eq!(data.len() % unit, 0, "data length must be a unit multiple");
        let units = data.len() / unit;
        let chunks = chunks.clamp(1, units);
        let base = units / chunks;
        let extra = units % chunks;
        let ptr = SendPtr(data.as_mut_ptr());
        self.run(chunks, move |i| {
            let start = i * base + i.min(extra);
            let n = base + usize::from(i < extra);
            // SAFETY: unit-aligned [start, start + n) ranges are disjoint
            // across chunk indices and lie within `data`; `run` blocks until
            // every task has completed.
            let piece =
                unsafe { std::slice::from_raw_parts_mut(ptr.get().add(start * unit), n * unit) };
            f(start, piece);
        });
    }

    /// Runs `f(part)` once per element of `parts` across the pool, moving
    /// each part into the task that owns it. This is the split for kernels
    /// whose tasks write more than one buffer, or a strided region, that
    /// the caller has already cut into disjoint `&mut` pieces.
    pub fn run_parts<T, F>(&self, parts: Vec<T>, f: F)
    where
        T: Send,
        F: Fn(T) + Send + Sync,
    {
        if parts.len() <= 1 {
            return parts.into_iter().for_each(f);
        }
        let slots: Vec<Mutex<Option<T>>> = parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
        self.run(slots.len(), |i| {
            let part = slots[i].lock().unwrap_or_else(|e| e.into_inner()).take();
            if let Some(part) = part {
                f(part);
            }
        });
    }

    #[cfg(test)]
    fn injector_len(&self) -> usize {
        self.injector
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }
}

impl Injector {
    fn is_empty(&self) -> bool {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .is_empty()
    }
}

/// Raw pointer wrapper that may cross threads; safety is argued at each
/// use site (disjoint ranges + caller blocks until completion).
struct SendPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
impl<T> SendPtr<T> {
    /// Method (rather than field) access so closures capture the whole
    /// wrapper under edition-2021 disjoint captures, not the bare pointer.
    fn get(self) -> *mut T {
        self.0
    }
}

fn make_task<'a>(
    f: &'a (dyn Fn(usize) + Sync),
    i: usize,
    tx: Sender<thread::Result<()>>,
) -> Box<dyn FnOnce() + Send + 'a> {
    // `&dyn Fn` is Sync, so sharing it across worker threads is sound; the
    // Sender is Send. Completion is reported even when the task panics.
    let shared = SendFn(f);
    Box::new(move || {
        let result = catch_unwind(AssertUnwindSafe(|| (shared.0)(i)));
        let _ = tx.send(result);
    })
}

/// `&dyn Fn(usize) + Sync` is not `Send` by itself inside a `move`
/// closure chain; this wrapper carries it with the usual argument:
/// `&T where T: Sync` is `Send`.
struct SendFn<'a>(&'a (dyn Fn(usize) + Sync));
unsafe impl Send for SendFn<'_> {}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        let exits = (0..self.workers.len()).map(|_| Task::Exit).collect();
        self.injector.push_batch(exits);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// The process-wide kernel pool, sized once from `ACP_KERNEL_THREADS` (or
/// available parallelism, capped at 8). With 1 hardware thread — or
/// `ACP_KERNEL_THREADS=1` — the pool has no workers and every kernel runs
/// inline, which is also the bitwise-identical reference behaviour.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = std::env::var("ACP_KERNEL_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or_else(|| {
                thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
                    .min(8)
            });
        WorkerPool::new(threads.saturating_sub(1))
    })
}

/// Work-items below this threshold never leave the calling thread: the
/// queue/wake round-trip costs more than the copy or compare loop saves.
pub const PAR_THRESHOLD: usize = 1 << 16;

/// A permanently worker-less pool: every `run` executes inline.
fn inline_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(0))
}

/// The pool a kernel doing `work` scalar operations should use: the shared
/// [`global`] pool above [`PAR_THRESHOLD`], a worker-less inline pool below
/// it. Small kernels therefore never spawn threads at all (which also keeps
/// interpreter-based runs like Miri cheap).
pub fn global_for(work: usize) -> &'static WorkerPool {
    if work < PAR_THRESHOLD {
        inline_pool()
    } else {
        global()
    }
}

/// Chunk count for a pooled kernel over `len` elements: enough pieces to
/// feed every thread without over-fragmenting small inputs.
pub fn chunks_for(pool: &WorkerPool, len: usize) -> usize {
    if len < PAR_THRESHOLD || pool.parallelism() == 1 {
        1
    } else {
        pool.parallelism()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(3);
        let counts: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        pool.run(97, |i| {
            counts[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = WorkerPool::new(0);
        let hits = AtomicUsize::new(0);
        pool.run(5, |_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn chunked_mutation_is_disjoint_and_complete() {
        let pool = WorkerPool::new(4);
        let mut data = vec![0u32; 100_003];
        pool.for_each_chunk_mut(&mut data, 7, |ci, piece| {
            for v in piece.iter_mut() {
                *v = ci as u32 + 1;
            }
        });
        assert!(data.iter().all(|&v| v != 0), "every element written");
    }

    #[test]
    fn chunk_split_matches_sequential_order() {
        // The fixed split: concatenating chunks in index order must
        // reproduce the input order (this is what keeps pooled kernels
        // bitwise-identical to their references).
        let pool = WorkerPool::new(2);
        let mut data: Vec<usize> = (0..1000).collect();
        let seen = Mutex::new(vec![Vec::new(); 4]);
        pool.for_each_chunk_mut(&mut data, 4, |ci, piece| {
            seen.lock().unwrap()[ci] = piece.to_vec();
        });
        let flat: Vec<usize> = seen.into_inner().unwrap().concat();
        assert_eq!(flat, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn task_panic_propagates_after_batch_drains() {
        let pool = WorkerPool::new(2);
        let completed = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, |i| {
                if i == 3 {
                    panic!("task 3 exploded");
                }
                completed.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(result.is_err(), "panic must propagate");
        assert_eq!(completed.load(Ordering::SeqCst), 7, "others still ran");
        // The pool stays usable afterwards.
        pool.run(4, |_| {
            completed.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(completed.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn nested_run_executes_inline() {
        let pool = WorkerPool::new(1);
        let total = AtomicUsize::new(0);
        pool.run(4, |_| {
            // A nested batch must not dead-wait on the busy pool.
            pool.run(4, |_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(2);
        pool.run(10, |_| {});
        assert_eq!(pool.injector_len(), 0);
        drop(pool); // would hang if Exit tokens were lost
    }

    #[test]
    fn chunks_for_keeps_small_inputs_inline() {
        let pool = WorkerPool::new(3);
        assert_eq!(chunks_for(&pool, 100), 1);
        assert_eq!(chunks_for(&pool, PAR_THRESHOLD), 4);
    }
}
