//! Fixed-size scoped thread pool with static chunk scheduling.
//!
//! This is the parallel substrate of the T-MAC reproduction. The paper (§4,
//! "Parallelism") generates kernels that each execute "computations of a
//! single threadblock" and assigns those blocks to the threads of the host
//! framework's pool (llama.cpp's threadpool after integration, TVM's before).
//! This crate plays that role:
//!
//! * a **fixed set of persistent workers** created once (thread spawn is far
//!   too expensive per token, let alone per GEMV);
//! * **broadcast execution**: every dispatch runs one closure on all workers,
//!   passing each its thread index — the closure picks its thread block
//!   (M-range, tile range, ...) from the index, which is exactly the paper's
//!   static threadblock assignment;
//! * **no allocation per dispatch** and no locking inside the workers' hot
//!   path beyond one mutex acquisition per dispatch;
//! * **one disjoint-write primitive**, [`SharedMut`]: the threads of a
//!   dispatch write their own parts of one output buffer through it, each
//!   part range-checked. It is the workspace's only shared-output type.
//!
//! # Examples
//!
//! ```
//! use tmac_threadpool::ThreadPool;
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let pool = ThreadPool::new(4);
//! let sum = AtomicUsize::new(0);
//! pool.run(|tid, nthreads| {
//!     assert_eq!(nthreads, 4);
//!     sum.fetch_add(tid, Ordering::Relaxed);
//! });
//! assert_eq!(sum.load(Ordering::Relaxed), 0 + 1 + 2 + 3);
//! ```

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Locks a mutex, ignoring poisoning: job panics are caught on both the
/// worker and dispatcher sides (see [`ThreadPool::run`]), so the slot state
/// is always left consistent even when a job unwinds.
fn lock_slot(m: &Mutex<JobSlot>) -> MutexGuard<'_, JobSlot> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Type-erased job: invoked as `job(worker_index)`.
///
/// The two raw-pointer words are the data pointer and vtable pointer of a
/// `&(dyn Fn(usize) + Sync)` whose lifetime has been erased; see the safety
/// argument in [`ThreadPool::run`].
type RawJob = (*const (), *const ());

struct Shared {
    lock: Mutex<JobSlot>,
    start: Condvar,
    done: Condvar,
}

struct JobSlot {
    /// Monotonic dispatch counter; workers run a job exactly once per bump.
    generation: u64,
    /// Erased `&dyn Fn(usize)`; valid only while `remaining > 0`.
    job: Option<RawJob>,
    /// Workers still running the current generation.
    remaining: usize,
    /// Set when a worker's job invocation panicked this generation; the
    /// dispatcher turns it into a panic on the calling thread.
    worker_panicked: bool,
    /// Set once to ask workers to exit.
    shutdown: bool,
}

// SAFETY: `JobSlot.job` holds an erased `&(dyn Fn(usize) + Sync)`. It is only
// dereferenced by workers between the dispatcher storing it and the
// dispatcher observing `remaining == 0`, during which the referent is kept
// alive by the dispatching call frame (`run` blocks until completion). The
// `Sync` bound on the closure makes concurrent calls from multiple workers
// sound.
unsafe impl Send for JobSlot {}

/// A fixed-size pool of persistent worker threads.
///
/// Dropping the pool joins all workers.
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    n_threads: usize,
}

impl ThreadPool {
    /// Creates a pool that executes jobs on `n_threads` threads.
    ///
    /// `n_threads` counts the *calling* thread too: a pool of size `n`
    /// spawns `n - 1` workers and runs the last share of every job inline on
    /// the dispatcher, so `ThreadPool::new(1)` spawns nothing and runs
    /// everything inline.
    ///
    /// # Panics
    ///
    /// Panics if `n_threads == 0`.
    pub fn new(n_threads: usize) -> Self {
        assert!(n_threads > 0, "thread pool needs at least one thread");
        let shared = Arc::new(Shared {
            lock: Mutex::new(JobSlot {
                generation: 0,
                job: None,
                remaining: 0,
                worker_panicked: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(n_threads.saturating_sub(1));
        for tid in 1..n_threads {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("tmac-worker-{tid}"))
                    .spawn(move || worker_loop(&shared, tid))
                    .expect("failed to spawn worker thread"),
            );
        }
        ThreadPool {
            shared,
            handles,
            n_threads,
        }
    }

    /// Number of threads (including the dispatcher) jobs run on.
    pub fn threads(&self) -> usize {
        self.n_threads
    }

    /// Runs `f(thread_index, n_threads)` once on every thread, blocking until
    /// all invocations return.
    ///
    /// Thread index 0 is the calling thread. The closure must partition its
    /// own work from the index (static threadblock scheduling); see
    /// [`ThreadPool::chunks`] for the common contiguous-range split.
    ///
    /// One pool runs one job at a time: dispatching from two threads
    /// concurrently is a caller bug (the job slot is single-entry) and
    /// panics rather than risking workers reading a dead closure.
    ///
    /// # Panics
    ///
    /// Panics if another `run` is in flight on this pool, or if the job
    /// panicked on any thread — worker panics are caught, the dispatch is
    /// drained, and the panic is re-raised on the calling thread (so a
    /// panicking job can never deadlock or poison the pool).
    pub fn run<F>(&self, f: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        if self.n_threads == 1 {
            f(0, 1);
            return;
        }
        let n = self.n_threads;
        let call = |tid: usize| f(tid, n);
        let job_ref: &(dyn Fn(usize) + Sync) = &call;
        // Erase the lifetime for storage in the shared slot.
        // SAFETY: a `&dyn Fn` reference is exactly two pointer-sized words
        // (data, vtable); transmuting to a pair of raw pointers and back is
        // the documented representation of trait-object references. The
        // erased reference never outlives this call frame (see below).
        let raw: RawJob = unsafe { std::mem::transmute(job_ref) };
        {
            let mut slot = lock_slot(&self.shared.lock);
            // A real assert (not debug-only): a concurrent dispatch would
            // let workers dereference a returned call frame's closure (UB).
            // The check is inside an already-taken lock, so it is free.
            assert_eq!(slot.remaining, 0, "concurrent ThreadPool::run dispatch");
            slot.job = Some(raw);
            slot.remaining = n - 1;
            slot.generation += 1;
            self.shared.start.notify_all();
        }
        // The dispatcher runs thread block 0 itself. Its share is run under
        // catch_unwind: unwinding out of this frame before the workers
        // finish would free the closure they are still calling (UB), so the
        // wait below must happen on the panic path too.
        let dispatcher_result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(0)));
        let mut slot = lock_slot(&self.shared.lock);
        while slot.remaining != 0 {
            slot = self
                .shared
                .done
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
        slot.job = None;
        let worker_panicked = std::mem::take(&mut slot.worker_panicked);
        drop(slot);
        // `raw` (and thus `call`/`f`) outlives all worker dereferences: they
        // all finished before `remaining` hit 0. Only now is unwinding safe.
        if let Err(p) = dispatcher_result {
            std::panic::resume_unwind(p);
        }
        if worker_panicked {
            panic!("a worker thread panicked during a ThreadPool job");
        }
    }

    /// Splits `0..total` into per-thread contiguous chunks and runs
    /// `f(range)` on each thread with its chunk.
    ///
    /// Chunk boundaries are aligned to `granule` (except possibly the final
    /// chunk end at `total`), so kernels can assume their range starts on a
    /// tile boundary. Threads whose chunk is empty do not invoke `f`.
    ///
    /// # Panics
    ///
    /// Panics if `granule == 0`.
    pub fn chunks<F>(&self, total: usize, granule: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        assert!(granule > 0, "granule must be positive");
        self.run(|tid, n| {
            let r = chunk_range(total, granule, tid, n);
            if !r.is_empty() {
                f(r);
            }
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut slot = lock_slot(&self.shared.lock);
            slot.shutdown = true;
            self.shared.start.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, tid: usize) {
    let mut seen_generation = 0u64;
    loop {
        let raw = {
            let mut slot = lock_slot(&shared.lock);
            while !slot.shutdown && slot.generation == seen_generation {
                slot = shared.start.wait(slot).unwrap_or_else(|e| e.into_inner());
            }
            if slot.shutdown {
                return;
            }
            seen_generation = slot.generation;
            slot.job.expect("job present for new generation")
        };
        // SAFETY: `raw` was produced from a live `&(dyn Fn(usize) + Sync)` in
        // `run`, which keeps the closure alive until `remaining` reaches 0;
        // we decrement only after the call returns or unwinds.
        let job: &(dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(raw) };
        // Catch panics so `remaining` always reaches 0: a panicking job must
        // fail the dispatch (re-raised by `run`), not deadlock it — and the
        // worker must stay alive for future dispatches.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(tid)));
        let mut slot = lock_slot(&shared.lock);
        if result.is_err() {
            slot.worker_panicked = true;
        }
        slot.remaining -= 1;
        if slot.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

/// A buffer whose disjoint ranges the threads of one dispatch write: output
/// rows of a GEMV, m-tiles of an mpGEMM sweep, heads of an attention step,
/// `(scale block, row)` units of a table build. Holds the buffer's unique
/// borrow for as long as it lives.
pub struct SharedMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _buf: PhantomData<&'a mut [T]>,
}

// SAFETY: a `&SharedMut` only yields memory through `slice`, whose contract
// gives every range to one thread at a time; `T: Send` lets that thread
// write values another thread will read after the dispatch joins.
unsafe impl<T: Send> Sync for SharedMut<'_, T> {}

impl<'a, T> SharedMut<'a, T> {
    /// Wraps `buf` for one or more dispatches.
    pub fn new(buf: &'a mut [T]) -> Self {
        SharedMut {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
            _buf: PhantomData,
        }
    }

    /// Length of the whole buffer.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The range `at..at + len` of the buffer, mutably.
    ///
    /// # Safety
    ///
    /// While the returned slice lives, no other slice overlapping it may be
    /// taken (by this or any other thread): callers partition the buffer
    /// among the threads of one dispatch.
    ///
    /// # Panics
    ///
    /// Panics if the range does not lie within the buffer.
    #[allow(clippy::mut_from_ref)] // The point of the type; see `# Safety`.
    pub unsafe fn slice(&self, at: usize, len: usize) -> &mut [T] {
        assert!(
            at <= self.len && len <= self.len - at,
            "range out of bounds"
        );
        std::slice::from_raw_parts_mut(self.ptr.add(at), len)
    }
}

/// Computes thread `tid`'s contiguous chunk of `0..total` out of `n` threads,
/// with boundaries aligned to `granule`.
pub fn chunk_range(total: usize, granule: usize, tid: usize, n: usize) -> Range<usize> {
    let tiles = total.div_ceil(granule);
    let per = tiles.div_ceil(n);
    let start_tile = (tid * per).min(tiles);
    let end_tile = ((tid + 1) * per).min(tiles);
    (start_tile * granule).min(total)..(end_tile * granule).min(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn single_thread_runs_inline() {
        let pool = ThreadPool::new(1);
        let hits = AtomicUsize::new(0);
        pool.run(|tid, n| {
            assert_eq!((tid, n), (0, 1));
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn all_threads_participate() {
        let pool = ThreadPool::new(4);
        let mask = AtomicUsize::new(0);
        pool.run(|tid, _| {
            mask.fetch_or(1 << tid, Ordering::SeqCst);
        });
        assert_eq!(mask.load(Ordering::SeqCst), 0b1111);
    }

    #[test]
    fn sequential_dispatches_reuse_workers() {
        let pool = ThreadPool::new(3);
        let hits = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.run(|_, _| {
                hits.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(hits.load(Ordering::SeqCst), 150);
    }

    #[test]
    fn chunks_cover_range_exactly_once() {
        let pool = ThreadPool::new(3);
        let total = 1003;
        let marks: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        pool.chunks(total, 32, |r| {
            assert!(r.start % 32 == 0, "chunk start not tile-aligned");
            for i in r {
                marks[i].fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(marks.iter().all(|m| m.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn chunk_range_partitions() {
        for total in [0usize, 1, 31, 32, 33, 1000, 4096] {
            for granule in [1usize, 4, 32] {
                for n in 1..6 {
                    let mut covered = 0;
                    let mut prev_end = 0;
                    for tid in 0..n {
                        let r = chunk_range(total, granule, tid, n);
                        assert!(r.start <= r.end);
                        if !r.is_empty() {
                            assert_eq!(r.start, prev_end, "gap before chunk {tid}");
                            prev_end = r.end;
                            covered += r.len();
                        }
                    }
                    assert_eq!(covered, total, "total={total} granule={granule} n={n}");
                }
            }
        }
    }

    #[test]
    fn mutation_through_shared_slices() {
        // The canonical kernel pattern: each thread writes a disjoint range
        // of the output through `SharedMut`, one slice per range.
        let pool = ThreadPool::new(4);
        let mut out = vec![0.0f32; 128];
        let shared = SharedMut::new(&mut out);
        pool.chunks(128, 8, |r| {
            // SAFETY: ranges from `chunks` are disjoint.
            let part = unsafe { shared.slice(r.start, r.len()) };
            for (i, v) in r.zip(part) {
                *v = i as f32;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as f32);
        }
    }

    #[test]
    fn shared_mut_disjoint_writes_land_at_1_and_4_threads() {
        // Per-thread ranges of a ragged total, one element at a time: every
        // element written once, by the thread that owns it.
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let mut owner = vec![usize::MAX; 1001];
            let shared = SharedMut::new(&mut owner);
            assert_eq!((shared.len(), shared.is_empty()), (1001, false));
            pool.run(|tid, n| {
                for i in chunk_range(1001, 16, tid, n) {
                    // SAFETY: `chunk_range` gives each thread its own
                    // elements.
                    let own = unsafe { shared.slice(i, 1) };
                    own[0] = tid;
                }
            });
            for tid in 0..threads {
                let own = chunk_range(1001, 16, tid, threads);
                assert!(owner[own].iter().all(|&t| t == tid), "{threads} threads");
            }
            assert!(owner.iter().all(|&t| t < threads), "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "range out of bounds")]
    fn shared_mut_range_past_the_end_panics() {
        let mut buf = [0u8; 8];
        let shared = SharedMut::new(&mut buf);
        // SAFETY: no other slice of `buf` is live.
        let _ = unsafe { shared.slice(5, 4) };
    }

    #[test]
    fn panicking_job_fails_the_dispatch_and_pool_survives() {
        let pool = ThreadPool::new(3);
        // A worker-side panic must not deadlock `run` — it re-raises on the
        // dispatcher...
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|tid, _| {
                if tid == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(r.is_err(), "worker panic must propagate to the dispatcher");
        // ...and the pool must remain fully usable afterwards.
        let hits = AtomicUsize::new(0);
        pool.run(|_, _| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        // Dispatcher-side panics (thread 0) also drain cleanly.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|tid, _| {
                if tid == 0 {
                    panic!("boom on dispatcher");
                }
            });
        }));
        assert!(r.is_err());
        let hits = AtomicUsize::new(0);
        pool.run(|_, _| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3);
    }
}
