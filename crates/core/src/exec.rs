//! Shared execution context: thread pool + activation-table cache + scratch.
//!
//! T-MAC's central amortization claim (§3.2) is that the online table
//! precompute is paid once per *activation*, not once per weight matrix:
//! every output row — and every weight matrix — consuming the same
//! activation vector can reuse one [`ActTables`] build. In a transformer
//! layer the QKV projections share the attention-normed input and the
//! gate/up projections share the FFN-normed input, so a decode step needs
//! far fewer table builds than it has projections.
//!
//! [`ExecCtx`] is the carrier of that reuse. It bundles what every kernel
//! invocation needs:
//!
//! * the **thread pool** the kernels dispatch on, owned by the context
//!   (replacing the bare `&ThreadPool` parameter that used to thread
//!   through every signature);
//! * the **activation-table cache**, keyed on `(activation generation, table
//!   profile, row count, fingerprint)` — callers bump the generation
//!   whenever the activation batch changes, and every lookup within one
//!   generation that matches the shape/profile reuses the cached build
//!   (one cache for every row count: a decode step is a one-row batch);
//! * a **scratch arena** of recyclable `f32` buffers, so per-call workspace
//!   allocations can be amortized across tokens;
//! * the **kernel family** ([`Isa`]) its sweeps and table builds run on,
//!   detected once at construction ([`ExecCtx::with_isa`] forces one).
//!
//! The cache is behind a mutex and the counters are atomics, so the
//! *bookkeeping* ([`ExecCtx::tables_for`], stats, the scratch arena) is
//! safe to call from several threads. Kernel **dispatch** is not: the
//! context's [`ThreadPool`] executes one job at a time, so concurrent
//! `gemv`/`forward` calls through one context must be externally
//! serialized (the pool asserts on concurrent dispatch). The expected usage
//! is one context per generation stream.

use crate::gemm;
use crate::plan::WeightPlan;
use crate::table::ActTables;
use crate::TmacError;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tmac_simd::Isa;
use tmac_threadpool::ThreadPool;

/// The table-compatibility profile of a weight plan: two plans with equal
/// profiles can consume the same [`ActTables`] for the same activation.
///
/// Weight *bit-width is deliberately absent*: tables are built from the
/// activation alone, so a 4-bit and a 2-bit matrix with the same reduction
/// length and table options share builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableProfile {
    /// Reduction length `K`.
    pub k: usize,
    /// Activations per scale block.
    pub group_size: usize,
    /// Whether entries are quantized to `i8`.
    pub table_quant: bool,
}

impl TableProfile {
    /// The profile a plan's tables must satisfy.
    pub fn of_plan(plan: &WeightPlan) -> Self {
        TableProfile {
            k: plan.k,
            group_size: plan.group_size,
            table_quant: plan.opts().table_quant(),
        }
    }
}

/// Cache hit/miss counters (monotonic over the context's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableCacheStats {
    /// Lookups served from the cache (table builds avoided).
    pub hits: u64,
    /// Lookups that had to build tables.
    pub misses: u64,
}

impl TableCacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// One cached table build: the tables of an `n`-row activation batch.
struct CacheEntry {
    generation: u64,
    profile: TableProfile,
    n: usize,
    fingerprint: u64,
    tables: Arc<ActTables>,
}

/// Interior state: cached tables plus the scratch free-list.
struct CtxState {
    tables: Vec<CacheEntry>,
    scratch: Vec<Vec<f32>>,
}

/// Distinct `(profile, n)` combinations retained per generation. A step
/// sees a handful (attention in, attention out, FFN in, FFN mid, head in),
/// so a small linear-scan cache beats a hash map.
const CACHE_CAPACITY: usize = 8;

/// Buffers retained in the scratch free-list.
const SCRATCH_CAPACITY: usize = 16;

/// An FNV-style fingerprint over *every* element of an activation vector.
///
/// The generation counter is the cache's contract; the fingerprint is a
/// safety net that catches a caller reusing a generation for a *different*
/// activation (the mismatch downgrades the lookup to a rebuild instead of
/// silently returning stale tables). Hashing all of `act` is what makes
/// that guarantee real — a sampled hash would have deterministic blind
/// spots. Every step (`xor` a word in, multiply by an odd constant) is a
/// bijection of the state, so changing any one element always changes the
/// result.
///
/// Every [`ExecCtx::tables_for`] lookup pays this O(K) pass, hit or miss,
/// and the table build it saves is itself a few linear vector passes, so
/// the hash is kept off one serial multiply chain: four independent lanes
/// take two elements (a 64-bit word) per step and are combined at the end.
fn fingerprint(act: &[f32]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    const LANES: usize = 4;
    let mix = |h: u64, word: u64| (h ^ word).wrapping_mul(PRIME);
    let seed = 0xcbf2_9ce4_8422_2325u64 ^ (act.len() as u64);
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| seed.wrapping_add(i as u64));
    let mut steps = act.chunks_exact(2 * LANES);
    for step in &mut steps {
        for (h, pair) in lanes.iter_mut().zip(step.chunks_exact(2)) {
            *h = mix(
                *h,
                u64::from(pair[0].to_bits()) | u64::from(pair[1].to_bits()) << 32,
            );
        }
    }
    for (i, x) in steps.remainder().iter().enumerate() {
        lanes[i % LANES] = mix(lanes[i % LANES], u64::from(x.to_bits()));
    }
    lanes.into_iter().fold(seed, mix)
}

/// A buffer whose disjoint ranges the threads of one pool dispatch write:
/// output tiles in the mpGEMM sweep, `(scale block, row)` units in the table
/// build. Holds the buffer's unique borrow for as long as it lives.
pub(crate) struct SharedMut<'a, T> {
    ptr: *mut T,
    len: usize,
    _buf: PhantomData<&'a mut [T]>,
}

// SAFETY: a `&SharedMut` only yields memory through `slice`, whose contract
// gives every range to one thread at a time; `T: Send` lets that thread
// write values another thread will read after the dispatch joins.
unsafe impl<T: Send> Sync for SharedMut<'_, T> {}

impl<'a, T> SharedMut<'a, T> {
    pub(crate) fn new(buf: &'a mut [T]) -> Self {
        SharedMut {
            ptr: buf.as_mut_ptr(),
            len: buf.len(),
            _buf: PhantomData,
        }
    }

    /// Length of the whole buffer.
    pub(crate) fn len(&self) -> usize {
        self.len
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
    pub(crate) unsafe fn slice(&self, at: usize, len: usize) -> &mut [T] {
        assert!(
            at <= self.len && len <= self.len - at,
            "range out of bounds"
        );
        std::slice::from_raw_parts_mut(self.ptr.add(at), len)
    }
}

/// The unified execution context every forward/gemv entry point takes.
///
/// # Examples
///
/// Two layers consuming the same activation share one table build:
///
/// ```
/// use tmac_core::{ExecCtx, KernelOpts, TmacLinear};
///
/// let w: Vec<f32> = (0..64 * 128).map(|i| (i as f32 * 0.05).sin()).collect();
/// let wq = TmacLinear::from_f32(&w, 64, 128, 4, 32, KernelOpts::tmac()).unwrap();
/// let wk = TmacLinear::from_f32(&w, 64, 128, 2, 32, KernelOpts::tmac()).unwrap();
///
/// let ctx = ExecCtx::new(2);
/// let act: Vec<f32> = (0..128).map(|i| (i as f32 * 0.11).cos()).collect();
/// let mut out = vec![0f32; 64];
///
/// ctx.next_activation();
/// wq.gemv_cached(&act, &mut out, &ctx).unwrap(); // miss: builds tables
/// wk.gemv_cached(&act, &mut out, &ctx).unwrap(); // hit: reuses them
/// let stats = ctx.table_stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1));
/// ```
pub struct ExecCtx {
    pool: ThreadPool,
    isa: Isa,
    generation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    state: Mutex<CtxState>,
}

impl std::fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("threads", &self.threads())
            .field("isa", &self.isa)
            .field("generation", &self.generation())
            .field("stats", &self.table_stats())
            .finish()
    }
}

impl ExecCtx {
    /// Creates a context owning a fresh pool of `n_threads` threads, on the
    /// widest kernel family the host has ([`Isa::detect`]).
    ///
    /// # Panics
    ///
    /// Panics if `n_threads == 0`.
    pub fn new(n_threads: usize) -> Self {
        Self::from_pool(ThreadPool::new(n_threads), Isa::detect())
    }

    /// [`ExecCtx::new`] on the kernel family `isa` instead of the detected
    /// one, so tests can run every family the host has side by side.
    ///
    /// # Errors
    ///
    /// Returns [`TmacError::IsaUnavailable`] if the host cannot execute
    /// `isa` ([`Isa::available`]).
    ///
    /// # Panics
    ///
    /// Panics if `n_threads == 0`.
    pub fn with_isa(n_threads: usize, isa: Isa) -> Result<Self, TmacError> {
        if !isa.available() {
            return Err(TmacError::IsaUnavailable(isa));
        }
        Ok(Self::from_pool(ThreadPool::new(n_threads), isa))
    }

    fn from_pool(pool: ThreadPool, isa: Isa) -> Self {
        ExecCtx {
            pool,
            isa,
            generation: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            state: Mutex::new(CtxState {
                tables: Vec::new(),
                scratch: Vec::new(),
            }),
        }
    }

    /// The thread pool kernels dispatch on.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// The kernel family this context's sweeps and table builds run on:
    /// always one the host can execute.
    pub fn isa(&self) -> Isa {
        self.isa
    }

    /// Number of threads (including the dispatcher).
    pub fn threads(&self) -> usize {
        self.pool().threads()
    }

    /// Current activation generation.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Declares that subsequent forwards consume a *new* activation vector:
    /// bumps the generation, invalidating all cached tables. Returns the new
    /// generation.
    ///
    /// Call this once per distinct activation (e.g. after each norm in a
    /// transformer layer); every [`ExecCtx::tables_for`] lookup between two
    /// bumps that matches shape and profile reuses one build.
    pub fn next_activation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn lock(&self) -> MutexGuard<'_, CtxState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Returns the tables of a row-major `n × K` activation batch for
    /// `plan`, reusing the cached build when one matching `(generation,
    /// profile, n)` exists.
    ///
    /// Within one [`ExecCtx::next_activation`] scope, every plan with the
    /// same table profile consuming the same activation batch (the QKV
    /// projections of a decode step at `n = 1` or a batched step at `n > 1`,
    /// the FFN gate/up pair of a prefill chunk) shares one build. One lookup
    /// counts once in [`ExecCtx::table_stats`] regardless of `n`.
    ///
    /// # Errors
    ///
    /// Returns [`TmacError::Shape`] when `n == 0` or `act.len() != n·K`;
    /// otherwise propagates table-construction failures
    /// ([`TmacError::Shape`], [`TmacError::Numeric`]).
    pub fn tables_for(
        &self,
        plan: &WeightPlan,
        act: &[f32],
        n: usize,
    ) -> Result<Arc<ActTables>, TmacError> {
        let profile = TableProfile::of_plan(plan);
        let generation = self.generation();
        let fp = fingerprint(act);
        {
            let state = self.lock();
            if let Some(e) = state.tables.iter().find(|e| {
                e.generation == generation
                    && e.profile == profile
                    && e.n == n
                    && e.fingerprint == fp
            }) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                tmac_trace::instant("exec", "table_hit", generation, n as u64);
                return Ok(Arc::clone(&e.tables));
            }
        }
        // Build outside the lock: concurrent lookups of different profiles
        // must not serialize on each other's builds.
        let _s = tmac_trace::span("exec", "table_build", generation, n as u64);
        let tables = Arc::new(gemm::build_tables(plan, act, n, Some(self))?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entry = CacheEntry {
            generation,
            profile,
            n,
            fingerprint: fp,
            tables: Arc::clone(&tables),
        };
        // One slot per (profile, n): a new activation (or a fingerprint
        // mismatch within a generation) replaces the stale build; a new
        // combination takes a free slot, else the oldest entry's.
        let cache = &mut self.lock().tables;
        if let Some(slot) = cache.iter_mut().find(|e| e.profile == profile && e.n == n) {
            *slot = entry;
        } else if cache.len() < CACHE_CAPACITY {
            cache.push(entry);
        } else if let Some(oldest) = cache.iter_mut().min_by_key(|e| e.generation) {
            *oldest = entry;
        }
        Ok(tables)
    }

    /// Cache hit/miss counters since construction (or the last
    /// [`ExecCtx::reset_table_stats`]).
    pub fn table_stats(&self) -> TableCacheStats {
        TableCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the hit/miss counters (the cache contents are untouched).
    pub fn reset_table_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Takes a zeroed `f32` buffer of length `len` from the scratch arena
    /// (allocating only when the arena has none to recycle). Return it with
    /// [`ExecCtx::put_buf`] to amortize the allocation across calls.
    pub fn take_buf(&self, len: usize) -> Vec<f32> {
        let recycled = {
            let mut state = self.lock();
            state
                .scratch
                .iter()
                .position(|b| b.capacity() >= len)
                .map(|i| state.scratch.swap_remove(i))
        };
        match recycled {
            Some(mut b) => {
                b.clear();
                b.resize(len, 0.0);
                b
            }
            None => {
                tmac_trace::instant("exec", "scratch_alloc", 0, len as u64);
                vec![0.0; len]
            }
        }
    }

    /// Returns a buffer to the scratch arena for reuse.
    pub fn put_buf(&self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut state = self.lock();
        if state.scratch.len() < SCRATCH_CAPACITY {
            state.scratch.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::KernelOpts;
    use tmac_quant::rtn;

    fn plan(m: usize, k: usize, bits: u8, opts: KernelOpts) -> WeightPlan {
        let w: Vec<f32> = (0..m * k).map(|i| ((i as f32) * 0.13).sin()).collect();
        let qm = rtn::quantize(&w, m, k, bits, 32).unwrap();
        WeightPlan::new(&qm, opts).unwrap()
    }

    fn act(k: usize, seed: f32) -> Vec<f32> {
        (0..k).map(|i| ((i as f32) * 0.31 + seed).cos()).collect()
    }

    #[test]
    fn same_generation_hits_across_plans() {
        let ctx = ExecCtx::new(1);
        let p4 = plan(64, 128, 4, KernelOpts::tmac());
        let p2 = plan(32, 128, 2, KernelOpts::tmac());
        let a = act(128, 0.0);
        ctx.next_activation();
        let t1 = ctx.tables_for(&p4, &a, 1).unwrap();
        let t2 = ctx.tables_for(&p2, &a, 1).unwrap(); // different bits, same profile
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(ctx.table_stats(), TableCacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn generation_bump_invalidates() {
        let ctx = ExecCtx::new(1);
        let p = plan(64, 128, 2, KernelOpts::tmac());
        let a = act(128, 0.0);
        ctx.next_activation();
        ctx.tables_for(&p, &a, 1).unwrap();
        ctx.tables_for(&p, &a, 1).unwrap();
        ctx.next_activation();
        ctx.tables_for(&p, &a, 1).unwrap();
        let s = ctx.table_stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn different_profiles_do_not_collide() {
        let ctx = ExecCtx::new(1);
        let quantized = plan(64, 128, 2, KernelOpts::tmac());
        let raw = plan(64, 128, 2, KernelOpts::tm_base());
        let a = act(128, 0.0);
        ctx.next_activation();
        let tq = ctx.tables_for(&quantized, &a, 1).unwrap();
        let tr = ctx.tables_for(&raw, &a, 1).unwrap();
        assert!(tq.quantized && !tr.quantized);
        assert_eq!(ctx.table_stats().misses, 2);
    }

    #[test]
    fn fingerprint_catches_unbumped_activation_change() {
        // A caller that forgets next_activation() must get correct results:
        // the fingerprint mismatch downgrades the lookup to a rebuild.
        let ctx = ExecCtx::new(1);
        let p = plan(64, 128, 2, KernelOpts::tmac());
        ctx.next_activation();
        let t1 = ctx.tables_for(&p, &act(128, 0.0), 1).unwrap();
        let t2 = ctx.tables_for(&p, &act(128, 5.0), 1).unwrap();
        assert!(!Arc::ptr_eq(&t1, &t2));
        assert_eq!(ctx.table_stats().misses, 2);
    }

    #[test]
    fn fingerprint_sees_every_element() {
        // K = 4099 is no multiple of the 8 elements a step takes: the tail
        // elements must count too.
        let a = act(4099, 0.0);
        let base = fingerprint(&a);
        let mut b = a.clone();
        for i in 0..a.len() {
            for flip in [1u32, 1 << 31] {
                b[i] = f32::from_bits(a[i].to_bits() ^ flip);
                assert_ne!(fingerprint(&b), base, "element {i}, bit flip {flip:#x}");
            }
            b[i] = a[i];
        }
    }

    #[test]
    fn different_k_is_a_different_profile() {
        let ctx = ExecCtx::new(1);
        let p128 = plan(64, 128, 2, KernelOpts::tmac());
        let p256 = plan(64, 256, 2, KernelOpts::tmac());
        ctx.next_activation();
        ctx.tables_for(&p128, &act(128, 0.0), 1).unwrap();
        ctx.tables_for(&p256, &act(256, 0.0), 1).unwrap();
        ctx.tables_for(&p128, &act(128, 0.0), 1).unwrap();
        let s = ctx.table_stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn batch_tables_share_within_a_generation() {
        // The batched QKV pattern: three plans, one n-row activation batch,
        // one set of per-row builds.
        let ctx = ExecCtx::new(1);
        let p4 = plan(64, 128, 4, KernelOpts::tmac());
        let p2 = plan(32, 128, 2, KernelOpts::tmac());
        let n = 5;
        let a: Vec<f32> = (0..n * 128).map(|i| ((i as f32) * 0.19).sin()).collect();
        ctx.next_activation();
        let t1 = ctx.tables_for(&p4, &a, n).unwrap();
        let t2 = ctx.tables_for(&p2, &a, n).unwrap();
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(t1.rows, n);
        assert_eq!(ctx.table_stats(), TableCacheStats { hits: 1, misses: 1 });
        // A bump invalidates, and a different n is a different entry.
        ctx.next_activation();
        let t3 = ctx.tables_for(&p4, &a, n).unwrap();
        assert!(!Arc::ptr_eq(&t1, &t3));
        ctx.tables_for(&p4, &a[..3 * 128], 3).unwrap();
        let s = ctx.table_stats();
        assert_eq!((s.hits, s.misses), (1, 3));
    }

    #[test]
    fn batch_tables_match_per_row_builds() {
        // The rows are built in parallel on the context's pool (more rows
        // than threads, and fewer): same tables, one miss per batch.
        for (threads, n) in [(1, 3), (3, 5), (4, 2)] {
            let ctx = ExecCtx::new(threads);
            let p = plan(64, 128, 2, KernelOpts::tmac());
            let a: Vec<f32> = (0..n * 128).map(|i| ((i as f32) * 0.23).cos()).collect();
            ctx.next_activation();
            let batch = ctx.tables_for(&p, &a, n).unwrap();
            assert_eq!(batch.rows, n);
            for ni in 0..n {
                let row = gemm::build_tables(&p, &a[ni * 128..(ni + 1) * 128], 1, None).unwrap();
                for sb in 0..128 / 32 {
                    assert_eq!(
                        batch.block_tables(sb, ni..ni + 1),
                        row.block_tables(sb, 0..1)
                    );
                    let (one, same) = (
                        row.block_scales(sb, 0..1),
                        batch.block_scales(sb, ni..ni + 1),
                    );
                    assert_eq!(one, same, "row {ni}");
                }
            }
            assert_eq!(ctx.table_stats(), TableCacheStats { hits: 0, misses: 1 });
            // A bad row fails the whole batch, whichever thread built it.
            let mut bad = a.clone();
            bad[(n - 1) * 128 + 7] = f32::NAN;
            ctx.next_activation();
            assert!(matches!(
                ctx.tables_for(&p, &bad, n),
                Err(TmacError::Numeric(_))
            ));
        }
    }

    #[test]
    fn batch_tables_validate_shape() {
        let ctx = ExecCtx::new(1);
        let p = plan(64, 128, 2, KernelOpts::tmac());
        let a = act(128, 0.0);
        assert!(ctx.tables_for(&p, &a, 0).is_err());
        assert!(ctx.tables_for(&p, &a, 2).is_err());
    }

    #[test]
    fn tables_for_validates_shape() {
        let ctx = ExecCtx::new(1);
        let p = plan(64, 128, 2, KernelOpts::tmac());
        assert!(ctx.tables_for(&p, &act(64, 0.0), 1).is_err());
    }

    #[test]
    fn scratch_arena_recycles() {
        let ctx = ExecCtx::new(1);
        let mut b = ctx.take_buf(100);
        b[0] = 7.0;
        let p = b.as_ptr();
        ctx.put_buf(b);
        let b2 = ctx.take_buf(50);
        assert_eq!(b2.as_ptr(), p, "smaller request reuses the buffer");
        assert!(b2.iter().all(|&x| x == 0.0), "recycled buffer is zeroed");
        assert_eq!(b2.len(), 50);
    }

    #[test]
    fn context_is_shareable_across_threads() {
        let ctx = ExecCtx::new(2);
        let p = plan(64, 128, 2, KernelOpts::tmac());
        let a = act(128, 0.0);
        ctx.next_activation();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| ctx.tables_for(&p, &a, 1).unwrap());
            }
        });
        let stats = ctx.table_stats();
        assert_eq!(stats.lookups(), 4);
        assert!(stats.misses >= 1);
    }
}
