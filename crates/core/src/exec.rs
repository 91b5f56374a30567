//! Shared execution context: thread pool + kernel family + table counters.
//!
//! T-MAC's central amortization claim (§3.2) is that the online table
//! precompute is paid once per *activation*, not once per weight matrix:
//! every output row — and every weight matrix — consuming the same
//! activation batch can reuse one [`ActTables`](crate::ActTables) build. The
//! caller knows which matrices those are (in a transformer layer the QKV
//! projections share the attention-normed input, the gate/up projections
//! the FFN-normed one), so it says so by passing them together to
//! [`gemm::mpgemm_group`](crate::gemm::mpgemm_group): one build, one sweep
//! over all of their m-tiles. Nothing is cached between calls.
//!
//! [`ExecCtx`] bundles what every kernel invocation needs:
//!
//! * the **thread pool** the kernels dispatch on, owned by the context;
//! * the **kernel family** ([`Isa`]) its sweeps and table builds run on,
//!   detected once at construction ([`ExecCtx::with_isa`] forces one);
//! * **table counters** ([`ExecCtx::table_stats`]): table builds, and the
//!   projections of a group that a build served beyond the first.
//!
//! It holds no workspace: each sweep thread keeps its tile buffer on its
//! own stack. The counters are atomics, so that bookkeeping is safe to
//! call from several threads. Kernel **dispatch** is not: the context's
//! [`ThreadPool`] executes one job at a time, so concurrent
//! `gemv`/`forward` calls through one context must be externally
//! serialized (the pool asserts on concurrent dispatch). The expected
//! usage is one context per generation stream.

use crate::TmacError;
use std::sync::atomic::{AtomicU64, Ordering};
use tmac_simd::Isa;
use tmac_threadpool::ThreadPool;

/// Table counters (monotonic over the context's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableCacheStats {
    /// Projections served by a group's shared table build beyond the first
    /// (group size − 1 per [`gemm::mpgemm_group`](crate::gemm::mpgemm_group)
    /// call).
    pub hits: u64,
    /// Table builds on the context.
    pub misses: u64,
}

impl TableCacheStats {
    /// Projections served: builds plus shared uses.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// The unified execution context every forward/gemv entry point takes.
///
/// # Examples
///
/// Two layers consuming the same activation share one table build when
/// they run as one group:
///
/// ```
/// use tmac_core::{gemm, ExecCtx, KernelOpts, TmacLinear};
///
/// let w: Vec<f32> = (0..64 * 128).map(|i| (i as f32 * 0.05).sin()).collect();
/// let wq = TmacLinear::from_f32(&w, 64, 128, 4, 32, KernelOpts::tmac()).unwrap();
/// let wk = TmacLinear::from_f32(&w[..32 * 128], 32, 128, 2, 32, KernelOpts::tmac()).unwrap();
///
/// let ctx = ExecCtx::new(2);
/// let act: Vec<f32> = (0..128).map(|i| (i as f32 * 0.11).cos()).collect();
/// let (mut q, mut k) = (vec![0f32; 64], vec![0f32; 32]);
///
/// let plans = [wq.plan(), wk.plan()];
/// gemm::mpgemm_group(&plans, &act, 1, &mut [&mut q, &mut k], &ctx).unwrap();
/// let stats = ctx.table_stats();
/// assert_eq!((stats.hits, stats.misses), (1, 1)); // one build, two consumers
/// ```
pub struct ExecCtx {
    pool: ThreadPool,
    isa: Isa,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for ExecCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("threads", &self.threads())
            .field("isa", &self.isa)
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
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
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

    /// Does nothing and returns 0. Table sharing follows call structure
    /// ([`gemm::mpgemm_group`](crate::gemm::mpgemm_group)), so there is no
    /// activation scope to open; this stays only until the benchmark's
    /// probes stop calling it (ROADMAP benchmark item, part (f)), which
    /// deletes it.
    pub fn next_activation(&self) -> u64 {
        0
    }

    /// Counts one table build on this context.
    pub(crate) fn count_build(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` projections served by an already-built table set.
    pub(crate) fn count_shared(&self, n: usize) {
        self.hits.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Table counters since construction (or the last
    /// [`ExecCtx::reset_table_stats`]): builds as `misses`, projections a
    /// group's build served beyond the first as `hits`.
    pub fn table_stats(&self) -> TableCacheStats {
        TableCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the table counters.
    pub fn reset_table_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm;
    use crate::opts::KernelOpts;
    use crate::plan::WeightPlan;
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
    fn batch_tables_match_per_row_builds() {
        // The rows are built in parallel on the context's pool (more rows
        // than threads, and fewer): same tables, one build per batch.
        for (threads, n) in [(1, 3), (3, 5), (4, 2)] {
            let ctx = ExecCtx::new(threads);
            let p = plan(64, 128, 2, KernelOpts::tmac());
            let a: Vec<f32> = (0..n * 128).map(|i| ((i as f32) * 0.23).cos()).collect();
            let batch = gemm::build_tables(&p, &a, n, Some(&ctx)).unwrap();
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
            assert!(matches!(
                gemm::build_tables(&p, &bad, n, Some(&ctx)),
                Err(TmacError::Numeric(_))
            ));
        }
    }

    #[test]
    fn batch_tables_validate_shape() {
        let p = plan(64, 128, 2, KernelOpts::tmac());
        let a = act(128, 0.0);
        for (len, n) in [(128, 0), (128, 2), (64, 1)] {
            assert!(
                gemm::build_tables(&p, &a[..len], n, None).is_err(),
                "{len} {n}"
            );
        }
    }

    #[test]
    fn tables_for_validates_shape() {
        // A short activation is refused on the context's path too, and a
        // refused build is not counted.
        let ctx = ExecCtx::new(1);
        let p = plan(64, 128, 2, KernelOpts::tmac());
        assert!(matches!(
            gemm::build_tables(&p, &act(64, 0.0), 1, Some(&ctx)),
            Err(TmacError::Shape(_))
        ));
        assert_eq!(ctx.table_stats(), TableCacheStats { hits: 0, misses: 0 });
    }
}
