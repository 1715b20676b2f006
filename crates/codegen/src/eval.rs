//! The evaluation contract: how a backend turns an `(OperatorGraph,
//! CsrMatrix)` candidate into a [`PerfReport`].
//!
//! The contract lives beside the generator because every backend implements
//! it by generating the candidate first: `alpha-gpu`'s cost model (the
//! search's `SimEvaluator`) and `alpha-cpu`'s measured `NativeEvaluator`.
//! The search engine (`alpha-search`) wraps the one it selects per search
//! in its design cache; it names both backends, and neither backend depends
//! on it.

use crate::GeneratorOptions;
use alpha_gpu::{DeviceProfile, PerfReport};
use alpha_graph::{Designer, OperatorGraph};
use alpha_matrix::{CsrMatrix, DenseVector, Scalar};

/// The durable identity of the evaluation backend a result came from.
///
/// Cost-model numbers and wall-clock measurements are *not comparable*: a
/// simulated report must never be cached, stored or served as a measured one
/// (or vice versa).  The id is therefore folded into every evaluation context
/// key (see [`EvalContext::with_evaluator`]) and recorded in each persisted
/// winner, so the two worlds keep disjoint cache entries and disjoint stored
/// designs.  For native evaluation the timing-harness parameters are part of
/// the identity too — min-of-3 and min-of-50 measurements are different
/// experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvaluatorId {
    /// Modelled cost from the `alpha-gpu` simulator.
    Simulated,
    /// Wall-clock time of the native CPU backend (`alpha-cpu`), measured
    /// with a steady-state harness (the default).
    Native {
        /// Warmup executions discarded before timing starts.
        warmup: u32,
        /// Timed executions; the report keeps the minimum.
        runs: u32,
    },
}

impl EvaluatorId {
    /// True for measured (native-execution) results.
    pub fn is_native(self) -> bool {
        matches!(self, EvaluatorId::Native { .. })
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            EvaluatorId::Simulated => "simulated",
            EvaluatorId::Native { .. } => "native",
        }
    }

    /// Folds this identity into a context key.  [`EvaluatorId::Simulated`] is
    /// the identity transform so every pre-existing simulated cache key (and
    /// durable cache file) stays valid.
    ///
    /// The native tag carries a backend **revision** (`-r4`): r2 marked the
    /// pooled-dispatch/nnz-balanced substrate, r3 the SIMD microkernel
    /// layer, and r4 marks the monomorphized kernel library — steady-state
    /// SpMV now runs branch-free specialized loops instead of the
    /// interpreted executor, so r3-era timings of the same design are
    /// different measurements and their persisted evaluations and winners
    /// land in disjoint contexts.  Bump the revision whenever the execution
    /// substrate changes measurements again.
    pub fn salt(self, key: u64) -> u64 {
        match self {
            EvaluatorId::Simulated => key,
            EvaluatorId::Native { warmup, runs } => {
                let key = fnv_extend(key, b"native-cpu-r4");
                let key = fnv_extend(key, &warmup.to_le_bytes());
                fnv_extend(key, &runs.to_le_bytes())
            }
        }
    }
}

/// Everything shared by all candidate evaluations of one search: the matrix
/// and its [`Designer`], the probe input vector, the reference result, and
/// the cache-identity of the (matrix, device, options) combination.
pub struct EvalContext<'a> {
    /// The matrix being tuned.
    pub matrix: &'a CsrMatrix,
    /// The search's Designer: every candidate is designed through it, so the
    /// matrix is converted once per distinct converting chain and the
    /// candidates share the result.  Dropped with the context.
    designer: Designer<'a>,
    /// Probe input vector the candidates are executed with.
    pub x: DenseVector,
    /// Reference `y = A·x` every candidate must reproduce.
    pub reference: Vec<Scalar>,
    /// Generator options (affect the produced kernel, hence part of the
    /// cache identity).
    pub options: GeneratorOptions,
    /// Verification tolerance.
    pub tolerance: Scalar,
    /// Fingerprint of (matrix, device, options); see [`EvalContext::new`].
    context_key: u64,
}

impl<'a> EvalContext<'a> {
    /// Builds the shared evaluation state for one search.  `seed` drives the
    /// probe-vector generation (part of search determinism).
    pub fn new(
        matrix: &'a CsrMatrix,
        device: &DeviceProfile,
        options: GeneratorOptions,
        seed: u64,
    ) -> Result<Self, String> {
        let x = DenseVector::random(matrix.cols(), seed ^ 0xA1FA);
        let reference = matrix.spmv(x.as_slice()).map_err(|e| e.to_string())?;
        Ok(EvalContext {
            matrix,
            designer: Designer::new(matrix),
            x,
            reference,
            options,
            tolerance: 1e-3,
            context_key: context_key(matrix, device, options, seed),
        })
    }

    /// The (matrix, device, options, seed) part of the cache key.
    pub fn context_key(&self) -> u64 {
        self.context_key
    }

    /// The Designer evaluators generate this search's candidates through
    /// ([`generate_with`](crate::generate_with)).
    pub fn designer(&self) -> &Designer<'a> {
        &self.designer
    }

    /// Salts the context key with the evaluation backend's identity, so
    /// simulated and measured results never share cache entries (see
    /// [`EvaluatorId`]).  [`EvaluatorId::Simulated`] is a no-op; call at most
    /// once per context.
    pub fn with_evaluator(mut self, id: EvaluatorId) -> Self {
        self.context_key = id.salt(self.context_key);
        self
    }
}

fn fnv_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The 64-bit cache identity of one `(matrix, device, options, seed)`
/// combination — the context half of every design-cache key.
///
/// The key must separate everything that changes a candidate's outcome: the
/// matrix content, the device model, the generator options, and the
/// probe-vector seed (feasibility is judged against the probe vector, so a
/// borderline kernel may verify under one probe vector and fail under
/// another).  All of them are folded into one 64-bit FNV-1a hash.  The hash
/// depends only on stable inputs (matrix bytes, device parameters, option
/// flags), so it identifies the same work across processes and machines —
/// the property durable design caches rely on.
pub fn context_key(
    matrix: &CsrMatrix,
    device: &DeviceProfile,
    options: GeneratorOptions,
    seed: u64,
) -> u64 {
    let mut key = matrix.fingerprint();
    key = fnv_extend(key, device.name.as_bytes());
    key = fnv_extend(key, &(device.sm_count as u64).to_le_bytes());
    key = fnv_extend(key, &device.dram_bandwidth_gbps.to_bits().to_le_bytes());
    key = fnv_extend(key, &device.l2_bandwidth_gbps.to_bits().to_le_bytes());
    key = fnv_extend(key, &device.peak_sp_gflops.to_bits().to_le_bytes());
    key = fnv_extend(key, &device.clock_ghz.to_bits().to_le_bytes());
    key = fnv_extend(key, &[options.model_compression as u8]);
    key = fnv_extend(key, &seed.to_le_bytes());
    key
}

/// [`context_key`] extended with the evaluation backend's identity — the key
/// a search actually caches under.  Serving layers must use this variant so
/// their store identities line up with the engine's cache entries.
pub fn context_key_for(
    matrix: &CsrMatrix,
    device: &DeviceProfile,
    options: GeneratorOptions,
    seed: u64,
    evaluator: EvaluatorId,
) -> u64 {
    evaluator.salt(context_key(matrix, device, options, seed))
}

/// The outcome of evaluating one feasible candidate.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Performance of the candidate's generated kernel: modelled by the
    /// simulator or measured on the host.
    pub report: PerfReport,
    /// True when the result came out of a design cache instead of a fresh
    /// evaluation.
    pub cached: bool,
    /// Shape label of the native kernel the candidate lowered to (the
    /// `alpha-cpu` monomorphized-library key).  A fresh evaluation reports
    /// `None` under either backend — a design is ranked by its scalar
    /// program — and the winner's entry gets its label afterwards, when the
    /// host that builds it selects its inner loop
    /// (`DesignCache::set_winner_kernel_shape`); a cached evaluation carries
    /// the label recorded on its entry.  Travels with the winning design into
    /// the store so serving layers hand out the same kernel without
    /// re-matching or re-measuring.
    pub kernel_shape: Option<String>,
}

/// Evaluates one `(OperatorGraph, CsrMatrix)` candidate into a [`PerfReport`].
///
/// `None` means the candidate is infeasible for this matrix (generation
/// failed or the kernel produced wrong results) — the search just moves on.
pub trait Evaluator: Send + Sync {
    /// Evaluates a single candidate.
    fn evaluate(&self, ctx: &EvalContext<'_>, graph: &OperatorGraph) -> Option<Evaluation>;
}

impl Evaluator for Box<dyn Evaluator> {
    fn evaluate(&self, ctx: &EvalContext<'_>, graph: &OperatorGraph) -> Option<Evaluation> {
        (**self).evaluate(ctx, graph)
    }
}
