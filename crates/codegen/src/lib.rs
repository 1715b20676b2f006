//! `alpha-codegen` — the Format & Kernel Generator of the AlphaSparse
//! reproduction (paper Section V).
//!
//! Given the [`MatrixMetadataSet`] produced by
//! the Designer, this crate:
//!
//! * extracts the **machine-designed format** — the named index/value arrays
//!   of Figure 5 ([`format`](mod@format)),
//! * applies **Model-Driven Format Compression** — index arrays whose values
//!   follow a linear, step or periodic-linear law are replaced by the fitted
//!   function, eliminating their memory traffic ([`compress`](mod@compress)),
//! * builds the **generated kernel** — plain data: the designed metadata,
//!   from which each backend builds its executor (`alpha-cpu`'s native
//!   loop, `alpha-gpu`'s simulated kernel) ([`kernel`], [`layout`]),
//! * emits CUDA-like **source code** for the kernel, the user-facing
//!   artifact of AlphaSparse ([`emit`]), on request only
//!   ([`GeneratedSpmv::source`]): a search prints none of its candidates.
//!   The code the host runs is `alpha-cpu`'s monomorphized loop library,
//!   named by its kernel-shape label, not a second emitted text.
//!
//! It also holds the evaluation contract every backend implements by
//! generating a candidate first ([`eval`]), with the [`DeviceProfile`] a
//! context is keyed by: an evaluation is the candidate's GFLOP/s, so the
//! search ranks designs through it without the backends depending on the
//! search, and without the search depending on the simulator.

pub mod compress;
pub mod device;
pub mod emit;
pub mod eval;
pub mod format;
pub mod kernel;
pub mod layout;

pub use compress::{compress_array, CompressionModel};
pub use device::DeviceProfile;
pub use eval::{context_key, context_key_for, EvalContext, Evaluation, Evaluator, EvaluatorId};
pub use format::{FormatArray, MachineFormat, PartitionFormat};
pub use kernel::GeneratedKernel;

/// Number of threads in a warp on every simulated device (CUDA fixes this at 32).
pub const WARP_SIZE: usize = 32;

use alpha_graph::{design, DesignError, Designer, MatrixMetadataSet, OperatorGraph, SimdPlan};
use alpha_matrix::CsrMatrix;

/// Options controlling the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneratorOptions {
    /// Enable Model-Driven Format Compression (paper Section V-D).  Disabled
    /// only for the ablation of Figure 14c.
    pub model_compression: bool,
}

impl Default for GeneratorOptions {
    fn default() -> Self {
        GeneratorOptions {
            model_compression: true,
        }
    }
}

/// The complete output of the Format & Kernel Generator for one operator
/// graph and matrix: the generated kernel and the extracted format.  The
/// source text is emitted from them on request.
pub struct GeneratedSpmv {
    /// The designed kernel.
    pub kernel: GeneratedKernel,
    /// The machine-designed format description.
    pub format: MachineFormat,
}

impl GeneratedSpmv {
    /// Emits the CUDA-like source of the kernel.
    pub fn source(&self) -> String {
        emit::emit_cuda(self.kernel.metadata(), &self.format)
    }

    /// Resolves the inner loops after generation: a design leaves every
    /// partition's [`SimdPlan`] scalar, and the host that will run it picks
    /// the loop (`alpha-cpu`'s `NativeKernel::select`, or a recorded loop
    /// label).  Writing the picks here — one plan per partition — keeps the
    /// single rule that lowering follows the plan: the kernel's metadata
    /// carries them, so a `NativeKernel` lowered from that metadata and
    /// [`GeneratedSpmv::format`] runs the chosen loop.  The format, the
    /// simulated kernel and the CUDA-like source do not depend on the plans.
    pub fn set_simd_plans(&mut self, plans: &[SimdPlan]) {
        self.kernel.set_simd_plans(plans);
    }
}

/// Runs the Designer and the Format & Kernel Generator end to end, with a
/// Designer that lives for this one call (so nothing is kept for reuse).
pub fn generate(
    graph: &OperatorGraph,
    matrix: &CsrMatrix,
    options: GeneratorOptions,
) -> Result<GeneratedSpmv, DesignError> {
    Ok(generate_from_metadata(&design(graph, matrix)?, options))
}

/// [`generate`] through a Designer the caller keeps: a search generates all
/// its candidates through one, so the matrix is copied — and a piece's
/// `origin_rows` / `row_offsets` arrays fitted — once per distinct piece
/// the Designer holds instead of once per candidate.
pub fn generate_with(
    designer: &Designer<'_>,
    graph: &OperatorGraph,
    options: GeneratorOptions,
) -> Result<GeneratedSpmv, DesignError> {
    let metadata = designer.design(graph)?;
    let format = format::extract_format_with(designer, &metadata, options);
    let kernel = kernel::GeneratedKernel::new(metadata, &format);
    Ok(GeneratedSpmv { kernel, format })
}

/// Builds the format and kernel from an already-designed metadata set.  The
/// kernel keeps a clone of the metadata, which shares the plans' streams
/// with it.
pub fn generate_from_metadata(
    metadata: &MatrixMetadataSet,
    options: GeneratorOptions,
) -> GeneratedSpmv {
    let format = format::extract_format(metadata, options);
    let kernel = kernel::GeneratedKernel::new(metadata.clone(), &format);
    GeneratedSpmv { kernel, format }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_default_enables_compression() {
        assert!(GeneratorOptions::default().model_compression);
    }
}
