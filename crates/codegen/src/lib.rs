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
//! * builds the **generated kernel** — an executable
//!   [`SpmvKernel`](alpha_gpu::SpmvKernel)
//!   (interpreted by the `alpha-gpu` simulator) assembled from the kernel
//!   skeleton and the reduction fragments the implementing stage selected
//!   ([`kernel`], [`layout`]),
//! * emits CUDA-like and Rust **source code** for the kernel, the
//!   user-facing artifact of AlphaSparse ([`emit`]), on request only
//!   ([`GeneratedSpmv::source`]): a search prints none of its candidates.

pub mod compress;
pub mod emit;
pub mod format;
pub mod kernel;
pub mod layout;

pub use compress::{compress_array, CompressionModel};
pub use format::{FormatArray, MachineFormat, PartitionFormat};
pub use kernel::GeneratedKernel;

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
/// graph and matrix: the executable kernel and the extracted format.  The
/// source text is emitted from them on request.
pub struct GeneratedSpmv {
    /// Kernel runnable on the `alpha-gpu` simulator.
    pub kernel: GeneratedKernel,
    /// The machine-designed format description.
    pub format: MachineFormat,
}

impl GeneratedSpmv {
    /// Emits the CUDA-like source of the kernel.
    pub fn source(&self) -> String {
        emit::emit_cuda(self.kernel.metadata(), &self.format)
    }

    /// Emits the Rust source of the specialized loops the native CPU backend
    /// (`alpha-cpu`) executes for this design.
    pub fn rust_source(&self) -> String {
        emit::emit_rust(self.kernel.metadata(), &self.format)
    }

    /// Resolves the inner loops after generation: a design leaves every
    /// partition's [`SimdPlan`] scalar, and the host that will run it picks
    /// the loop (`alpha-cpu`'s `NativeKernel::select`, or a recorded loop
    /// label).  Writing the picks here —
    /// one plan per partition — keeps the single rule that lowering and
    /// emission follow the plan: the kernel's metadata carries them, so
    /// [`GeneratedSpmv::rust_source`] prints them.  The format, the
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
/// its candidates through one, so the matrix is converted — and the
/// conversion's `origin_rows` / `row_offsets` arrays fitted — once per
/// distinct converting chain instead of once per candidate.
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
    use alpha_gpu::{DeviceProfile, GpuSim, SpmvKernel};
    use alpha_graph::presets;
    use alpha_matrix::{gen, DenseVector};

    #[test]
    fn end_to_end_generation_produces_correct_spmv() {
        let matrix = gen::powerlaw(400, 400, 10, 2.0, 9);
        let x = DenseVector::random(400, 3);
        let expected = matrix.spmv(x.as_slice()).unwrap();
        for (name, graph) in presets::all_presets() {
            let generated = generate(&graph, &matrix, GeneratorOptions::default())
                .unwrap_or_else(|e| panic!("{name}: generation failed: {e}"));
            let sim = GpuSim::new(DeviceProfile::test_profile());
            let result = sim
                .run(&generated.kernel, x.as_slice())
                .unwrap_or_else(|e| panic!("{name}: simulation failed: {e}"));
            assert!(
                DenseVector::from_vec(result.y.clone()).approx_eq(&expected, 1e-3),
                "{name}: wrong SpMV result"
            );
            assert!(!generated.source().is_empty());
            assert!(generated.kernel.format_bytes() > 0);
        }
    }

    #[test]
    fn options_default_enables_compression() {
        assert!(GeneratorOptions::default().model_compression);
    }
}
