//! `ALPHA_CPU_NO_SIMD=1` collapses loop selection to the scalar loop.
//!
//! The override is read from the process environment, so this lives in a
//! test binary of its own: its single test sets the variable before anything
//! else runs and no other test shares the process.

use alpha_cpu::{plans_from_label, NativeKernel, NO_SIMD_ENV};
use alpha_graph::presets;
use alpha_matrix::gen;

#[test]
fn the_override_leaves_only_the_scalar_candidate() {
    std::env::set_var(NO_SIMD_ENV, "1");
    // Long rows: with SIMD allowed, a vector loop wins this easily.
    let matrix = gen::uniform_random(2_048, 2_048, 32, 11);
    for graph in [presets::csr_scalar(), presets::csr5_like(64)] {
        let generated =
            alpha_codegen::generate(&graph, &matrix, alpha_codegen::GeneratorOptions::default())
                .expect("generation succeeds");
        let metadata = generated.kernel.metadata();
        let (kernel, choices) = NativeKernel::select(metadata, &generated.format).unwrap();
        assert!(!kernel.is_vectorized());
        assert!(kernel.shape_label().ends_with(":scalar"));
        for choice in &choices {
            assert_eq!(choice.label, "scalar");
            assert!(
                choice.measured.is_empty(),
                "a lone candidate is not timed: {choice}"
            );
        }
        // A label recorded while SIMD was allowed is not trusted now.
        assert_eq!(
            plans_from_label(metadata, "rows[off:table,org:id,col:table]:avx2-nnz-x8"),
            None
        );
        assert!(plans_from_label(metadata, &kernel.partition_shapes()).is_some());
    }
}
