//! CUDA-like source emission.
//!
//! AlphaSparse's user-facing output is generated CUDA code (the paper's
//! Figure 7).  The simulator does not compile this text — it interprets the
//! structured kernel directly — but the emitted source preserves the
//! "output is code" property: it documents the machine-designed format's
//! arrays, the loop skeleton over thread blocks / warps / threads, the chosen
//! reduction fragments, and which index arrays Model-Driven Format
//! Compression replaced with closed-form expressions.

use crate::compress::CompressionModel;
use crate::format::{MachineFormat, PartitionFormat};
use alpha_graph::{
    BlockReduction, Mapping, MatrixMetadataSet, PartitionPlan, ThreadReduction, WarpReduction,
};

/// Emits CUDA-like source for the whole generated SpMV program.
pub fn emit_cuda(metadata: &MatrixMetadataSet, format: &MachineFormat) -> String {
    let mut out = String::new();
    out.push_str("// Machine-generated SpMV program (AlphaSparse reproduction)\n");
    out.push_str(&format!(
        "// matrix: {} rows x {} cols, {} non-zeros, {} partition(s)\n\n",
        metadata.original_rows,
        metadata.original_cols,
        metadata.original_nnz,
        metadata.partitions.len()
    ));
    for (i, (plan, pf)) in metadata
        .partitions
        .iter()
        .zip(&format.partitions)
        .enumerate()
    {
        out.push_str(&emit_partition(i, plan, pf));
        out.push('\n');
    }
    out.push_str(&emit_host_launcher(metadata, format));
    out
}

fn emit_partition(index: usize, plan: &PartitionPlan, pf: &PartitionFormat) -> String {
    let mut out = String::new();
    out.push_str(&format!("// ---- partition {index} ----\n"));
    out.push_str(&format!("// operator graph: {}\n", plan.describe()));
    out.push_str("// format arrays:\n");
    for array in &pf.arrays {
        match &array.compressed {
            Some(c) => out.push_str(&format!(
                "//   {:<18} compressed: {}\n",
                array.name,
                describe_model(&c.model, c.exceptions.len())
            )),
            None => out.push_str(&format!(
                "//   {:<18} u32[{}]\n",
                array.name,
                array.data.len()
            )),
        }
    }
    out.push_str(&format!(
        "//   values             f32[{0}], col_indices u32[{0}] (padded)\n",
        pf.padded_nnz
    ));

    out.push_str(&format!(
        "__global__ void alphasparse_partition_{index}(const float* __restrict__ values,\n\
         \x20                                        const unsigned* __restrict__ col_indices,\n\
         \x20                                        const float* __restrict__ x,\n\
         \x20                                        float* y) {{\n"
    ));
    out.push_str(&format!(
        "  // SET_RESOURCES: {} threads per block, {} blocks\n",
        pf.layout.threads_per_block, pf.layout.blocks
    ));
    match plan.mapping {
        Mapping::RowPerThread { rows_per_thread } => {
            out.push_str(&format!(
                "  // BMT_ROW_BLOCK: each thread owns {rows_per_thread} row(s); \
                 {} storage\n",
                if plan.interleaved {
                    "interleaved (column-major per block)"
                } else {
                    "row-major"
                }
            ));
            out.push_str("  for (int bmtb = blockIdx.x; ; bmtb += gridDim.x) {\n");
            out.push_str("    int bmt = bmtb * blockDim.x + threadIdx.x;\n");
            out.push_str(&emit_addressing(pf, "    "));
            out.push_str("    float partial[ROWS_PER_THREAD];\n");
            out.push_str("    for (int k = 0; k < bmt_size; ++k) {\n");
            out.push_str(&format!(
                "      int idx = {};\n",
                if plan.interleaved {
                    "bmtb_base + k * blockDim.x + threadIdx.x"
                } else {
                    "bmt_offset + k"
                }
            ));
            out.push_str("      partial[row_of(k)] += values[idx] * x[col_indices[idx]];\n");
            out.push_str("    }\n");
        }
        Mapping::VectorPerRow { threads_per_row } => {
            out.push_str(&format!(
                "  // BMT_COL_BLOCK: {threads_per_row} threads cooperate on each row\n"
            ));
            out.push_str("  int lane = threadIdx.x % THREADS_PER_ROW;\n");
            out.push_str(
                "  int row  = (blockIdx.x * blockDim.x + threadIdx.x) / THREADS_PER_ROW;\n",
            );
            out.push_str(&emit_addressing(pf, "  "));
            out.push_str("  float partial = 0.f;\n");
            out.push_str(
                "  for (int idx = row_start + lane; idx < row_end; idx += THREADS_PER_ROW)\n",
            );
            out.push_str("    partial += values[idx] * x[col_indices[idx]];\n");
        }
        Mapping::NnzSplit { nnz_per_thread } => {
            out.push_str(&format!(
                "  // BMT_NNZ_BLOCK: each thread owns {nnz_per_thread} consecutive non-zeros\n"
            ));
            out.push_str(
                "  int first_nz = (blockIdx.x * blockDim.x + threadIdx.x) * NNZ_PER_THREAD;\n",
            );
            out.push_str(&emit_addressing(pf, "  "));
            out.push_str("  int row = bmt_row_starts[thread_id];\n");
            out.push_str("  float partial = 0.f;\n");
            out.push_str("  for (int idx = first_nz; idx < first_nz + NNZ_PER_THREAD; ++idx) {\n");
            out.push_str("    partial += values[idx] * x[col_indices[idx]];\n");
            out.push_str("    // THREAD_BITMAP_RED: emit partial at each row boundary\n");
            out.push_str("    if (idx + 1 == row_offsets[row + 1]) { flush(partial, row++); }\n");
            out.push_str("  }\n");
        }
    }
    out.push_str(&emit_reduction(plan));
    out.push_str("}\n");
    out
}

fn emit_addressing(pf: &PartitionFormat, indent: &str) -> String {
    let mut out = String::new();
    for array in &pf.arrays {
        let line = match &array.compressed {
            Some(c) => format!(
                "{indent}// {} eliminated by Model-Driven Format Compression: {}\n",
                array.name,
                describe_model(&c.model, c.exceptions.len())
            ),
            None => format!("{indent}// load {} from global memory\n", array.name),
        };
        out.push_str(&line);
    }
    out
}

fn emit_reduction(plan: &PartitionPlan) -> String {
    let mut out = String::new();
    match plan.reduction.thread {
        ThreadReduction::Total => {
            out.push_str("  // THREAD_TOTAL_RED: accumulate the thread's chunk in a register\n");
        }
        ThreadReduction::Bitmap => {
            out.push_str(
                "  // THREAD_BITMAP_RED: per-row partials tracked with a boundary bitmap\n",
            );
        }
    }
    match plan.reduction.warp {
        Some(WarpReduction::Total) => {
            out.push_str("  partial = warp_reduce_sum(partial);            // WARP_TOTAL_RED\n");
        }
        Some(WarpReduction::Bitmap) => {
            out.push_str("  partial = warp_bitmap_reduce(partial, bitmap); // WARP_BITMAP_RED\n");
        }
        Some(WarpReduction::Segmented) => {
            out.push_str("  partial = warp_segmented_sum(partial, flags);  // WARP_SEG_RED\n");
        }
        None => {}
    }
    match plan.reduction.block {
        Some(BlockReduction::SharedOffset) => {
            out.push_str(
                "  // SHMEM_OFFSET_RED (adapter copies register partials into shared memory)\n\
                 \x20 shared_partials[threadIdx.x] = partial; __syncthreads();\n\
                 \x20 reduce_rows_by_offset(shared_partials, row_offsets_in_block);\n",
            );
        }
        Some(BlockReduction::SharedTotal) => {
            out.push_str(
                "  shared_partials[threadIdx.x] = partial; __syncthreads();\n\
                 \x20 block_total = block_reduce_sum(shared_partials); // SHMEM_TOTAL_RED\n",
            );
        }
        None => {}
    }
    if plan.reduction.global_atomic {
        out.push_str("  atomicAdd(&y[origin_rows[row]], partial);        // GMEM_ATOM_RED\n");
    } else {
        out.push_str("  y[origin_rows[row]] = partial;                   // direct store\n");
    }
    out
}

fn emit_host_launcher(metadata: &MatrixMetadataSet, format: &MachineFormat) -> String {
    let mut out = String::new();
    out.push_str("// ---- host launcher ----\n");
    out.push_str("void alphasparse_spmv(const float* x, float* y) {\n");
    for (i, pf) in format.partitions.iter().enumerate() {
        out.push_str(&format!(
            "  alphasparse_partition_{i}<<<{}, {}>>>(values_{i}, col_indices_{i}, x, y);\n",
            pf.layout.blocks, pf.layout.threads_per_block
        ));
    }
    out.push_str(&format!(
        "  // total format footprint: {} bytes for {} stored non-zeros\n",
        format.bytes(),
        metadata.original_nnz
    ));
    out.push_str("}\n");
    out
}

fn describe_model(model: &CompressionModel, exceptions: usize) -> String {
    let base = match model {
        CompressionModel::Linear { base, slope } => format!("value(i) = {base} + {slope} * i"),
        CompressionModel::Step {
            base,
            slope,
            period,
        } => {
            format!("value(i) = {base} + {slope} * (i / {period})")
        }
        CompressionModel::PeriodicLinear { slope, period, .. } => {
            format!("value(i) = pattern[i % {period}] + {slope} * (i / {period})")
        }
    };
    if exceptions > 0 {
        format!("{base} ({exceptions} patched exception(s))")
    } else {
        base
    }
}

#[cfg(test)]
mod tests {
    use crate::{generate, GeneratorOptions};
    use alpha_graph::presets;
    use alpha_matrix::gen;

    fn source_for(graph: &alpha_graph::OperatorGraph) -> String {
        let matrix = gen::uniform_random(512, 512, 8, 3);
        generate(graph, &matrix, GeneratorOptions::default())
            .unwrap()
            .source()
    }

    #[test]
    fn emitted_source_contains_kernel_and_launcher() {
        let src = source_for(&presets::sell_like());
        assert!(src.contains("__global__ void alphasparse_partition_0"));
        assert!(src.contains("alphasparse_spmv"));
        assert!(src.contains("<<<"));
    }

    #[test]
    fn reduction_fragments_match_operators() {
        let src = source_for(&presets::csr5_like(16));
        assert!(src.contains("WARP_SEG_RED"));
        assert!(src.contains("atomicAdd"));
        assert!(src.contains("THREAD_BITMAP_RED"));

        let src = source_for(&presets::csr_adaptive_like());
        assert!(src.contains("SHMEM_OFFSET_RED"));
        assert!(src.contains("__syncthreads"));
    }

    #[test]
    fn compression_is_documented_in_source() {
        let src = source_for(&presets::csr_scalar());
        assert!(src.contains("Model-Driven Format Compression"));
        assert!(src.contains("value(i) ="));
    }

    #[test]
    fn branched_designs_emit_one_kernel_per_partition() {
        let src = source_for(&presets::row_split_hybrid(2));
        assert!(src.contains("alphasparse_partition_0"));
        assert!(src.contains("alphasparse_partition_1"));
    }

    #[test]
    fn operator_provenance_is_embedded() {
        let src = source_for(&presets::figure5_example());
        assert!(src.contains("COMPRESS"));
        assert!(src.contains("BMT_PAD"));
        assert!(src.contains("GMEM_ATOM_RED"));
    }
}
