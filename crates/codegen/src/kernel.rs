//! The Kernel Builder: assembles an executable kernel from the kernel
//! skeleton and the reduction fragments chosen by the implementing stage
//! (paper Section V-C, Figures 6 and 7).
//!
//! The generated kernel implements [`SpmvKernel`], so the `alpha-gpu`
//! simulator both executes it (producing the actual `y = A·x`) and charges it
//! the costs its design implies: padded loads, interleaved (coalesced) versus
//! per-thread (uncoalesced) streaming, x gathers per row segment, shared
//! memory staging for the `SHMEM_*` reductions, warp shuffles, and atomics.

use crate::format::MachineFormat;
use crate::layout::{BlockDirectory, PartitionLayout};
use alpha_gpu::memory::Access;
use alpha_gpu::{BlockContext, DeviceProfile, LaunchConfig, SpmvKernel, WARP_SIZE};
use alpha_graph::{Mapping, MatrixMetadataSet, PartitionPlan, SimdPlan};
use alpha_matrix::Scalar;

/// Per-partition execution state derived from the extracted format.
#[derive(Debug, Clone)]
struct PartitionExec {
    layout: PartitionLayout,
    origin_rows_compressed: bool,
    addressing_compressed: bool,
    row_starts_compressed: bool,
}

/// A machine-designed SpMV kernel generated from an operator graph.
pub struct GeneratedKernel {
    metadata: MatrixMetadataSet,
    execs: Vec<PartitionExec>,
    directory: BlockDirectory,
    format_bytes: usize,
    block_dim: usize,
    shared_mem_bytes: usize,
    name: String,
}

impl GeneratedKernel {
    /// Builds the kernel from the designed metadata and the extracted format.
    pub fn new(metadata: MatrixMetadataSet, format: &MachineFormat) -> Self {
        assert_eq!(
            metadata.partitions.len(),
            format.partitions.len(),
            "metadata and format must describe the same partitions"
        );
        let execs: Vec<PartitionExec> = metadata
            .partitions
            .iter()
            .zip(&format.partitions)
            .map(|(plan, pf)| {
                let addressing = if plan.padding.is_some() {
                    pf.is_array_compressed("bmt_nz_offsets")
                } else {
                    pf.is_array_compressed("row_offsets")
                };
                PartitionExec {
                    layout: pf.layout.clone(),
                    origin_rows_compressed: pf.is_array_compressed("origin_rows"),
                    addressing_compressed: addressing,
                    row_starts_compressed: pf.is_array_compressed("bmt_row_starts"),
                }
            })
            .collect();
        let directory =
            BlockDirectory::new(&execs.iter().map(|e| e.layout.blocks).collect::<Vec<_>>());
        let block_dim = execs
            .iter()
            .map(|e| e.layout.threads_per_block)
            .max()
            .unwrap_or(WARP_SIZE)
            .max(WARP_SIZE);
        let uses_shared = metadata
            .partitions
            .iter()
            .any(|p| p.reduction.block.is_some());
        let shared_mem_bytes = if uses_shared { block_dim * 8 } else { 0 };
        let name = format!(
            "alphasparse[{}]",
            metadata
                .partitions
                .first()
                .map(|p| p.describe())
                .unwrap_or_else(|| "empty".to_string())
        );
        GeneratedKernel {
            execs,
            directory,
            format_bytes: format.bytes(),
            block_dim,
            shared_mem_bytes,
            name,
            metadata,
        }
    }

    /// The designed metadata this kernel was built from.
    pub fn metadata(&self) -> &MatrixMetadataSet {
        &self.metadata
    }

    /// Overwrites each partition's vectorization directive; see
    /// [`GeneratedSpmv::set_simd_plans`](crate::GeneratedSpmv::set_simd_plans).
    pub(crate) fn set_simd_plans(&mut self, plans: &[SimdPlan]) {
        assert_eq!(
            plans.len(),
            self.metadata.partitions.len(),
            "one SIMD plan per partition"
        );
        for (partition, plan) in self.metadata.partitions.iter_mut().zip(plans) {
            partition.simd = *plan;
        }
    }

    /// Padding overhead: stored slots divided by real non-zeros.
    pub fn padding_ratio(&self) -> f64 {
        let padded: usize = self.execs.iter().map(|e| e.layout.padded_nnz).sum();
        if self.metadata.original_nnz == 0 {
            1.0
        } else {
            padded as f64 / self.metadata.original_nnz as f64
        }
    }

    // ---- execution paths ----------------------------------------------------

    fn exec_row_per_thread(
        &self,
        plan: &PartitionPlan,
        exec: &PartitionExec,
        rows_per_thread: usize,
        local_block: usize,
        ctx: &mut BlockContext<'_>,
    ) {
        let layout = &exec.layout;
        let rows = plan.matrix.rows();
        let rows_per_block = layout.rows_per_block;
        let first_row = local_block * rows_per_block;
        if first_row >= rows {
            return;
        }
        let last_row = (first_row + rows_per_block).min(rows);
        let threads_in_block = (last_row - first_row).div_ceil(rows_per_thread);
        let use_block_red = plan.reduction.block.is_some();
        let access = if plan.interleaved {
            Access::WarpCoalesced
        } else {
            Access::ThreadContiguous
        };
        let mut staged: Vec<(usize, Scalar)> = Vec::new();

        for t in 0..threads_in_block {
            let tid = t % layout.threads_per_block;
            ctx.thread(tid);
            let chunk_first = first_row + t * rows_per_thread;
            let chunk_last = (chunk_first + rows_per_thread).min(last_row);
            let chunk_index = chunk_first / rows_per_thread;
            let raw_len: usize = (chunk_first..chunk_last)
                .map(|r| plan.matrix.row_len(r))
                .sum();
            let padded_len = layout
                .padded_chunk_lens
                .get(chunk_index)
                .map(|&l| l as usize)
                .unwrap_or(raw_len)
                .max(raw_len);

            // Addressing metadata: chunk offset + size (or row offsets).
            if exec.addressing_compressed {
                ctx.alu(2);
            } else {
                ctx.load_matrix_stream(Access::WarpCoalesced, 2, 4);
            }
            // Value and column-index streams, including padding slots.
            if padded_len > 0 {
                ctx.load_matrix_stream(access, padded_len, 4);
                ctx.load_matrix_stream(access, padded_len, 4);
                ctx.mul_add(padded_len);
            }

            for row in chunk_first..chunk_last {
                let range = plan.matrix.row_range(row);
                if range.is_empty() {
                    continue;
                }
                let cols = &plan.matrix.col_indices()[range.clone()];
                ctx.gather_x_cost(cols);
                let mut acc = 0.0;
                for idx in range {
                    let col = plan.matrix.col_indices()[idx] as usize + plan.col_offset;
                    acc += plan.matrix.values()[idx] * ctx.x(col);
                }
                let orig = plan.origin_rows[row] as usize;
                if exec.origin_rows_compressed {
                    ctx.alu(1);
                } else {
                    ctx.load_matrix_stream(Access::WarpCoalesced, 1, 4);
                }
                if use_block_red {
                    // Stage the partial (value + row id) through shared memory.
                    ctx.shared_traffic(8);
                    staged.push((orig, acc));
                } else {
                    if plan.reduction.warp.is_some() {
                        // A warp-level reduction over a row-exclusive mapping
                        // is wasted work; charge it anyway.
                        ctx.warp_shuffle_reduce(WARP_SIZE);
                    }
                    if plan.reduction.global_atomic {
                        ctx.atomic_add_y(orig, acc);
                    } else {
                        ctx.store_y(orig, acc);
                    }
                }
            }
        }

        if use_block_red {
            ctx.syncthreads();
            for (i, (orig, acc)) in staged.into_iter().enumerate() {
                ctx.thread(i % layout.threads_per_block);
                ctx.shared_traffic(4);
                if plan.reduction.global_atomic {
                    ctx.atomic_add_y(orig, acc);
                } else {
                    ctx.store_y(orig, acc);
                }
            }
        }
    }

    fn exec_vector_per_row(
        &self,
        plan: &PartitionPlan,
        exec: &PartitionExec,
        threads_per_row: usize,
        local_block: usize,
        ctx: &mut BlockContext<'_>,
    ) {
        let layout = &exec.layout;
        let rows = plan.matrix.rows();
        let rows_per_block = layout.rows_per_block.max(1);
        let first_row = local_block * rows_per_block;
        if first_row >= rows {
            return;
        }
        let last_row = (first_row + rows_per_block).min(rows);
        let use_block_red = plan.reduction.block.is_some();
        let mut staged: Vec<(usize, Scalar)> = Vec::new();
        let mut partials: Vec<Scalar> = Vec::with_capacity(threads_per_row);

        for (local_row, row) in (first_row..last_row).enumerate() {
            let range = plan.matrix.row_range(row);
            let row_len = range.len();
            let lead_tid = (local_row * threads_per_row) % layout.threads_per_block;
            ctx.thread(lead_tid);
            // Row offsets read by the leading lane of the group.
            if exec.addressing_compressed {
                ctx.alu(2);
            } else {
                ctx.load_matrix_stream(Access::WarpCoalesced, 2, 4);
            }
            if exec.origin_rows_compressed {
                ctx.alu(1);
            } else {
                ctx.load_matrix_stream(Access::WarpCoalesced, 1, 4);
            }
            let orig = plan.origin_rows[row] as usize;
            if row_len == 0 {
                continue;
            }
            let per_thread = row_len.div_ceil(threads_per_row);
            partials.clear();
            for v in 0..threads_per_row {
                let seg_start = range.start + v * per_thread;
                if seg_start >= range.end {
                    break;
                }
                let seg_end = (seg_start + per_thread).min(range.end);
                let tid = (local_row * threads_per_row + v) % layout.threads_per_block;
                ctx.thread(tid);
                let seg_len = seg_end - seg_start;
                // The group streams the row cooperatively: coalesced.
                ctx.load_matrix_stream(Access::WarpCoalesced, seg_len, 4);
                ctx.load_matrix_stream(Access::WarpCoalesced, seg_len, 4);
                ctx.gather_x_cost(&plan.matrix.col_indices()[seg_start..seg_end]);
                let mut acc = 0.0;
                for idx in seg_start..seg_end {
                    let col = plan.matrix.col_indices()[idx] as usize + plan.col_offset;
                    acc += plan.matrix.values()[idx] * ctx.x(col);
                }
                ctx.mul_add(seg_len);
                partials.push(acc);
            }

            ctx.thread(lead_tid);
            if let Some(_warp) = plan.reduction.warp {
                ctx.warp_shuffle_reduce(threads_per_row.max(2));
                let total: Scalar = partials.iter().sum();
                if plan.reduction.global_atomic {
                    ctx.atomic_add_y(orig, total);
                } else {
                    ctx.store_y(orig, total);
                }
            } else if use_block_red {
                ctx.shared_traffic(partials.len() * 8);
                staged.push((orig, partials.iter().sum()));
            } else {
                // Only global atomics can combine the partials.
                for &p in &partials {
                    ctx.atomic_add_y(orig, p);
                }
            }
        }

        if use_block_red {
            ctx.syncthreads();
            for (i, (orig, acc)) in staged.into_iter().enumerate() {
                ctx.thread(i % layout.threads_per_block);
                ctx.shared_traffic(4);
                if plan.reduction.global_atomic {
                    ctx.atomic_add_y(orig, acc);
                } else {
                    ctx.store_y(orig, acc);
                }
            }
        }
    }

    fn exec_nnz_split(
        &self,
        plan: &PartitionPlan,
        exec: &PartitionExec,
        nnz_per_thread: usize,
        local_block: usize,
        ctx: &mut BlockContext<'_>,
    ) {
        let layout = &exec.layout;
        let nnz = plan.matrix.nnz();
        let offsets = plan.matrix.row_offsets();
        let first_thread = local_block * layout.threads_per_block;

        for t in 0..layout.threads_per_block {
            let global_thread = first_thread + t;
            let start = global_thread * nnz_per_thread;
            if start >= nnz {
                break;
            }
            let end = (start + nnz_per_thread).min(nnz);
            let len = end - start;
            ctx.thread(t);

            // Value and column streams: adjacent threads read adjacent tiles,
            // effectively coalesced (the CSR5 / merge layout).
            ctx.load_matrix_stream(Access::WarpCoalesced, len, 4);
            ctx.load_matrix_stream(Access::WarpCoalesced, len, 4);
            ctx.mul_add(len);
            // Per-chunk row-start descriptor.
            if exec.row_starts_compressed {
                ctx.alu(1);
            } else {
                ctx.load_matrix_stream(Access::WarpCoalesced, 1, 4);
            }

            // Find the first row of this chunk.
            let mut row = match offsets.binary_search(&(start as u32)) {
                Ok(r) => r.min(plan.matrix.rows().saturating_sub(1)),
                Err(r) => r.saturating_sub(1),
            };
            ctx.alu((plan.matrix.rows().max(2) as f64).log2() as usize + 1);

            let mut cursor = start;
            let mut rows_touched = 0usize;
            while cursor < end {
                let row_end = offsets[row + 1] as usize;
                let seg_end = row_end.min(end);
                let seg_len = seg_end - cursor;
                if seg_len > 0 {
                    ctx.gather_x_cost(&plan.matrix.col_indices()[cursor..seg_end]);
                    let mut acc = 0.0;
                    for idx in cursor..seg_end {
                        let col = plan.matrix.col_indices()[idx] as usize + plan.col_offset;
                        acc += plan.matrix.values()[idx] * ctx.x(col);
                    }
                    // Bitmap bookkeeping for the row boundary walk.
                    ctx.alu(seg_len);
                    if exec.origin_rows_compressed {
                        ctx.alu(1);
                    } else {
                        ctx.load_matrix_stream(Access::WarpCoalesced, 1, 4);
                    }
                    let orig = plan.origin_rows[row] as usize;
                    let starts_mid_row = cursor == start && start != offsets[row] as usize;
                    let ends_mid_row = seg_end == end && seg_end != row_end;
                    let boundary = starts_mid_row || ends_mid_row;
                    if boundary {
                        if plan.reduction.warp.is_some() {
                            // Boundary partials merged with the neighbouring
                            // lane by the warp-level segmented sum.
                            ctx.warp_shuffle_reduce(2);
                            ctx.store_y(orig, acc);
                        } else {
                            ctx.atomic_add_y(orig, acc);
                        }
                    } else {
                        ctx.store_y(orig, acc);
                    }
                    rows_touched += 1;
                }
                cursor = seg_end;
                row += 1;
            }
            // Row offsets covering the touched rows.
            if exec.addressing_compressed {
                ctx.alu(rows_touched + 1);
            } else {
                ctx.load_matrix_stream(Access::WarpCoalesced, rows_touched + 1, 4);
            }
        }
    }
}

impl SpmvKernel for GeneratedKernel {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn launch_config(&self, _device: &DeviceProfile) -> LaunchConfig {
        LaunchConfig::with_shared_mem(
            self.directory.total_blocks().max(1),
            self.block_dim,
            self.shared_mem_bytes,
        )
    }

    fn execute_block(&self, block_id: usize, ctx: &mut BlockContext<'_>) {
        let Some((partition, local_block)) = self.directory.locate(block_id) else {
            return;
        };
        let plan = &self.metadata.partitions[partition];
        let exec = &self.execs[partition];
        match plan.mapping {
            Mapping::RowPerThread { rows_per_thread } => {
                self.exec_row_per_thread(plan, exec, rows_per_thread.max(1), local_block, ctx)
            }
            Mapping::VectorPerRow { threads_per_row } => {
                self.exec_vector_per_row(plan, exec, threads_per_row.max(1), local_block, ctx)
            }
            Mapping::NnzSplit { nnz_per_thread } => {
                self.exec_nnz_split(plan, exec, nnz_per_thread.max(1), local_block, ctx)
            }
        }
    }

    fn format_bytes(&self) -> usize {
        self.format_bytes
    }

    fn useful_flops(&self) -> u64 {
        2 * self.metadata.original_nnz as u64
    }

    fn output_rows(&self) -> usize {
        self.metadata.original_rows
    }

    fn input_cols(&self) -> usize {
        self.metadata.original_cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate, GeneratorOptions};
    use alpha_gpu::GpuSim;
    use alpha_graph::presets;
    use alpha_matrix::{gen, DenseVector};

    fn check_graph(graph: &alpha_graph::OperatorGraph, matrix: &alpha_matrix::CsrMatrix) {
        let x = DenseVector::random(matrix.cols(), 7);
        let expected = matrix.spmv(x.as_slice()).unwrap();
        let generated = generate(graph, matrix, GeneratorOptions::default()).unwrap();
        let sim = GpuSim::new(DeviceProfile::test_profile());
        let result = sim.run(&generated.kernel, x.as_slice()).unwrap();
        assert!(
            DenseVector::from_vec(result.y.clone()).approx_eq(&expected, 1e-3),
            "incorrect result for {}",
            generated.kernel.name()
        );
    }

    #[test]
    fn every_preset_is_correct_on_every_pattern_family() {
        for family in alpha_matrix::gen::PatternFamily::ALL {
            let matrix = family.generate(256, 6, 21);
            for (_, graph) in presets::all_presets() {
                check_graph(&graph, &matrix);
            }
        }
    }

    #[test]
    fn column_split_design_is_correct() {
        let matrix = gen::uniform_random(200, 200, 12, 3);
        check_graph(&presets::col_split_atomic(2), &matrix);
    }

    #[test]
    fn interleaved_padded_design_beats_unpadded_scalar_on_regular_matrix() {
        // SELL-style coalesced access should model faster than CSR-scalar's
        // per-thread strided access on a regular matrix.
        let matrix = gen::uniform_random(8_192, 8_192, 16, 5);
        let x = DenseVector::ones(8_192);
        let sim = GpuSim::new(DeviceProfile::a100());
        let scalar =
            generate(&presets::csr_scalar(), &matrix, GeneratorOptions::default()).unwrap();
        let sell = generate(&presets::sell_like(), &matrix, GeneratorOptions::default()).unwrap();
        let scalar_perf = sim.run(&scalar.kernel, x.as_slice()).unwrap().report;
        let sell_perf = sim.run(&sell.kernel, x.as_slice()).unwrap().report;
        assert!(
            sell_perf.gflops > scalar_perf.gflops,
            "SELL-like {} should beat CSR-scalar {}",
            sell_perf.gflops,
            scalar_perf.gflops
        );
    }

    #[test]
    fn nnz_split_design_wins_on_irregular_matrix() {
        // Load-balanced nnz splitting should model faster than row-per-thread
        // on a heavy-tailed matrix (the CSR5/merge advantage).
        let matrix = gen::powerlaw(8_192, 8_192, 16, 1.8, 9);
        let x = DenseVector::ones(8_192);
        let sim = GpuSim::new(DeviceProfile::a100());
        let scalar =
            generate(&presets::csr_scalar(), &matrix, GeneratorOptions::default()).unwrap();
        let csr5 = generate(
            &presets::csr5_like(16),
            &matrix,
            GeneratorOptions::default(),
        )
        .unwrap();
        let scalar_perf = sim.run(&scalar.kernel, x.as_slice()).unwrap().report;
        let csr5_perf = sim.run(&csr5.kernel, x.as_slice()).unwrap().report;
        assert!(
            csr5_perf.gflops > scalar_perf.gflops,
            "nnz-split {} should beat CSR-scalar {} on irregular data",
            csr5_perf.gflops,
            scalar_perf.gflops
        );
    }

    #[test]
    fn padding_ratio_reflects_padding_operators() {
        let matrix = gen::powerlaw(512, 512, 8, 2.0, 3);
        let padded = generate(&presets::sell_like(), &matrix, GeneratorOptions::default()).unwrap();
        let plain = generate(&presets::csr_scalar(), &matrix, GeneratorOptions::default()).unwrap();
        assert!(padded.kernel.padding_ratio() >= 1.0);
        assert!((plain.kernel.padding_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn launch_config_respects_device_limits() {
        let matrix = gen::uniform_random(1_000, 1_000, 8, 1);
        for (name, graph) in presets::all_presets() {
            let generated = generate(&graph, &matrix, GeneratorOptions::default()).unwrap();
            let device = DeviceProfile::a100();
            let lc = generated.kernel.launch_config(&device);
            assert!(
                lc.validate(&device).is_ok(),
                "{name}: {:?}",
                lc.validate(&device)
            );
        }
    }

    #[test]
    fn model_compression_reduces_format_bytes_and_stays_correct() {
        let matrix = gen::uniform_random(2_048, 2_048, 8, 11);
        let x = DenseVector::random(2_048, 2);
        let expected = matrix.spmv(x.as_slice()).unwrap();
        let on = generate(
            &presets::sell_sigma_like(32),
            &matrix,
            GeneratorOptions {
                model_compression: true,
            },
        )
        .unwrap();
        let off = generate(
            &presets::sell_sigma_like(32),
            &matrix,
            GeneratorOptions {
                model_compression: false,
            },
        )
        .unwrap();
        assert!(on.kernel.format_bytes() <= off.kernel.format_bytes());
        let sim = GpuSim::new(DeviceProfile::a100());
        let ron = sim.run(&on.kernel, x.as_slice()).unwrap();
        let roff = sim.run(&off.kernel, x.as_slice()).unwrap();
        assert!(DenseVector::from_vec(ron.y.clone()).approx_eq(&expected, 1e-3));
        assert!(DenseVector::from_vec(roff.y.clone()).approx_eq(&expected, 1e-3));
        // Compression never hurts the modelled performance.
        assert!(ron.report.gflops >= roff.report.gflops * 0.999);
    }
}
