//! The kernel abstraction executed by the simulator.
//!
//! Everything that runs on the simulated GPU — the artificial-format
//! baselines and the machine-designed kernels produced by the Format & Kernel
//! Generator — implements [`SpmvKernel`].  A kernel reads its format arrays
//! (its "device memory") and describes, block by block, the work each thread
//! performs.
//!
//! A machine-designed kernel runs as a [`SimKernel`]: it borrows the
//! generated kernel and its format, and assembles the kernel skeleton and
//! the reduction fragments the implementing stage chose (paper Section V-C,
//! Figures 6 and 7).  The simulator both executes it (producing the actual
//! `y = A·x`) and charges it the costs its design implies: padded loads,
//! interleaved (coalesced) versus per-thread (uncoalesced) streaming,
//! x gathers per row segment, shared memory staging for the `SHMEM_*`
//! reductions, warp shuffles, and atomics.

use crate::context::BlockContext;
use crate::launch::LaunchConfig;
use crate::memory::Access;
use crate::WARP_SIZE;
use alpha_codegen::layout::PartitionLayout;
use alpha_codegen::{DeviceProfile, GeneratedKernel, MachineFormat};
use alpha_graph::{Mapping, PartitionPlan};
use alpha_matrix::{CsrMatrix, Scalar};

/// A kernel that the GPU simulator can launch.
pub trait SpmvKernel: Send + Sync {
    /// Human-readable kernel name (used in reports and EXPERIMENTS.md).
    fn name(&self) -> String;

    /// Launch configuration for the given device.
    fn launch_config(&self, device: &DeviceProfile) -> LaunchConfig;

    /// Executes one thread block: performs the block's share of `y = A·x`
    /// through the context and reports the cost events.
    fn execute_block(&self, block_id: usize, ctx: &mut BlockContext<'_>);

    /// Total bytes of format arrays (values, indices, offsets) resident in
    /// simulated device memory; feeds the L2 working-set model.
    fn format_bytes(&self) -> usize;

    /// Useful floating-point work of the SpMV: `2 * nnz` of the *original*
    /// matrix (padding does not count).
    fn useful_flops(&self) -> u64;

    /// Number of rows of the output vector.
    fn output_rows(&self) -> usize;

    /// Number of columns of the input vector.
    fn input_cols(&self) -> usize;
}

/// A straightforward CSR row-per-thread ("CSR-scalar") kernel.
///
/// It is the reference kernel the simulator's own tests run.
pub struct ReferenceCsrKernel {
    matrix: CsrMatrix,
    block_dim: usize,
}

impl ReferenceCsrKernel {
    /// Wraps a CSR matrix with the default 128-thread blocks.
    pub fn new(matrix: CsrMatrix) -> Self {
        ReferenceCsrKernel {
            matrix,
            block_dim: 128,
        }
    }

    /// Wraps a CSR matrix with a custom block size (must be a multiple of the
    /// warp size).
    pub fn with_block_dim(matrix: CsrMatrix, block_dim: usize) -> Self {
        assert!(
            block_dim.is_multiple_of(WARP_SIZE) && block_dim > 0,
            "invalid block size {block_dim}"
        );
        ReferenceCsrKernel { matrix, block_dim }
    }
}

impl SpmvKernel for ReferenceCsrKernel {
    fn name(&self) -> String {
        "csr-scalar-reference".to_string()
    }

    fn launch_config(&self, _device: &DeviceProfile) -> LaunchConfig {
        let grid = self.matrix.rows().div_ceil(self.block_dim).max(1);
        LaunchConfig::new(grid, self.block_dim)
    }

    fn execute_block(&self, block_id: usize, ctx: &mut BlockContext<'_>) {
        let base_row = block_id * self.block_dim;
        for tid in 0..self.block_dim {
            let row = base_row + tid;
            if row >= self.matrix.rows() {
                break;
            }
            ctx.thread(tid);
            let range = self.matrix.row_range(row);
            let len = range.len();
            if len == 0 {
                continue;
            }
            // Row offsets: two 4-byte loads, effectively coalesced across the
            // warp because adjacent threads read adjacent offsets.
            ctx.load_matrix_stream(Access::WarpCoalesced, 2, 4);
            // Values and column indices: contiguous for this thread but not
            // across lanes (the classic CSR-scalar weakness).
            ctx.load_matrix_stream(Access::ThreadContiguous, len, 4);
            ctx.load_matrix_stream(Access::ThreadContiguous, len, 4);
            let cols = &self.matrix.col_indices()[range.clone()];
            ctx.gather_x_cost(cols);
            let mut acc = 0.0;
            for idx in range {
                let col = self.matrix.col_indices()[idx] as usize;
                acc += self.matrix.values()[idx] * ctx.x(col);
            }
            ctx.mul_add(len);
            ctx.store_y(row, acc);
        }
    }

    fn format_bytes(&self) -> usize {
        self.matrix.format_bytes()
    }

    fn useful_flops(&self) -> u64 {
        2 * self.matrix.nnz() as u64
    }

    fn output_rows(&self) -> usize {
        self.matrix.rows()
    }

    fn input_cols(&self) -> usize {
        self.matrix.cols()
    }
}

/// Per-partition execution state derived from the extracted format.
struct PartitionExec<'a> {
    layout: &'a PartitionLayout,
    origin_rows_compressed: bool,
    addressing_compressed: bool,
    row_starts_compressed: bool,
}

/// A generated kernel and its format, runnable on [`GpuSim`](crate::GpuSim).
pub struct SimKernel<'a> {
    kernel: &'a GeneratedKernel,
    execs: Vec<PartitionExec<'a>>,
    directory: BlockDirectory,
    block_dim: usize,
    shared_mem_bytes: usize,
}

impl<'a> SimKernel<'a> {
    /// Builds the simulated kernel from a generated kernel and the format
    /// it was generated with.
    pub fn new(kernel: &'a GeneratedKernel, format: &'a MachineFormat) -> Self {
        let metadata = kernel.metadata();
        assert_eq!(
            metadata.partitions.len(),
            format.partitions.len(),
            "metadata and format must describe the same partitions"
        );
        let execs: Vec<PartitionExec<'a>> = metadata
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
                    layout: &pf.layout,
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
        SimKernel {
            kernel,
            execs,
            directory,
            block_dim,
            shared_mem_bytes,
        }
    }

    // ---- execution paths ----------------------------------------------------

    fn exec_row_per_thread(
        &self,
        plan: &PartitionPlan,
        exec: &PartitionExec<'_>,
        rows_per_thread: usize,
        local_block: usize,
        ctx: &mut BlockContext<'_>,
    ) {
        let layout = exec.layout;
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
                    write_y(plan, orig, acc, ctx);
                }
            }
        }

        if use_block_red {
            flush_staged(plan, layout, staged, ctx);
        }
    }

    fn exec_vector_per_row(
        &self,
        plan: &PartitionPlan,
        exec: &PartitionExec<'_>,
        threads_per_row: usize,
        local_block: usize,
        ctx: &mut BlockContext<'_>,
    ) {
        let layout = exec.layout;
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
                write_y(plan, orig, partials.iter().sum(), ctx);
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
            flush_staged(plan, layout, staged, ctx);
        }
    }

    fn exec_nnz_split(
        &self,
        plan: &PartitionPlan,
        exec: &PartitionExec<'_>,
        nnz_per_thread: usize,
        local_block: usize,
        ctx: &mut BlockContext<'_>,
    ) {
        let layout = exec.layout;
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

/// Writes a row's result: by global atomic when the partition's reduction
/// ends in one, by a plain store otherwise.
fn write_y(plan: &PartitionPlan, row: usize, value: Scalar, ctx: &mut BlockContext<'_>) {
    if plan.reduction.global_atomic {
        ctx.atomic_add_y(row, value);
    } else {
        ctx.store_y(row, value);
    }
}

/// The second half of a block-level reduction: after the barrier, the
/// block's threads write the partials staged in shared memory.
fn flush_staged(
    plan: &PartitionPlan,
    layout: &PartitionLayout,
    staged: Vec<(usize, Scalar)>,
    ctx: &mut BlockContext<'_>,
) {
    ctx.syncthreads();
    for (i, (orig, acc)) in staged.into_iter().enumerate() {
        ctx.thread(i % layout.threads_per_block);
        ctx.shared_traffic(4);
        write_y(plan, orig, acc, ctx);
    }
}

impl SpmvKernel for SimKernel<'_> {
    fn name(&self) -> String {
        self.kernel.name().to_string()
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
        let plan = &self.kernel.metadata().partitions[partition];
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
        self.kernel.format_bytes()
    }

    fn useful_flops(&self) -> u64 {
        2 * self.kernel.metadata().original_nnz as u64
    }

    fn output_rows(&self) -> usize {
        self.kernel.metadata().original_rows
    }

    fn input_cols(&self) -> usize {
        self.kernel.metadata().original_cols
    }
}

/// Splits a global thread-block id range over partitions: returns, for a
/// composite kernel, the partition index and local block id of a global
/// block.
#[derive(Debug, Clone)]
struct BlockDirectory {
    /// Exclusive prefix sums of per-partition block counts.
    offsets: Vec<usize>,
}

impl BlockDirectory {
    /// Builds the directory from per-partition block counts.
    fn new(blocks_per_partition: &[usize]) -> Self {
        let offsets = std::iter::once(0)
            .chain(blocks_per_partition.iter().scan(0, |total, &b| {
                *total += b;
                Some(*total)
            }))
            .collect();
        BlockDirectory { offsets }
    }

    /// Total number of blocks across partitions.
    fn total_blocks(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// Maps a global block id to `(partition, local block id)`.
    fn locate(&self, global_block: usize) -> Option<(usize, usize)> {
        if global_block >= self.total_blocks() {
            return None;
        }
        // The last partition starting at or before the block: an empty
        // partition shares its start with the next one and is skipped.
        let partition = self.offsets.partition_point(|&start| start <= global_block) - 1;
        Some((partition, global_block - self.offsets[partition]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::GpuSim;
    use alpha_codegen::{generate, GeneratorOptions};
    use alpha_graph::presets;
    use alpha_matrix::gen;
    use alpha_matrix::DenseVector;

    #[test]
    fn reference_kernel_computes_correct_spmv() {
        let matrix = gen::uniform_random(300, 300, 9, 4);
        let x = DenseVector::random(300, 1);
        let expected = matrix.spmv(x.as_slice()).unwrap();
        let kernel = ReferenceCsrKernel::new(matrix);
        let sim = GpuSim::new(DeviceProfile::test_profile());
        let result = sim.run(&kernel, x.as_slice()).unwrap();
        assert!(DenseVector::from_vec(result.y.clone()).approx_eq(&expected, 1e-4));
        assert!(result.report.gflops > 0.0);
    }

    #[test]
    fn launch_config_covers_all_rows() {
        let matrix = gen::uniform_random(1000, 1000, 3, 2);
        let kernel = ReferenceCsrKernel::with_block_dim(matrix, 64);
        let lc = kernel.launch_config(&DeviceProfile::test_profile());
        assert!(lc.grid_dim * lc.block_dim >= 1000);
    }

    #[test]
    #[should_panic(expected = "invalid block size")]
    fn invalid_block_dim_panics() {
        ReferenceCsrKernel::with_block_dim(gen::uniform_random(8, 8, 2, 1), 48);
    }

    #[test]
    fn useful_flops_is_twice_nnz() {
        let matrix = gen::uniform_random(64, 64, 4, 3);
        let nnz = matrix.nnz() as u64;
        let kernel = ReferenceCsrKernel::new(matrix);
        assert_eq!(kernel.useful_flops(), 2 * nnz);
    }

    /// Generates `graph` on `matrix` and simulates it on `device`: the
    /// format's bytes and the simulation.
    fn simulate(
        graph: &alpha_graph::OperatorGraph,
        matrix: &CsrMatrix,
        model_compression: bool,
        device: DeviceProfile,
        x: &DenseVector,
    ) -> (usize, crate::SimResult) {
        let generated = generate(graph, matrix, GeneratorOptions { model_compression }).unwrap();
        let kernel = SimKernel::new(&generated.kernel, &generated.format);
        let result = GpuSim::new(device).run(&kernel, x.as_slice()).unwrap();
        (generated.kernel.format_bytes(), result)
    }

    fn check_graph(graph: &alpha_graph::OperatorGraph, matrix: &CsrMatrix) {
        let x = DenseVector::random(matrix.cols(), 7);
        let expected = matrix.spmv(x.as_slice()).unwrap();
        let (_, result) = simulate(graph, matrix, true, DeviceProfile::test_profile(), &x);
        assert!(
            DenseVector::from_vec(result.y).approx_eq(&expected, 1e-3),
            "incorrect result for {graph}"
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

    /// Modelled GFLOP/s of `graph` on `matrix` on the A100.
    fn a100_gflops(graph: &alpha_graph::OperatorGraph, matrix: &CsrMatrix) -> f64 {
        let x = DenseVector::ones(matrix.cols());
        simulate(graph, matrix, true, DeviceProfile::a100(), &x)
            .1
            .report
            .gflops
    }

    #[test]
    fn interleaved_padded_design_beats_unpadded_scalar_on_regular_matrix() {
        // SELL-style coalesced access should model faster than CSR-scalar's
        // per-thread strided access on a regular matrix.
        let matrix = gen::uniform_random(8_192, 8_192, 16, 5);
        let scalar = a100_gflops(&presets::csr_scalar(), &matrix);
        let sell = a100_gflops(&presets::sell_like(), &matrix);
        assert!(
            sell > scalar,
            "SELL-like {sell} should beat CSR-scalar {scalar}"
        );
    }

    #[test]
    fn nnz_split_design_wins_on_irregular_matrix() {
        // Load-balanced nnz splitting should model faster than row-per-thread
        // on a heavy-tailed matrix (the CSR5/merge advantage).
        let matrix = gen::powerlaw(8_192, 8_192, 16, 1.8, 9);
        let scalar = a100_gflops(&presets::csr_scalar(), &matrix);
        let csr5 = a100_gflops(&presets::csr5_like(16), &matrix);
        assert!(
            csr5 > scalar,
            "nnz-split {csr5} should beat CSR-scalar {scalar} on irregular data"
        );
    }

    #[test]
    fn launch_config_respects_device_limits() {
        let matrix = gen::uniform_random(1_000, 1_000, 8, 1);
        for (name, graph) in presets::all_presets() {
            let generated = generate(&graph, &matrix, GeneratorOptions::default()).unwrap();
            let device = DeviceProfile::a100();
            let lc = SimKernel::new(&generated.kernel, &generated.format).launch_config(&device);
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
        let graph = presets::sell_sigma_like(32);
        let (on_bytes, on) = simulate(&graph, &matrix, true, DeviceProfile::a100(), &x);
        let (off_bytes, off) = simulate(&graph, &matrix, false, DeviceProfile::a100(), &x);
        assert!(on_bytes <= off_bytes);
        assert!(DenseVector::from_vec(on.y.clone()).approx_eq(&expected, 1e-3));
        assert!(DenseVector::from_vec(off.y.clone()).approx_eq(&expected, 1e-3));
        // Compression never hurts the modelled performance.
        assert!(on.report.gflops >= off.report.gflops * 0.999);
    }

    #[test]
    fn block_directory_locates_partitions() {
        let dir = BlockDirectory::new(&[3, 0, 2]);
        assert_eq!(dir.total_blocks(), 5);
        assert_eq!(dir.locate(0), Some((0, 0)));
        assert_eq!(dir.locate(2), Some((0, 2)));
        assert_eq!(dir.locate(3), Some((2, 0)));
        assert_eq!(dir.locate(4), Some((2, 1)));
        assert_eq!(dir.locate(5), None);
    }
}
