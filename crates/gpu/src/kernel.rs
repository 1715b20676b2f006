//! The kernel abstraction executed by the simulator.
//!
//! Everything that runs on the simulated GPU — the artificial-format
//! baselines and the machine-designed kernels produced by the Format & Kernel
//! Generator — implements [`SpmvKernel`].  A kernel owns its format arrays
//! (its "device memory") and describes, block by block, the work each thread
//! performs.

use crate::context::BlockContext;
use crate::device::DeviceProfile;
use crate::launch::LaunchConfig;
use crate::memory::Access;
use crate::WARP_SIZE;
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
/// It doubles as the reference implementation used in the simulator's own
/// tests and as the building block of several baselines.
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

    /// Access to the wrapped matrix.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
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

/// Helper: accumulate the product of a value stream against gathered x
/// entries; shared by several baseline kernels.
pub fn dot_segment(ctx: &mut BlockContext<'_>, values: &[Scalar], cols: &[u32]) -> Scalar {
    debug_assert_eq!(values.len(), cols.len());
    let mut acc = 0.0;
    for (v, &c) in values.iter().zip(cols) {
        acc += v * ctx.x(c as usize);
    }
    ctx.mul_add(values.len());
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::GpuSim;
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
}
