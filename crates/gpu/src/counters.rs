//! Event counters gathered while a kernel executes on the simulator.
//!
//! [`BlockCounters`] accumulates events for one thread block;
//! [`absorb_block`] merges them into the [`KernelCounters`] of the whole
//! grid, which is what the cost model consumes.

use alpha_codegen::KernelCounters;

/// Counters for a single thread block.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockCounters {
    /// Bytes moved from DRAM for matrix/format data (values, indices,
    /// offsets), including over-fetch from poorly coalesced accesses.
    pub matrix_dram_bytes: f64,
    /// Bytes requested while gathering the dense `x` vector (before the L2
    /// model splits them into DRAM and L2 portions).
    pub x_gather_bytes: f64,
    /// Bytes written to the output vector `y` (including atomic read-modify-
    /// write traffic).
    pub y_write_bytes: f64,
    /// Number of global-memory transactions issued (all spaces).
    pub transactions: u64,
    /// Fused multiply-add operations executed.
    pub fma_ops: u64,
    /// Global atomic additions executed.
    pub atomic_ops: u64,
    /// Atomic operations that collided with another atomic to the same
    /// address inside the same block (serialisation penalty).
    pub atomic_conflicts: u64,
    /// Bytes moved through shared memory.
    pub shared_bytes: f64,
    /// `__syncthreads()` barriers executed.
    pub syncs: u64,
    /// Warp shuffle operations executed.
    pub shuffles: u64,
    /// Latency of this block in SM cycles: the maximum lane time plus
    /// block-wide overheads.  Filled in by `BlockContext::finish`.
    pub block_latency_cycles: f64,
}

/// Merges one block's counters into the kernel-wide totals.
pub fn absorb_block(kernel: &mut KernelCounters, block: &BlockCounters) {
    kernel.matrix_dram_bytes += block.matrix_dram_bytes;
    kernel.x_gather_bytes += block.x_gather_bytes;
    kernel.y_write_bytes += block.y_write_bytes;
    kernel.transactions += block.transactions;
    kernel.fma_ops += block.fma_ops;
    kernel.atomic_ops += block.atomic_ops;
    kernel.atomic_conflicts += block.atomic_conflicts;
    kernel.shared_bytes += block.shared_bytes;
    kernel.syncs += block.syncs;
    kernel.shuffles += block.shuffles;
    kernel.total_block_latency_cycles += block.block_latency_cycles;
    kernel.max_block_latency_cycles = kernel
        .max_block_latency_cycles
        .max(block.block_latency_cycles);
    kernel.blocks += 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(latency: f64, bytes: f64) -> BlockCounters {
        BlockCounters {
            matrix_dram_bytes: bytes,
            fma_ops: 10,
            block_latency_cycles: latency,
            ..Default::default()
        }
    }

    #[test]
    fn absorb_accumulates_and_tracks_max() {
        let mut k = KernelCounters::default();
        absorb_block(&mut k, &block(100.0, 64.0));
        absorb_block(&mut k, &block(300.0, 64.0));
        assert_eq!(k.blocks, 2);
        assert_eq!(k.fma_ops, 20);
        assert_eq!(k.matrix_dram_bytes, 128.0);
        assert_eq!(k.max_block_latency_cycles, 300.0);
        assert_eq!(k.mean_block_latency_cycles(), 200.0);
        assert_eq!(k.block_imbalance(), 1.5);
    }

    #[test]
    fn merge_combines_aggregates() {
        let mut a = KernelCounters::default();
        absorb_block(&mut a, &block(100.0, 10.0));
        let mut b = KernelCounters::default();
        absorb_block(&mut b, &block(500.0, 20.0));
        a.merge(&b);
        assert_eq!(a.blocks, 2);
        assert_eq!(a.max_block_latency_cycles, 500.0);
        assert_eq!(a.total_requested_bytes(), 30.0);
    }

    #[test]
    fn empty_counters_have_sane_defaults() {
        let k = KernelCounters::default();
        assert_eq!(k.mean_block_latency_cycles(), 0.0);
        assert_eq!(k.block_imbalance(), 1.0);
    }
}
