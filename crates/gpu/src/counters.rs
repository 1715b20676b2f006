//! Event counters gathered while a kernel executes on the simulator.
//!
//! [`BlockCounters`] accumulates events for one thread block;
//! [`absorb_block`] merges them into the [`KernelCounters`] of the whole
//! grid, which is what the cost model consumes.

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

/// Counters aggregated over the whole kernel launch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelCounters {
    /// Sum of matrix/format DRAM bytes over all blocks.
    pub matrix_dram_bytes: f64,
    /// Sum of x-gather bytes over all blocks.
    pub x_gather_bytes: f64,
    /// Sum of y-write bytes over all blocks.
    pub y_write_bytes: f64,
    /// Total global transactions.
    pub transactions: u64,
    /// Total fused multiply-adds.
    pub fma_ops: u64,
    /// Total atomics.
    pub atomic_ops: u64,
    /// Total intra-block atomic conflicts.
    pub atomic_conflicts: u64,
    /// Total shared-memory bytes.
    pub shared_bytes: f64,
    /// Total barriers.
    pub syncs: u64,
    /// Total warp shuffles.
    pub shuffles: u64,
    /// Sum of block latencies (cycles); the compute-side roofline input.
    pub total_block_latency_cycles: f64,
    /// Largest single block latency (cycles); bounds the critical path when
    /// there are fewer blocks than SMs.
    pub max_block_latency_cycles: f64,
    /// Number of blocks executed.
    pub blocks: u64,
}

impl KernelCounters {
    /// Merges the totals of another aggregate (used when worker threads each
    /// accumulate a private aggregate).
    pub fn merge(&mut self, other: &KernelCounters) {
        self.matrix_dram_bytes += other.matrix_dram_bytes;
        self.x_gather_bytes += other.x_gather_bytes;
        self.y_write_bytes += other.y_write_bytes;
        self.transactions += other.transactions;
        self.fma_ops += other.fma_ops;
        self.atomic_ops += other.atomic_ops;
        self.atomic_conflicts += other.atomic_conflicts;
        self.shared_bytes += other.shared_bytes;
        self.syncs += other.syncs;
        self.shuffles += other.shuffles;
        self.total_block_latency_cycles += other.total_block_latency_cycles;
        self.max_block_latency_cycles = self
            .max_block_latency_cycles
            .max(other.max_block_latency_cycles);
        self.blocks += other.blocks;
    }

    /// Mean block latency in cycles (0 when no blocks ran).
    pub fn mean_block_latency_cycles(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.total_block_latency_cycles / self.blocks as f64
        }
    }

    /// Ratio of the largest block latency to the mean: a direct measure of
    /// inter-block load imbalance (1.0 = perfectly balanced).
    pub fn block_imbalance(&self) -> f64 {
        let mean = self.mean_block_latency_cycles();
        if mean == 0.0 {
            1.0
        } else {
            self.max_block_latency_cycles / mean
        }
    }
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
        let gathering = BlockCounters {
            x_gather_bytes: 4.0,
            y_write_bytes: 2.0,
            ..block(500.0, 20.0)
        };
        absorb_block(&mut b, &gathering);
        a.merge(&b);
        assert_eq!(a.blocks, 2);
        assert_eq!(a.max_block_latency_cycles, 500.0);
        assert_eq!(a.matrix_dram_bytes, 30.0);
        assert_eq!(a.x_gather_bytes, 4.0);
        assert_eq!(a.y_write_bytes, 2.0);
    }

    #[test]
    fn empty_counters_have_sane_defaults() {
        let k = KernelCounters::default();
        assert_eq!(k.mean_block_latency_cycles(), 0.0);
        assert_eq!(k.block_imbalance(), 1.0);
    }
}
