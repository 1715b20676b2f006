//! Performance reports: what an evaluator says about one candidate, modelled
//! by `alpha-gpu`'s simulator or measured on the host, and the cost model's
//! event counters they carry.

/// The modelled performance of one kernel execution.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Device the kernel was evaluated on.
    pub device: String,
    /// Total modelled execution time in microseconds (including launch).
    pub time_us: f64,
    /// Memory-side time (DRAM + L2 traffic) in microseconds.
    pub memory_time_us: f64,
    /// Compute/latency-side time in microseconds.
    pub compute_time_us: f64,
    /// Kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Modelled throughput in GFLOP/s based on the useful flops (2 * nnz).
    pub gflops: f64,
    /// Bytes served from DRAM.
    pub dram_bytes: f64,
    /// Bytes served from L2 (x-gather hits).
    pub l2_bytes: f64,
    /// Fraction of x-gather traffic that hit the L2.
    pub x_l2_hit_rate: f64,
    /// Achieved occupancy of the launch.
    pub occupancy: f64,
    /// Raw event counters.
    pub counters: KernelCounters,
    /// Total memory bytes per useful flop (roofline position indicator).
    pub bytes_per_flop: f64,
}

impl PerfReport {
    /// Builds a report from a *measured* wall-clock time (the native CPU
    /// backend's timing harness) instead of the cost model.  Only the fields
    /// a wall clock can honestly fill are populated: `time_us`, the derived
    /// `gflops`, the format footprint (as `dram_bytes`) and `bytes_per_flop`.
    /// The modelled breakdowns (memory vs compute split, occupancy, L2 hit
    /// rate, event counters) are zero — a stopwatch cannot see them.
    pub fn from_measured_time(
        device: &str,
        time_us: f64,
        useful_flops: u64,
        format_bytes: usize,
    ) -> PerfReport {
        let gflops = if time_us > 0.0 {
            useful_flops as f64 / time_us / 1e3
        } else {
            0.0
        };
        PerfReport {
            device: device.to_string(),
            time_us,
            memory_time_us: 0.0,
            compute_time_us: time_us,
            launch_overhead_us: 0.0,
            gflops,
            dram_bytes: format_bytes as f64,
            l2_bytes: 0.0,
            x_l2_hit_rate: 0.0,
            occupancy: 1.0,
            counters: KernelCounters::default(),
            bytes_per_flop: if useful_flops > 0 {
                format_bytes as f64 / useful_flops as f64
            } else {
                0.0
            },
        }
    }

    /// True if the kernel is memory-bound under the model.
    pub fn is_memory_bound(&self) -> bool {
        self.memory_time_us >= self.compute_time_us
    }

    /// Speedup of this report relative to a baseline report (baseline time /
    /// this time).  Values above 1.0 mean this kernel is faster.
    pub fn speedup_over(&self, baseline: &PerfReport) -> f64 {
        if self.time_us <= 0.0 {
            return 0.0;
        }
        baseline.time_us / self.time_us
    }

    /// One-line human-readable summary used by the `reproduce` harness.
    pub fn summary(&self) -> String {
        format!(
            "{:>8.1} GFLOPS  {:>9.1} us  ({} bound, occ {:.2}, L2 hit {:.2})",
            self.gflops,
            self.time_us,
            if self.is_memory_bound() {
                "memory"
            } else {
                "compute"
            },
            self.occupancy,
            self.x_l2_hit_rate,
        )
    }
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

    /// Total bytes requested from the memory system (before L2 splitting).
    pub fn total_requested_bytes(&self) -> f64 {
        self.matrix_dram_bytes + self.x_gather_bytes + self.y_write_bytes
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

#[cfg(test)]
mod tests {
    use super::*;

    fn report(time_us: f64, mem: f64, compute: f64) -> PerfReport {
        PerfReport {
            device: "TestGPU".into(),
            time_us,
            memory_time_us: mem,
            compute_time_us: compute,
            launch_overhead_us: 2.0,
            gflops: 100.0,
            dram_bytes: 0.0,
            l2_bytes: 0.0,
            x_l2_hit_rate: 0.5,
            occupancy: 0.9,
            counters: KernelCounters::default(),
            bytes_per_flop: 4.0,
        }
    }

    #[test]
    fn boundness_classification() {
        assert!(report(10.0, 8.0, 2.0).is_memory_bound());
        assert!(!report(10.0, 2.0, 8.0).is_memory_bound());
    }

    #[test]
    fn speedup_is_ratio_of_times() {
        let fast = report(5.0, 4.0, 1.0);
        let slow = report(20.0, 16.0, 4.0);
        assert!((fast.speedup_over(&slow) - 4.0).abs() < 1e-12);
        assert!((slow.speedup_over(&fast) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn summary_mentions_gflops() {
        let s = report(10.0, 8.0, 2.0).summary();
        assert!(s.contains("GFLOPS"));
        assert!(s.contains("memory bound"));
    }
}
