//! Device profiles: the architectural parameters of the simulated GPUs.
//!
//! Two built-in profiles mirror the paper's experimental platforms
//! (Section VII-A): an NVIDIA A100 (Ampere) and an RTX 2080 (Turing).  The
//! profile is plain data here because every evaluation context is keyed by
//! it ([`context_key`](crate::context_key)); the cost model that reads it is
//! `alpha-gpu`'s.

/// Architectural parameters of a simulated GPU.
///
/// Only parameters the cost model actually uses are included; they are taken
/// from the public specifications of the respective devices.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Human-readable device name.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub sm_count: usize,
    /// Peak sustained global-memory (DRAM) bandwidth in GB/s.
    pub dram_bandwidth_gbps: f64,
    /// Peak L2 bandwidth in GB/s (roughly 3-4x DRAM on modern parts).
    pub l2_bandwidth_gbps: f64,
    /// L2 cache capacity in bytes.
    pub l2_capacity_bytes: usize,
    /// Shared-memory bandwidth per SM in bytes/cycle.
    pub shared_bytes_per_cycle_per_sm: f64,
    /// SM clock in GHz.
    pub clock_ghz: f64,
    /// Peak single-precision throughput in GFLOP/s.
    pub peak_sp_gflops: f64,
    /// Maximum number of resident threads per SM (occupancy ceiling).
    pub max_threads_per_sm: usize,
    /// Maximum number of threads per thread block.
    pub max_threads_per_block: usize,
    /// Shared memory available per thread block in bytes.
    pub shared_mem_per_block_bytes: usize,
    /// Kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Latency of one global atomic add, in SM cycles (amortised).
    pub atomic_latency_cycles: f64,
    /// Extra serialisation cost when atomics within a block collide on the
    /// same address, in SM cycles per colliding operation.
    pub atomic_conflict_cycles: f64,
    /// Cost of a `__syncthreads()` barrier, in SM cycles.
    pub sync_cycles: f64,
    /// Cost of one warp-shuffle step, in SM cycles.
    pub shuffle_cycles: f64,
    /// Issue cost of one fused multiply-add (plus its operand bookkeeping),
    /// in SM cycles per lane operation.
    pub fma_cycles: f64,
    /// Amortised cost of issuing one global-memory transaction from an SM,
    /// in cycles (captures address generation / MSHR pressure, not DRAM time).
    pub transaction_issue_cycles: f64,
}

impl DeviceProfile {
    /// NVIDIA A100 (Ampere, 40 GB HBM2): the paper's primary platform.
    pub fn a100() -> Self {
        DeviceProfile {
            name: "A100",
            sm_count: 108,
            dram_bandwidth_gbps: 1555.0,
            l2_bandwidth_gbps: 4500.0,
            l2_capacity_bytes: 40 * 1024 * 1024,
            shared_bytes_per_cycle_per_sm: 128.0,
            clock_ghz: 1.41,
            peak_sp_gflops: 19_490.0,
            max_threads_per_sm: 2048,
            max_threads_per_block: 1024,
            shared_mem_per_block_bytes: 164 * 1024,
            launch_overhead_us: 3.0,
            atomic_latency_cycles: 20.0,
            atomic_conflict_cycles: 40.0,
            sync_cycles: 30.0,
            shuffle_cycles: 2.0,
            fma_cycles: 1.0,
            transaction_issue_cycles: 4.0,
        }
    }

    /// NVIDIA RTX 2080 (Turing, 8 GB GDDR6): the paper's secondary platform.
    pub fn rtx2080() -> Self {
        DeviceProfile {
            name: "RTX2080",
            sm_count: 46,
            dram_bandwidth_gbps: 448.0,
            l2_bandwidth_gbps: 1800.0,
            l2_capacity_bytes: 4 * 1024 * 1024,
            shared_bytes_per_cycle_per_sm: 64.0,
            clock_ghz: 1.71,
            peak_sp_gflops: 10_070.0,
            max_threads_per_sm: 1024,
            max_threads_per_block: 1024,
            shared_mem_per_block_bytes: 64 * 1024,
            launch_overhead_us: 3.5,
            atomic_latency_cycles: 24.0,
            atomic_conflict_cycles: 48.0,
            sync_cycles: 34.0,
            shuffle_cycles: 2.0,
            fma_cycles: 1.0,
            transaction_issue_cycles: 5.0,
        }
    }

    /// A deliberately tiny profile for unit tests: few SMs, low bandwidth, so
    /// that cost-model effects are visible on small matrices.
    pub fn test_profile() -> Self {
        DeviceProfile {
            name: "TestGPU",
            sm_count: 4,
            dram_bandwidth_gbps: 100.0,
            l2_bandwidth_gbps: 300.0,
            l2_capacity_bytes: 1024 * 1024,
            shared_bytes_per_cycle_per_sm: 32.0,
            clock_ghz: 1.0,
            peak_sp_gflops: 1_000.0,
            max_threads_per_sm: 1024,
            max_threads_per_block: 512,
            shared_mem_per_block_bytes: 48 * 1024,
            launch_overhead_us: 2.0,
            atomic_latency_cycles: 20.0,
            atomic_conflict_cycles: 40.0,
            sync_cycles: 30.0,
            shuffle_cycles: 2.0,
            fma_cycles: 1.0,
            transaction_issue_cycles: 4.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_profiles_match_paper_platforms() {
        let a100 = DeviceProfile::a100();
        assert_eq!(a100.sm_count, 108);
        assert_eq!(a100.l2_capacity_bytes, 40 * 1024 * 1024);
        assert!(a100.peak_sp_gflops > 19_000.0);

        let rtx = DeviceProfile::rtx2080();
        assert!(rtx.dram_bandwidth_gbps < a100.dram_bandwidth_gbps);
        assert!(rtx.sm_count < a100.sm_count);
    }
}
