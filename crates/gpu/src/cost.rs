//! The analytical cost model: turns kernel counters into a time estimate,
//! the [`PerfReport`] of one simulated execution.
//!
//! The model is a *roofline with load balance*:
//!
//! * **Memory side** — matrix/format traffic and the DRAM share of x-gather
//!   traffic move at DRAM bandwidth; the L2 share of x gathers moves at L2
//!   bandwidth.  The x hit rate comes from the working-set model
//!   ([`crate::memory::l2_hit_rate`]), which is what makes matrices that fit
//!   in the 40 MB A100 L2 behave differently from larger ones (paper
//!   Figure 11a).
//! * **Compute/latency side** — thread blocks are scheduled onto SMs in
//!   waves; each block contributes its latency (max lane time plus block
//!   overheads).  Low occupancy reduces the device's ability to hide latency
//!   and is penalised by a square-root factor.
//!
//! Kernel time is the maximum of the two sides plus the launch overhead.

use crate::counters::KernelCounters;
use crate::launch::LaunchConfig;
use crate::memory;
use alpha_codegen::DeviceProfile;

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

/// Converts a cycle count on one SM into microseconds.
pub fn cycles_to_us(device: &DeviceProfile, cycles: f64) -> f64 {
    cycles / (device.clock_ghz * 1e3)
}

/// Time in microseconds to move `bytes` at DRAM bandwidth.
pub fn dram_time_us(device: &DeviceProfile, bytes: f64) -> f64 {
    bytes / (device.dram_bandwidth_gbps * 1e3)
}

/// Time in microseconds to move `bytes` at L2 bandwidth.
pub fn l2_time_us(device: &DeviceProfile, bytes: f64) -> f64 {
    bytes / (device.l2_bandwidth_gbps * 1e3)
}

/// Inputs to the cost model besides the raw counters.
#[derive(Debug, Clone)]
pub struct CostInputs {
    /// Launch configuration used.
    pub launch: LaunchConfig,
    /// Bytes of format arrays resident in device memory.
    pub format_bytes: usize,
    /// Length of the x vector in elements.
    pub x_len: usize,
    /// Number of output rows.
    pub y_len: usize,
    /// Useful floating point operations (2 * nnz of the original matrix).
    pub useful_flops: u64,
}

/// Computes the performance report for a kernel execution.
pub fn evaluate(
    device: &DeviceProfile,
    counters: &KernelCounters,
    inputs: &CostInputs,
) -> PerfReport {
    let scalar_bytes = std::mem::size_of::<alpha_matrix::Scalar>() as f64;

    // ---- Memory side -------------------------------------------------------
    let x_footprint = inputs.x_len as f64 * scalar_bytes;
    let working_set = x_footprint + inputs.format_bytes as f64;
    // Reuse factor: how many times each x element is gathered on average.
    let reuse = if x_footprint > 0.0 {
        (counters.x_gather_bytes / x_footprint).max(1.0)
    } else {
        1.0
    };
    let hit_rate = memory::l2_hit_rate(working_set, device.l2_capacity_bytes as f64, reuse);
    let x_dram_bytes = counters.x_gather_bytes * (1.0 - hit_rate);
    let x_l2_bytes = counters.x_gather_bytes * hit_rate;
    let dram_bytes = counters.matrix_dram_bytes + counters.y_write_bytes + x_dram_bytes;
    let memory_time_us = dram_time_us(device, dram_bytes) + l2_time_us(device, x_l2_bytes);

    // ---- Compute / latency side -------------------------------------------
    let occupancy = inputs.launch.occupancy(device);
    let concurrent_blocks = (device.sm_count * inputs.launch.blocks_per_sm(device)).max(1) as f64;
    let parallel_blocks = concurrent_blocks.min(counters.blocks.max(1) as f64);
    // Average per-SM work: total block latency spread over the blocks that can
    // actually run concurrently, but never less than the single longest block
    // (the critical path).
    let spread_cycles = counters.total_block_latency_cycles / parallel_blocks;
    let critical_cycles = spread_cycles.max(counters.max_block_latency_cycles);
    // Latency hiding: with full occupancy the SM overlaps warps almost
    // perfectly; with low occupancy stalls are exposed.
    let hiding = occupancy.clamp(0.05, 1.0).sqrt();
    let compute_time_us = cycles_to_us(device, critical_cycles) / hiding;

    let busy_time_us = memory_time_us.max(compute_time_us);
    let total_time_us = busy_time_us + device.launch_overhead_us;

    let gflops = if total_time_us > 0.0 {
        inputs.useful_flops as f64 / total_time_us / 1e3
    } else {
        0.0
    };

    PerfReport {
        device: device.name.to_string(),
        time_us: total_time_us,
        memory_time_us,
        compute_time_us,
        launch_overhead_us: device.launch_overhead_us,
        gflops,
        dram_bytes,
        l2_bytes: x_l2_bytes,
        x_l2_hit_rate: hit_rate,
        occupancy,
        counters: counters.clone(),
        bytes_per_flop: if inputs.useful_flops > 0 {
            (dram_bytes + x_l2_bytes) / inputs.useful_flops as f64
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{absorb_block, BlockCounters};

    fn inputs(launch: LaunchConfig, x_len: usize, flops: u64) -> CostInputs {
        CostInputs {
            launch,
            format_bytes: x_len * 8,
            x_len,
            y_len: x_len,
            useful_flops: flops,
        }
    }

    fn counters_with(blocks: usize, latency: f64, dram: f64, xbytes: f64) -> KernelCounters {
        let mut k = KernelCounters::default();
        for _ in 0..blocks {
            absorb_block(
                &mut k,
                &BlockCounters {
                    matrix_dram_bytes: dram / blocks as f64,
                    x_gather_bytes: xbytes / blocks as f64,
                    block_latency_cycles: latency,
                    ..Default::default()
                },
            );
        }
        k
    }

    #[test]
    fn time_conversions() {
        let d = DeviceProfile::test_profile();
        // 1000 cycles at 1 GHz = 1 us.
        assert!((cycles_to_us(&d, 1_000.0) - 1.0).abs() < 1e-12);
        // 100 KB at 100 GB/s = 1 us.
        assert!((dram_time_us(&d, 100_000.0) - 1.0).abs() < 1e-12);
        assert!(l2_time_us(&d, 100_000.0) < dram_time_us(&d, 100_000.0));
    }

    #[test]
    fn memory_bound_kernel_time_tracks_bytes() {
        let device = DeviceProfile::test_profile();
        let launch = LaunchConfig::new(64, 256);
        let small = evaluate(
            &device,
            &counters_with(64, 10.0, 1.0e6, 0.0),
            &inputs(launch, 1024, 2_000_000),
        );
        let large = evaluate(
            &device,
            &counters_with(64, 10.0, 4.0e6, 0.0),
            &inputs(launch, 1024, 2_000_000),
        );
        assert!(large.time_us > small.time_us);
        assert!(large.gflops < small.gflops);
    }

    #[test]
    fn load_imbalance_hurts_performance() {
        let device = DeviceProfile::test_profile();
        let launch = LaunchConfig::new(64, 256);
        let balanced = evaluate(
            &device,
            &counters_with(64, 1_000.0, 1.0e5, 0.0),
            &inputs(launch, 1024, 2_000_000),
        );
        // Same total latency concentrated in one giant block.
        let mut skewed = KernelCounters::default();
        absorb_block(
            &mut skewed,
            &BlockCounters {
                matrix_dram_bytes: 1.0e5,
                block_latency_cycles: 64_000.0,
                ..Default::default()
            },
        );
        let imbalanced = evaluate(&device, &skewed, &inputs(launch, 1024, 2_000_000));
        assert!(imbalanced.time_us > balanced.time_us);
    }

    #[test]
    fn l2_resident_working_set_is_faster() {
        let device = DeviceProfile::test_profile(); // 1 MB L2
        let launch = LaunchConfig::new(64, 256);
        let xbytes = 2.0e6;
        let fits = evaluate(
            &device,
            &counters_with(64, 10.0, 1.0e5, xbytes),
            &inputs(launch, 10_000, 2_000_000), // 40 KB x + 80 KB format
        );
        let too_big = evaluate(
            &device,
            &counters_with(64, 10.0, 1.0e5, xbytes),
            &inputs(launch, 4_000_000, 2_000_000), // 16 MB x
        );
        assert!(fits.x_l2_hit_rate > too_big.x_l2_hit_rate);
        assert!(fits.time_us < too_big.time_us);
    }

    #[test]
    fn low_occupancy_is_penalised() {
        let device = DeviceProfile::test_profile();
        let counters = counters_with(4, 10_000.0, 1.0e4, 0.0);
        let wide = evaluate(
            &device,
            &counters,
            &inputs(LaunchConfig::new(64, 256), 1024, 2_000_000),
        );
        let narrow = evaluate(
            &device,
            &counters,
            &inputs(LaunchConfig::new(1, 32), 1024, 2_000_000),
        );
        assert!(narrow.compute_time_us > wide.compute_time_us);
    }

    #[test]
    fn launch_overhead_dominates_tiny_kernels() {
        let device = DeviceProfile::test_profile();
        let report = evaluate(
            &device,
            &counters_with(1, 10.0, 100.0, 0.0),
            &inputs(LaunchConfig::new(1, 32), 64, 1_000),
        );
        assert!(report.launch_overhead_us / report.time_us > 0.5);
    }
}
