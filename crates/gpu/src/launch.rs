//! Launch configurations and the occupancy model.
//!
//! The paper's `SET_RESOURCES` operator chooses runtime configuration
//! (threads per block, blocks per grid); this module provides the data type
//! for that choice and the occupancy calculation the cost model uses to
//! decide how many blocks run concurrently per SM.

use crate::WARP_SIZE;
use alpha_codegen::DeviceProfile;

/// A CUDA-style kernel launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid_dim: usize,
    /// Number of threads per block (must be a multiple of the warp size for
    /// the generated kernels; validated by [`LaunchConfig::validate`]).
    pub block_dim: usize,
    /// Dynamic shared memory requested per block, in bytes.
    pub shared_mem_bytes: usize,
}

impl LaunchConfig {
    /// Creates a launch configuration with no dynamic shared memory.
    pub fn new(grid_dim: usize, block_dim: usize) -> Self {
        LaunchConfig {
            grid_dim,
            block_dim,
            shared_mem_bytes: 0,
        }
    }

    /// Creates a launch configuration with dynamic shared memory.
    pub fn with_shared_mem(grid_dim: usize, block_dim: usize, shared_mem_bytes: usize) -> Self {
        LaunchConfig {
            grid_dim,
            block_dim,
            shared_mem_bytes,
        }
    }

    /// Checks the configuration against a device's hard limits.
    pub fn validate(&self, device: &DeviceProfile) -> Result<(), String> {
        if self.grid_dim == 0 {
            return Err("grid dimension must be positive".into());
        }
        if self.block_dim == 0 {
            return Err("block dimension must be positive".into());
        }
        if !self.block_dim.is_multiple_of(WARP_SIZE) {
            return Err(format!(
                "block dimension {} is not a multiple of the warp size {WARP_SIZE}",
                self.block_dim
            ));
        }
        if self.block_dim > device.max_threads_per_block {
            return Err(format!(
                "block dimension {} exceeds the device limit {}",
                self.block_dim, device.max_threads_per_block
            ));
        }
        if self.shared_mem_bytes > device.shared_mem_per_block_bytes {
            return Err(format!(
                "requested {} bytes of shared memory, device allows {}",
                self.shared_mem_bytes, device.shared_mem_per_block_bytes
            ));
        }
        Ok(())
    }

    /// Number of blocks that can be resident on one SM simultaneously, limited
    /// by the thread count and the shared-memory requirement.  At least one
    /// block is always assumed to fit (validation rejects configs that do not).
    pub fn blocks_per_sm(&self, device: &DeviceProfile) -> usize {
        let by_threads = (device.max_threads_per_sm / self.block_dim).max(1);
        let by_shared = device
            .shared_mem_per_block_bytes
            .checked_div(self.shared_mem_bytes)
            .unwrap_or(usize::MAX)
            .max(1);
        by_threads.min(by_shared).max(1)
    }

    /// Achieved occupancy: fraction of the SM's thread slots the launch keeps
    /// busy, in `[0, 1]`.  Low occupancy reduces the device's ability to hide
    /// memory latency, which the cost model penalises.
    pub fn occupancy(&self, device: &DeviceProfile) -> f64 {
        let resident_threads =
            (self.blocks_per_sm(device) * self.block_dim).min(device.max_threads_per_sm) as f64;
        // A grid smaller than the device leaves SMs idle entirely.
        let sm_utilisation = (self.grid_dim as f64 / device.sm_count as f64).min(1.0);
        (resident_threads / device.max_threads_per_sm as f64) * sm_utilisation
    }

    /// Number of scheduling waves needed to run the whole grid: how many
    /// rounds of `sm_count * blocks_per_sm` blocks the device must execute.
    pub fn waves(&self, device: &DeviceProfile) -> usize {
        let concurrent = device.sm_count * self.blocks_per_sm(device);
        self.grid_dim.div_ceil(concurrent.max(1)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warp_and_thread_counts() {
        let lc = LaunchConfig::new(10, 128);
        assert_eq!(
            (lc.grid_dim, lc.block_dim, lc.shared_mem_bytes),
            (10, 128, 0)
        );
        assert!(lc.block_dim.is_multiple_of(WARP_SIZE));
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let d = DeviceProfile::test_profile();
        assert!(LaunchConfig::new(0, 128).validate(&d).is_err());
        assert!(LaunchConfig::new(1, 0).validate(&d).is_err());
        assert!(LaunchConfig::new(1, 100).validate(&d).is_err()); // not multiple of 32
        assert!(LaunchConfig::new(1, 1024).validate(&d).is_err()); // over block limit (512)
        assert!(LaunchConfig::with_shared_mem(1, 128, 1 << 20)
            .validate(&d)
            .is_err());
        assert!(LaunchConfig::new(1, 128).validate(&d).is_ok());
    }

    #[test]
    fn blocks_per_sm_limited_by_threads_and_shared_mem() {
        let d = DeviceProfile::test_profile(); // 1024 threads/SM, 48 KB shared
        assert_eq!(LaunchConfig::new(100, 256).blocks_per_sm(&d), 4);
        assert_eq!(
            LaunchConfig::with_shared_mem(100, 128, 24 * 1024).blocks_per_sm(&d),
            2
        );
    }

    #[test]
    fn occupancy_penalises_small_grids_and_big_blocks() {
        let d = DeviceProfile::test_profile(); // 4 SMs
        let small_grid = LaunchConfig::new(1, 256);
        let full_grid = LaunchConfig::new(64, 256);
        assert!(small_grid.occupancy(&d) < full_grid.occupancy(&d));
        assert!(full_grid.occupancy(&d) <= 1.0);
        assert!(full_grid.occupancy(&d) > 0.9);
    }

    #[test]
    fn waves_counts_scheduling_rounds() {
        let d = DeviceProfile::test_profile(); // 4 SMs, 1024 thr/SM
        let lc = LaunchConfig::new(40, 256); // 4 blocks/SM -> 16 concurrent
        assert_eq!(lc.waves(&d), 3);
        assert_eq!(LaunchConfig::new(1, 256).waves(&d), 1);
    }
}
