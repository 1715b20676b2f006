//! The per-thread-block execution context handed to a kernel.
//!
//! A kernel's [`execute_block`](crate::kernel::SpmvKernel::execute_block)
//! receives a [`BlockContext`] and uses it both to *compute* (read `x`,
//! accumulate into `y`) and to *report* the events the cost model charges.
//! The context attributes arithmetic and memory-issue costs to the currently
//! selected thread (lane), so lockstep divergence and load imbalance inside a
//! block fall out of the per-lane maxima.

use crate::counters::BlockCounters;
use crate::device::DeviceProfile;
use crate::memory::{self, Access};
use crate::WARP_SIZE;
use alpha_matrix::Scalar;
use std::collections::HashMap;

/// Execution and cost-recording context for one thread block.
pub struct BlockContext<'a> {
    device: &'a DeviceProfile,
    x: &'a [Scalar],
    y: &'a mut [Scalar],
    block_dim: usize,
    current_thread: usize,
    thread_cycles: Vec<f64>,
    block_overhead_cycles: f64,
    counters: BlockCounters,
    atomic_targets: HashMap<usize, u32>,
}

impl<'a> BlockContext<'a> {
    /// Creates a context for a block of `block_dim` threads.  `y` is a
    /// worker-local accumulation buffer covering the whole output vector.
    pub fn new(
        device: &'a DeviceProfile,
        x: &'a [Scalar],
        y: &'a mut [Scalar],
        block_dim: usize,
    ) -> Self {
        BlockContext {
            device,
            x,
            y,
            block_dim: block_dim.max(1),
            current_thread: 0,
            thread_cycles: vec![0.0; block_dim.max(1)],
            block_overhead_cycles: 0.0,
            counters: BlockCounters::default(),
            atomic_targets: HashMap::new(),
        }
    }

    /// Number of threads in the block.
    pub fn block_dim(&self) -> usize {
        self.block_dim
    }

    /// Length of the x vector.
    pub fn x_len(&self) -> usize {
        self.x.len()
    }

    /// Selects the thread (0-based within the block) that subsequent
    /// arithmetic and memory-issue costs are attributed to.
    pub fn thread(&mut self, tid: usize) {
        debug_assert!(
            tid < self.block_dim,
            "thread id {tid} outside block of {}",
            self.block_dim
        );
        self.current_thread = tid.min(self.block_dim - 1);
    }

    /// Reads `x[col]` without recording any cost (use [`Self::gather_x_cost`]
    /// or [`Self::load_x`] for the cost side).
    #[inline]
    pub fn x(&self, col: usize) -> Scalar {
        self.x[col]
    }

    /// Reads `x[col]` and records a single-element gather.
    #[inline]
    pub fn load_x(&mut self, col: usize) -> Scalar {
        self.gather_x_cost(&[col as u32]);
        self.x[col]
    }

    /// Records the cost of a warp (or thread) gathering the given x columns
    /// in one step.  The transaction count is the number of distinct 32-byte
    /// sectors the indices touch, so spatial locality in the column indices
    /// directly reduces traffic.
    pub fn gather_x_cost(&mut self, cols: &[u32]) {
        if cols.is_empty() {
            return;
        }
        let sectors = memory::gather_sectors(cols, std::mem::size_of::<Scalar>());
        self.counters.transactions += sectors;
        self.counters.x_gather_bytes += (sectors as usize * crate::SECTOR_BYTES) as f64;
        let active = cols.len().clamp(1, WARP_SIZE);
        let issue = sectors as f64 * self.device.transaction_issue_cycles / active as f64;
        self.thread_cycles[self.current_thread] += issue;
    }

    /// Records a read of `elements` consecutive elements of matrix/format
    /// data of `elem_bytes` bytes each, under the given access pattern, and
    /// attributes the issue cost to the current thread.
    pub fn load_matrix_stream(&mut self, access: Access, elements: usize, elem_bytes: usize) {
        let (txns, bytes) = memory::transactions_for(access, elements, elem_bytes);
        self.counters.transactions += txns;
        self.counters.matrix_dram_bytes += bytes;
        let share = match access {
            // Coalesced loads spread their issue cost over the warp.
            Access::WarpCoalesced => txns as f64 / WARP_SIZE as f64,
            Access::ThreadContiguous | Access::Scattered => txns as f64,
        };
        self.thread_cycles[self.current_thread] += share * self.device.transaction_issue_cycles;
    }

    /// Records `n` fused multiply-add operations on the current thread.
    pub fn mul_add(&mut self, n: usize) {
        self.counters.fma_ops += n as u64;
        self.thread_cycles[self.current_thread] += n as f64 * self.device.fma_cycles;
    }

    /// Records `n` generic ALU operations (index arithmetic, comparisons) on
    /// the current thread, charged at the FMA rate.
    pub fn alu(&mut self, n: usize) {
        self.thread_cycles[self.current_thread] += n as f64 * self.device.fma_cycles;
    }

    /// Non-atomic accumulation into `y[row]` by a thread that exclusively
    /// owns the row (or a final single writer after an in-block reduction).
    pub fn store_y(&mut self, row: usize, value: Scalar) {
        self.y[row] += value;
        self.counters.y_write_bytes += std::mem::size_of::<Scalar>() as f64;
        self.counters.transactions += 1;
        self.thread_cycles[self.current_thread] +=
            self.device.transaction_issue_cycles / WARP_SIZE as f64;
    }

    /// Atomic accumulation into `y[row]` (CUDA `atomicAdd`).  Collisions with
    /// other atomics to the same row inside this block add a serialisation
    /// penalty to the block.
    pub fn atomic_add_y(&mut self, row: usize, value: Scalar) {
        self.y[row] += value;
        self.counters.atomic_ops += 1;
        // Atomics read-modify-write the target line.
        self.counters.y_write_bytes += 2.0 * std::mem::size_of::<Scalar>() as f64;
        self.counters.transactions += 1;
        self.thread_cycles[self.current_thread] += self.device.atomic_latency_cycles;
        let hits = self.atomic_targets.entry(row).or_insert(0);
        if *hits > 0 {
            self.counters.atomic_conflicts += 1;
            self.block_overhead_cycles += self.device.atomic_conflict_cycles;
        }
        *hits += 1;
    }

    /// Records `bytes` of shared-memory traffic (reads plus writes).  Shared
    /// memory is a block-wide resource, so the time is charged to the block
    /// rather than to a single lane.
    pub fn shared_traffic(&mut self, bytes: usize) {
        self.counters.shared_bytes += bytes as f64;
        self.block_overhead_cycles += bytes as f64 / self.device.shared_bytes_per_cycle_per_sm;
    }

    /// Records a `__syncthreads()` barrier.
    pub fn syncthreads(&mut self) {
        self.counters.syncs += 1;
        self.block_overhead_cycles += self.device.sync_cycles;
    }

    /// Records a warp-level reduction over `width` lanes implemented with
    /// shuffle instructions (log2(width) steps), attributed to the current
    /// thread's warp.
    pub fn warp_shuffle_reduce(&mut self, width: usize) {
        let steps = (width.max(2) as f64).log2().ceil() as u64;
        self.counters.shuffles += steps;
        self.thread_cycles[self.current_thread] += steps as f64 * self.device.shuffle_cycles;
    }

    /// Finalises the block: computes the block latency (maximum lane time of
    /// any warp plus block-wide overheads) and returns the counters.  The
    /// context is left as [`BlockContext::new`] made it, so one context
    /// serves every block a simulator worker executes without allocating
    /// again; only `y` keeps what the block wrote.
    pub fn finish(&mut self) -> BlockCounters {
        let max_lane = self.thread_cycles.iter().copied().fold(0.0, f64::max);
        // Warps execute concurrently but the block is not finished until its
        // slowest warp (slowest lane) is; block-wide overheads are serialised
        // on top.
        self.counters.block_latency_cycles = max_lane + self.block_overhead_cycles;
        self.thread_cycles.fill(0.0);
        self.current_thread = 0;
        self.block_overhead_cycles = 0.0;
        self.atomic_targets.clear();
        std::mem::take(&mut self.counters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_xy(xlen: usize, ylen: usize) -> (Vec<Scalar>, Vec<Scalar>) {
        ((0..xlen).map(|i| i as Scalar).collect(), vec![0.0; ylen])
    }

    #[test]
    fn arithmetic_and_divergence_set_block_latency() {
        let device = DeviceProfile::test_profile();
        let (x, mut y) = make_xy(4, 4);
        let mut ctx = BlockContext::new(&device, &x, &mut y, 64);
        ctx.thread(0);
        ctx.mul_add(10);
        ctx.thread(1);
        ctx.mul_add(100); // divergent long lane
        let counters = ctx.finish();
        assert_eq!(counters.fma_ops, 110);
        assert!((counters.block_latency_cycles - 100.0).abs() < 1e-9);
    }

    #[test]
    fn stores_accumulate_into_y() {
        let device = DeviceProfile::test_profile();
        let (x, mut y) = make_xy(4, 4);
        {
            let mut ctx = BlockContext::new(&device, &x, &mut y, 32);
            ctx.store_y(1, 2.0);
            ctx.atomic_add_y(1, 3.0);
            ctx.finish();
        }
        assert_eq!(y[1], 5.0);
    }

    #[test]
    fn atomic_conflicts_are_detected_per_row() {
        let device = DeviceProfile::test_profile();
        let (x, mut y) = make_xy(4, 4);
        let mut ctx = BlockContext::new(&device, &x, &mut y, 32);
        ctx.atomic_add_y(2, 1.0);
        ctx.atomic_add_y(2, 1.0);
        ctx.atomic_add_y(3, 1.0);
        let c = ctx.finish();
        assert_eq!(c.atomic_ops, 3);
        assert_eq!(c.atomic_conflicts, 1);
    }

    #[test]
    fn gather_cost_depends_on_locality() {
        let device = DeviceProfile::test_profile();
        let (x, mut y) = make_xy(4096, 4);
        let local_bytes = {
            let mut ctx = BlockContext::new(&device, &x, &mut y, 32);
            ctx.gather_x_cost(&[0, 1, 2, 3, 4, 5, 6, 7]);
            ctx.finish().x_gather_bytes
        };
        let spread_bytes = {
            let mut ctx = BlockContext::new(&device, &x, &mut y, 32);
            ctx.gather_x_cost(&[0, 512, 1024, 1536, 2048, 2560, 3072, 3584]);
            ctx.finish().x_gather_bytes
        };
        assert!(spread_bytes > local_bytes);
    }

    #[test]
    fn load_x_returns_value_and_counts() {
        let device = DeviceProfile::test_profile();
        let (x, mut y) = make_xy(16, 4);
        let mut ctx = BlockContext::new(&device, &x, &mut y, 32);
        assert_eq!(ctx.load_x(5), 5.0);
        assert_eq!(ctx.x(6), 6.0);
        let c = ctx.finish();
        assert!(c.x_gather_bytes > 0.0);
    }

    #[test]
    fn shared_and_sync_add_block_overhead() {
        let device = DeviceProfile::test_profile();
        let (x, mut y) = make_xy(4, 4);
        let mut ctx = BlockContext::new(&device, &x, &mut y, 64);
        ctx.shared_traffic(1024);
        ctx.syncthreads();
        ctx.warp_shuffle_reduce(32);
        let c = ctx.finish();
        assert_eq!(c.syncs, 1);
        assert_eq!(c.shuffles, 5);
        assert!(c.shared_bytes == 1024.0);
        assert!(c.block_latency_cycles > 0.0);
    }

    #[test]
    fn a_finished_context_runs_the_next_block_as_a_fresh_one() {
        let device = DeviceProfile::test_profile();
        let (x, mut y) = make_xy(4096, 8);
        let block = |ctx: &mut BlockContext<'_>| {
            ctx.thread(3);
            ctx.mul_add(7);
            ctx.gather_x_cost(&[0, 9, 800]);
            ctx.atomic_add_y(2, 1.0);
            ctx.atomic_add_y(2, 1.0);
            ctx.shared_traffic(64);
            ctx.finish()
        };
        let fresh = block(&mut BlockContext::new(&device, &x, &mut y, 64));
        let mut reused = BlockContext::new(&device, &x, &mut y, 64);
        // A heavier block first: another lane, an atomic to the row the next
        // block hits, a barrier.
        reused.thread(9);
        reused.mul_add(500);
        reused.atomic_add_y(2, 1.0);
        reused.syncthreads();
        reused.finish();
        assert_eq!(block(&mut reused), fresh);
        assert_eq!(fresh.atomic_conflicts, 1);
    }

    #[test]
    fn coalesced_loads_are_cheaper_than_scattered() {
        let device = DeviceProfile::test_profile();
        let (x, mut y) = make_xy(4, 4);
        let coalesced = {
            let mut ctx = BlockContext::new(&device, &x, &mut y, 32);
            ctx.load_matrix_stream(Access::WarpCoalesced, 128, 4);
            ctx.finish()
        };
        let scattered = {
            let mut ctx = BlockContext::new(&device, &x, &mut y, 32);
            ctx.load_matrix_stream(Access::Scattered, 128, 4);
            ctx.finish()
        };
        assert!(scattered.matrix_dram_bytes > coalesced.matrix_dram_bytes);
        assert!(scattered.block_latency_cycles > coalesced.block_latency_cycles);
    }
}
