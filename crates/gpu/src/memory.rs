//! Warp-level memory coalescing arithmetic and the L2 working-set model.
//!
//! CUDA global memory is accessed in 32-byte sectors; the number of sectors a
//! warp touches — not the number of elements it reads — determines the
//! traffic.  These helpers convert element counts and index sets into sector
//! (transaction) counts, and estimate which fraction of x-vector gathers hit
//! the L2 cache based on the kernel's working-set size.

use crate::{SECTOR_BYTES, WARP_SIZE};

/// Effective-bandwidth penalty applied to per-thread (non-warp-coalesced)
/// streams: the scattered addresses of the 32 lanes achieve noticeably lower
/// DRAM efficiency than a single coalesced stream.
pub const UNCOALESCED_PENALTY: f64 = 1.5;

/// How a group of threads touches a range of global memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Adjacent lanes of a warp read adjacent elements (fully coalesced);
    /// e.g. non-zero streaming in CSR5, merge-based CSR, or any
    /// `BMT_NNZ_BLOCK`-style mapping.
    WarpCoalesced,
    /// One thread reads a contiguous run on its own while other lanes read
    /// far-away locations (CSR-scalar row traversal): every sector fetched
    /// serves a single lane, so bytes are over-fetched.
    ThreadContiguous,
    /// Effectively random: every element is its own transaction.
    Scattered,
}

/// Number of 32-byte transactions needed for `elements` elements of
/// `elem_bytes` bytes each, under the given access pattern, together with the
/// number of bytes actually moved on the bus (including over-fetch).
pub fn transactions_for(access: Access, elements: usize, elem_bytes: usize) -> (u64, f64) {
    if elements == 0 {
        return (0, 0.0);
    }
    let useful = (elements * elem_bytes) as f64;
    match access {
        Access::WarpCoalesced => {
            // Lanes (and successive iterations of a cooperative stream) share
            // sectors, so the bus moves exactly the useful bytes; kernels may
            // therefore report a cooperative stream in per-thread slices
            // without inflating the traffic.
            let txns = (elements * elem_bytes).div_ceil(SECTOR_BYTES) as u64;
            (txns, useful)
        }
        Access::ThreadContiguous => {
            // Each lane streams its own contiguous run, so the warp issues one
            // transaction per lane per iteration instead of sharing sectors.
            let per_thread_sectors = (elements * elem_bytes).div_ceil(SECTOR_BYTES).max(1);
            let txns = per_thread_sectors as u64;
            // Beyond the sector rounding, the scattered per-lane addresses
            // reduce DRAM efficiency (poor row-buffer locality and
            // memory-level parallelism); charge the loss as extra bus bytes.
            let bytes = per_thread_sectors as f64 * SECTOR_BYTES as f64 * UNCOALESCED_PENALTY;
            (txns, bytes)
        }
        Access::Scattered => {
            let txns = elements as u64;
            (txns, (elements * SECTOR_BYTES) as f64)
        }
    }
}

/// Number of distinct 32-byte sectors touched when gathering the given
/// column indices of a `f32` x vector — the transaction count of a warp-wide
/// gather (`x[col]` for every lane).
///
/// A row segment of a `CsrMatrix` has its columns sorted (the documented row
/// invariant), so its sectors are counted in one pass that allocates
/// nothing: the number of times the sector changes.  `CsrMatrix::from_raw`
/// does not check that order, and a gather across rows (a warp reading the
/// k-th entry of 32 rows) has none, so a slice found unsorted on the way
/// falls back to sorting and deduplicating a copy of its sectors.
pub fn gather_sectors(cols: &[u32], elem_bytes: usize) -> u64 {
    let Some((&first, rest)) = cols.split_first() else {
        return 0;
    };
    let per_sector = (SECTOR_BYTES / elem_bytes).max(1) as u32;
    let (mut previous, mut sectors) = (first, 1);
    for &col in rest {
        if col < previous {
            return unsorted_gather_sectors(cols, per_sector);
        }
        if col / per_sector != previous / per_sector {
            sectors += 1;
        }
        previous = col;
    }
    sectors
}

/// [`gather_sectors`] for a slice in no particular order.
fn unsorted_gather_sectors(cols: &[u32], per_sector: u32) -> u64 {
    let mut sectors: Vec<u32> = cols.iter().map(|&c| c / per_sector).collect();
    sectors.sort_unstable();
    sectors.dedup();
    sectors.len() as u64
}

/// Estimates the fraction of x-gather traffic served by the L2 cache.
///
/// The model follows the observation behind the paper's Figure 11a: when the
/// kernel's working set (the x vector plus format arrays) fits in the L2,
/// repeated gathers mostly hit; once the working set greatly exceeds the L2,
/// gathers mostly go to DRAM.  A smooth rational roll-off avoids cliffs that
/// would make the search landscape artificially discontinuous.
pub fn l2_hit_rate(working_set_bytes: f64, l2_capacity_bytes: f64, reuse_factor: f64) -> f64 {
    if working_set_bytes <= 0.0 {
        return 0.95;
    }
    let fit = l2_capacity_bytes / working_set_bytes;
    // reuse_factor > 1 means each x element is gathered several times, which
    // improves the effective hit rate even for working sets slightly larger
    // than the cache.
    let effective = (fit * reuse_factor.max(1.0).sqrt()).min(4.0);
    (0.95 * effective / (1.0 + effective)).clamp(0.05, 0.95)
}

/// Average number of lanes of a warp doing useful work when `active` lanes
/// out of [`WARP_SIZE`] are enabled; used to scale issue costs.
pub fn warp_efficiency(active: usize) -> f64 {
    active.clamp(1, WARP_SIZE) as f64 / WARP_SIZE as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_transactions_round_up() {
        // 32 f32 = 128 bytes = 4 sectors.
        let (txns, bytes) = transactions_for(Access::WarpCoalesced, 32, 4);
        assert_eq!(txns, 4);
        assert_eq!(bytes, 128.0);
        // A single element still needs one transaction but only its own bytes
        // count towards bandwidth (the sector is shared with neighbours).
        let (txns, bytes) = transactions_for(Access::WarpCoalesced, 1, 4);
        assert_eq!(txns, 1);
        assert_eq!(bytes, 4.0);
    }

    #[test]
    fn thread_contiguous_overfetches() {
        // 8 f32 = 32 bytes: one sector, charged with the uncoalesced penalty.
        let (txns, bytes) = transactions_for(Access::ThreadContiguous, 8, 4);
        assert_eq!(txns, 1);
        assert_eq!(bytes, 32.0 * UNCOALESCED_PENALTY);
        // 2 f32 consumes 8 bytes but still moves a penalised sector.
        let (_, bytes) = transactions_for(Access::ThreadContiguous, 2, 4);
        assert_eq!(bytes, 32.0 * UNCOALESCED_PENALTY);
        // Per-element it is always at least as expensive as a coalesced read.
        let (_, coalesced) = transactions_for(Access::WarpCoalesced, 8, 4);
        assert!(bytes >= coalesced);
    }

    #[test]
    fn scattered_charges_a_sector_per_element() {
        let (txns, bytes) = transactions_for(Access::Scattered, 10, 4);
        assert_eq!(txns, 10);
        assert_eq!(bytes, 320.0);
    }

    #[test]
    fn zero_elements_cost_nothing() {
        for access in [
            Access::WarpCoalesced,
            Access::ThreadContiguous,
            Access::Scattered,
        ] {
            assert_eq!(transactions_for(access, 0, 4), (0, 0.0));
        }
    }

    #[test]
    fn gather_sectors_deduplicates() {
        // Columns 0..8 all live in sector 0 (8 f32 per 32-byte sector).
        assert_eq!(gather_sectors(&[0, 1, 2, 3, 4, 5, 6, 7], 4), 1);
        // Spread columns touch distinct sectors.
        assert_eq!(gather_sectors(&[0, 100, 200, 300], 4), 4);
        assert_eq!(gather_sectors(&[], 4), 0);
        // Duplicate columns count once.
        assert_eq!(gather_sectors(&[64, 64, 64], 4), 1);
        // Unsorted input takes the fallback and still counts distinct sectors.
        assert_eq!(gather_sectors(&[300, 0, 301, 7], 4), 2);
    }

    #[test]
    fn gather_sectors_equals_sort_and_dedup_on_seeded_slices() {
        let mut rng = alpha_matrix::gen::rng::SplitMix64::new(0x5ec7);
        for round in 0..2_000 {
            let len = if round < 4 { 0 } else { rng.next_below(80) };
            // Narrow spans make duplicates and shared sectors common; the
            // widest reaches the top of the index range.
            let span = [4, 64, 4_096, u32::MAX as usize][round % 4];
            let mut cols: Vec<u32> = (0..len).map(|_| rng.next_below(span) as u32).collect();
            match round % 3 {
                0 => cols.sort_unstable(),
                1 => {
                    cols.sort_unstable();
                    cols.dedup();
                }
                _ => {}
            }
            for elem_bytes in [4, 8, 64] {
                // The sort + dedup count, the only one before the single pass.
                let per_sector = (SECTOR_BYTES / elem_bytes).max(1) as u32;
                assert_eq!(
                    gather_sectors(&cols, elem_bytes),
                    unsorted_gather_sectors(&cols, per_sector),
                    "{cols:?} at {elem_bytes} bytes"
                );
            }
        }
    }

    #[test]
    fn l2_hit_rate_tracks_working_set() {
        let l2 = 40.0 * 1024.0 * 1024.0;
        let small = l2_hit_rate(1.0e6, l2, 1.0);
        let medium = l2_hit_rate(l2, l2, 1.0);
        let large = l2_hit_rate(100.0 * l2, l2, 1.0);
        assert!(small > medium && medium > large);
        assert!(small <= 0.95 && large >= 0.05);
        // Reuse improves the hit rate for an over-capacity working set.
        assert!(l2_hit_rate(4.0 * l2, l2, 16.0) > l2_hit_rate(4.0 * l2, l2, 1.0));
    }

    #[test]
    fn warp_efficiency_bounds() {
        assert_eq!(warp_efficiency(32), 1.0);
        assert_eq!(warp_efficiency(64), 1.0);
        assert_eq!(warp_efficiency(16), 0.5);
        assert_eq!(warp_efficiency(0), 1.0 / 32.0);
    }
}
