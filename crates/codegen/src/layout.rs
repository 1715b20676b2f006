//! Work-distribution layout computations shared by the format extractor, the
//! simulated kernel and the source emitter.
//!
//! A [`PartitionLayout`] resolves the mapping stage of one partition into
//! concrete numbers: how many thread blocks are launched, which rows (or
//! non-zeros) each block and each thread own, and the padded chunk lengths
//! produced by the `*_PAD` operators.

use crate::WARP_SIZE;
use alpha_graph::{Mapping, PadScope, PartitionPlan};

/// Resolved layout of one partition.
#[derive(Debug, Clone)]
pub struct PartitionLayout {
    /// Threads per block actually used (a multiple of the warp size).
    pub threads_per_block: usize,
    /// Number of thread blocks launched for this partition.
    pub blocks: usize,
    /// Rows owned by each thread block (row-based mappings only).
    pub rows_per_block: usize,
    /// For `RowPerThread`: the padded chunk length of every thread, indexed
    /// by global thread id; equals the raw chunk length when no padding
    /// operator was applied.
    pub padded_chunk_lens: Vec<u32>,
    /// Total stored slots including padding (`>= nnz`).
    pub padded_nnz: usize,
}

impl PartitionLayout {
    /// Builds the layout for a partition plan.
    pub fn new(plan: &PartitionPlan) -> Self {
        match plan.mapping {
            Mapping::RowPerThread { rows_per_thread } => {
                Self::row_per_thread(plan, rows_per_thread.max(1))
            }
            Mapping::VectorPerRow { threads_per_row } => {
                Self::vector_per_row(plan, threads_per_row.max(1))
            }
            Mapping::NnzSplit { nnz_per_thread } => Self::nnz_split(plan, nnz_per_thread.max(1)),
        }
    }

    fn row_per_thread(plan: &PartitionPlan, rows_per_thread: usize) -> Self {
        let tpb = plan.threads_per_block.max(WARP_SIZE);
        let rows = plan.matrix.rows();
        // Rows handled by one full block of threads.
        let natural_rows_per_block = tpb * rows_per_thread;
        let rows_per_block = plan
            .rows_per_bmtb
            .map(|r| r.clamp(rows_per_thread, natural_rows_per_block))
            .unwrap_or(natural_rows_per_block)
            .max(rows_per_thread)
            // Keep block boundaries aligned to whole thread chunks so chunk
            // indices stay consistent across blocks.
            .div_ceil(rows_per_thread)
            * rows_per_thread;
        let blocks = rows.div_ceil(rows_per_block).max(1);

        // Raw chunk length per thread: the nnz of its rows.
        let threads_total = rows.div_ceil(rows_per_thread);
        let mut raw: Vec<u32> = Vec::with_capacity(threads_total);
        for t in 0..threads_total {
            let first = t * rows_per_thread;
            let last = ((t + 1) * rows_per_thread).min(rows);
            let len: usize = (first..last).map(|r| plan.matrix.row_len(r)).sum();
            raw.push(len as u32);
        }

        let threads_per_chunk_block = rows_per_block.div_ceil(rows_per_thread);
        let padded = apply_padding(plan, &raw, threads_per_chunk_block);
        let padded_nnz = padded.iter().map(|&l| l as usize).sum();
        PartitionLayout {
            threads_per_block: tpb,
            blocks,
            rows_per_block,
            padded_chunk_lens: padded,
            padded_nnz,
        }
    }

    fn vector_per_row(plan: &PartitionPlan, threads_per_row: usize) -> Self {
        let tpb = plan.threads_per_block.max(WARP_SIZE);
        let rows = plan.matrix.rows();
        let natural_rows_per_block = (tpb / threads_per_row).max(1);
        let rows_per_block = plan
            .rows_per_bmtb
            .map(|r| r.clamp(1, natural_rows_per_block))
            .unwrap_or(natural_rows_per_block);
        let blocks = rows.div_ceil(rows_per_block).max(1);
        PartitionLayout {
            threads_per_block: tpb,
            blocks,
            rows_per_block,
            padded_chunk_lens: Vec::new(),
            padded_nnz: plan.matrix.nnz(),
        }
    }

    fn nnz_split(plan: &PartitionPlan, nnz_per_thread: usize) -> Self {
        let tpb = plan.threads_per_block.max(WARP_SIZE);
        let nnz = plan.matrix.nnz();
        let threads_total = nnz.div_ceil(nnz_per_thread).max(1);
        let blocks = threads_total.div_ceil(tpb).max(1);
        PartitionLayout {
            threads_per_block: tpb,
            blocks,
            rows_per_block: 0,
            padded_chunk_lens: Vec::new(),
            padded_nnz: nnz,
        }
    }
}

/// Applies the partition's padding directive to raw per-thread chunk lengths.
fn apply_padding(plan: &PartitionPlan, raw: &[u32], threads_per_block: usize) -> Vec<u32> {
    let Some(padding) = plan.padding else {
        return raw.to_vec();
    };
    let multiple = padding.multiple.max(1) as u32;
    let round_up = |v: u32| v.div_ceil(multiple) * multiple;
    match padding.scope {
        PadScope::Thread => raw.iter().map(|&l| round_up(l.max(1))).collect(),
        PadScope::Warp | PadScope::ThreadBlock => {
            let group = match padding.scope {
                PadScope::Warp => WARP_SIZE,
                PadScope::ThreadBlock => threads_per_block.max(1),
                PadScope::Thread => unreachable!(),
            };
            let mut out = Vec::with_capacity(raw.len());
            for chunk in raw.chunks(group) {
                let width = round_up(chunk.iter().copied().max().unwrap_or(0).max(1));
                out.extend(std::iter::repeat_n(width, chunk.len()));
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_graph::{design, presets};
    use alpha_matrix::gen;

    fn plan_for(graph: &alpha_graph::OperatorGraph) -> PartitionPlan {
        let matrix = gen::powerlaw(300, 300, 8, 2.0, 5);
        design(graph, &matrix).unwrap().partitions.remove(0)
    }

    #[test]
    fn row_per_thread_layout_covers_all_rows() {
        let plan = plan_for(&presets::csr_scalar());
        let layout = PartitionLayout::new(&plan);
        assert_eq!(layout.padded_chunk_lens.len(), 300);
        assert!(layout.blocks * layout.rows_per_block >= 300);
        assert_eq!(layout.padded_nnz, plan.matrix.nnz());
    }

    #[test]
    fn block_padding_equalises_chunks_within_blocks() {
        let plan = plan_for(&presets::sell_like());
        let layout = PartitionLayout::new(&plan);
        assert!(layout.padded_nnz >= plan.matrix.nnz());
        // Within each thread-block group the padded lengths are identical.
        let group = plan.rows_per_bmtb.unwrap();
        for chunk in layout.padded_chunk_lens.chunks(group) {
            assert!(chunk.iter().all(|&l| l == chunk[0]));
        }
        // Sorting first reduces the padding overhead compared to the same
        // design without the global SORT (the reason SELL sorts at all).
        let unsorted_graph = alpha_graph::OperatorGraph {
            converting: vec![alpha_graph::Operator::Compress],
            branches: presets::sell_like().branches,
        };
        let unsorted_plan = plan_for(&unsorted_graph);
        let unsorted_layout = PartitionLayout::new(&unsorted_plan);
        assert!(layout.padded_nnz <= unsorted_layout.padded_nnz);
    }

    #[test]
    fn thread_padding_rounds_to_multiple() {
        let plan = plan_for(&presets::figure5_example());
        let layout = PartitionLayout::new(&plan);
        let multiple = plan.padding.unwrap().multiple as u32;
        assert!(layout
            .padded_chunk_lens
            .iter()
            .all(|&l| l % multiple == 0 && l > 0));
    }

    #[test]
    fn vector_layout_assigns_rows_per_block() {
        let plan = plan_for(&presets::csr_vector());
        let layout = PartitionLayout::new(&plan);
        assert_eq!(layout.rows_per_block, 128 / 32);
        assert!(layout.blocks * layout.rows_per_block >= 300);
    }

    #[test]
    fn nnz_split_layout_covers_all_nnz() {
        let plan = plan_for(&presets::csr5_like(16));
        let layout = PartitionLayout::new(&plan);
        assert!(layout.blocks * layout.threads_per_block * 16 >= plan.matrix.nnz());
    }
}
