//! Graph-structure enumeration and mutation (search level 1) plus the
//! coarse/fine parameter sweeps (levels 2 and 3).

use crate::prune::PruneRules;
use alpha_graph::params::{operator_params, with_param};
use alpha_graph::{presets, Operator, OperatorGraph};
use alpha_matrix::CsrMatrix;

/// Deterministic xorshift generator for structure mutation.
pub struct MutationRng {
    state: u64,
}

impl MutationRng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        MutationRng { state: seed | 1 }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn pick(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

/// Seed structures: every preset design that is valid for the matrix and not
/// banned by the pruning rules, plus `ROW_DIV` hybrids sized by the
/// row-length-mutation discretisation for irregular matrices.
///
/// A seed describes a format and its mapping, never its inner loop: no
/// operator of the graph picks SIMD lanes.  Under either evaluator the host
/// that builds the winner times the loops its library offers, once, after the
/// search (`AlphaSparse::rebuild`, `alpha_cpu::NativeKernel::select`), without
/// touching the graph, the winner or any cache key.
pub fn seed_structures(matrix: &CsrMatrix, rules: &PruneRules) -> Vec<OperatorGraph> {
    let mut seeds: Vec<OperatorGraph> = Vec::new();
    for (_, graph) in presets::all_presets() {
        if graph.validate().is_ok() && !rules.bans_graph(&graph) {
            seeds.push(graph);
        }
    }
    if rules.stats().is_irregular() || !rules.banned_operator_names().contains(&"ROW_DIV") {
        for parts in rules.row_div_candidates(matrix) {
            let graph = presets::row_split_hybrid(parts);
            if graph.validate().is_ok() && !rules.bans_graph(&graph) && parts <= matrix.rows() {
                seeds.push(graph);
            }
        }
    }
    seeds
}

/// Applies one random structural mutation to a graph (swap a reduction
/// strategy, toggle sorting/interleaving, add or remove padding, change the
/// mapping).  Returns `None` when the mutated graph is invalid or banned.
pub fn mutate_structure(
    graph: &OperatorGraph,
    rng: &mut MutationRng,
    rules: &PruneRules,
) -> Option<OperatorGraph> {
    let mut mutated = graph.clone();
    let branch_index = rng.pick(mutated.branches.len());
    let kind = rng.pick(6);
    match kind {
        0 => {
            // Toggle the global SORT.
            if let Some(pos) = mutated
                .converting
                .iter()
                .position(|o| matches!(o, Operator::Sort))
            {
                mutated.converting.remove(pos);
            } else {
                let insert_at = if mutated
                    .converting
                    .last()
                    .map(|o| matches!(o, Operator::RowDiv { .. } | Operator::ColDiv { .. }))
                    .unwrap_or(false)
                {
                    mutated.converting.len() - 1
                } else {
                    mutated.converting.len()
                };
                mutated.converting.insert(insert_at, Operator::Sort);
            }
        }
        1 => {
            // Swap the block-level reduction.
            let branch = &mut mutated.branches[branch_index];
            branch.retain(|o| !matches!(o, Operator::ShmemOffsetRed | Operator::ShmemTotalRed));
            if rng.pick(2) == 0 {
                branch.push(Operator::ShmemOffsetRed);
            }
        }
        2 => {
            // Toggle the global-memory atomic finish.
            let branch = &mut mutated.branches[branch_index];
            if let Some(pos) = branch
                .iter()
                .position(|o| matches!(o, Operator::GmemAtomRed))
            {
                branch.remove(pos);
            } else {
                branch.push(Operator::GmemAtomRed);
            }
        }
        3 => {
            // Toggle interleaved storage (only meaningful for row mappings).
            let branch = &mut mutated.branches[branch_index];
            if let Some(pos) = branch
                .iter()
                .position(|o| matches!(o, Operator::InterleavedStorage))
            {
                branch.remove(pos);
            } else if let Some(mapping_pos) = branch
                .iter()
                .position(|o| matches!(o, Operator::BmtRowBlock { .. }))
            {
                branch.insert(mapping_pos + 1, Operator::InterleavedStorage);
            }
        }
        4 => {
            // Toggle thread-block blocking + padding.
            let branch = &mut mutated.branches[branch_index];
            let has_bmtb = branch
                .iter()
                .any(|o| matches!(o, Operator::BmtbRowBlock { .. }));
            if has_bmtb {
                branch.retain(|o| {
                    !matches!(
                        o,
                        Operator::BmtbRowBlock { .. }
                            | Operator::BmtbPad { .. }
                            | Operator::SortBmtb
                    )
                });
            } else if let Some(mapping_pos) = branch
                .iter()
                .position(|o| matches!(o, Operator::BmtRowBlock { .. }))
            {
                branch.insert(mapping_pos, Operator::BmtbRowBlock { rows: 64 });
                branch.insert(mapping_pos + 2, Operator::BmtbPad { multiple: 4 });
            }
        }
        _ => {
            // Swap the warp-level reduction strategy.
            let branch = &mut mutated.branches[branch_index];
            branch.retain(|o| {
                !matches!(
                    o,
                    Operator::WarpTotalRed | Operator::WarpBitmapRed | Operator::WarpSegRed
                )
            });
            match rng.pick(3) {
                0 => branch.push(Operator::WarpSegRed),
                1 => branch.push(Operator::WarpBitmapRed),
                _ => {}
            }
            // Keep the implementing stage ordered: reductions come after
            // SET_RESOURCES, which `retain`/`push` preserve.
        }
    }
    if mutated.validate().is_ok() && !rules.bans_graph(&mutated) && mutated != *graph {
        Some(mutated)
    } else {
        None
    }
}

/// Coarse parameter variants of a structure: every parameterised operator is
/// swept over its coarse grid one at a time (the base structure itself is
/// included as the first variant).
pub fn coarse_variants(graph: &OperatorGraph) -> Vec<OperatorGraph> {
    parameter_variants(graph, false)
}

/// Fine parameter variants used by the ML interpolation level.
pub fn fine_variants(graph: &OperatorGraph) -> Vec<OperatorGraph> {
    parameter_variants(graph, true)
}

fn parameter_variants(graph: &OperatorGraph, fine: bool) -> Vec<OperatorGraph> {
    let mut variants = vec![graph.clone()];
    // Sweep converting-chain parameters.
    for (i, op) in graph.converting.iter().enumerate() {
        for &(kind, current) in &operator_params(op) {
            let grid: Vec<usize> = if fine {
                kind.fine_grid()
            } else {
                kind.coarse_grid().to_vec()
            };
            for value in grid {
                if value == current {
                    continue;
                }
                let mut variant = graph.clone();
                variant.converting[i] = with_param(op, value);
                // Partition-count changes require matching branch counts.
                let expected = variant.expected_branches();
                if variant.branches.len() != expected {
                    let template = variant.branches[0].clone();
                    variant.branches = vec![template; expected];
                }
                if variant.validate().is_ok() {
                    variants.push(variant);
                }
            }
        }
    }
    // Sweep branch parameters (applied to every branch simultaneously, which
    // keeps branched designs symmetric).
    let branch_len = graph.branches.first().map(|b| b.len()).unwrap_or(0);
    for pos in 0..branch_len {
        let op = &graph.branches[0][pos];
        for &(kind, current) in &operator_params(op) {
            let grid: Vec<usize> = if fine {
                kind.fine_grid()
            } else {
                kind.coarse_grid().to_vec()
            };
            for value in grid {
                if value == current {
                    continue;
                }
                let mut variant = graph.clone();
                for branch in &mut variant.branches {
                    if pos < branch.len() {
                        branch[pos] = with_param(&branch[pos], value);
                    }
                }
                if variant.validate().is_ok() {
                    variants.push(variant);
                }
            }
        }
    }
    variants
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_matrix::gen;

    #[test]
    fn seeds_are_valid_and_respect_pruning() {
        let regular = gen::uniform_random(1_000, 1_000, 16, 1);
        let rules = PruneRules::new(&regular, true);
        let seeds = seed_structures(&regular, &rules);
        assert!(!seeds.is_empty());
        assert!(seeds.iter().all(|g| g.validate().is_ok()));
        assert!(seeds.iter().all(|g| !rules.bans_graph(g)));

        let no_rules = PruneRules::new(&regular, false);
        let unpruned = seed_structures(&regular, &no_rules);
        assert!(unpruned.len() >= seeds.len());
    }

    #[test]
    fn irregular_matrices_get_branched_seeds() {
        let irregular = gen::powerlaw(2_000, 2_000, 16, 1.8, 3);
        let rules = PruneRules::new(&irregular, true);
        let seeds = seed_structures(&irregular, &rules);
        assert!(seeds.iter().any(|g| g.expected_branches() > 1));
    }

    #[test]
    fn mutations_produce_valid_distinct_graphs() {
        let matrix = gen::powerlaw(1_000, 1_000, 10, 2.0, 5);
        let rules = PruneRules::new(&matrix, true);
        let base = presets::sell_like();
        let mut rng = MutationRng::new(7);
        let mut produced = 0;
        for _ in 0..50 {
            if let Some(mutated) = mutate_structure(&base, &mut rng, &rules) {
                assert!(mutated.validate().is_ok());
                assert_ne!(mutated.signature(), base.signature());
                produced += 1;
            }
        }
        assert!(
            produced > 5,
            "mutation should succeed reasonably often, got {produced}"
        );
    }

    #[test]
    fn coarse_variants_cover_parameter_grids() {
        let variants = coarse_variants(&presets::csr5_like(16));
        // nnz-per-thread coarse grid has 3 entries (one equals the default)
        // and threads-per-block has 3.
        assert!(variants.len() >= 4);
        assert!(variants.iter().all(|g| g.validate().is_ok()));
        let signatures: std::collections::BTreeSet<String> =
            variants.iter().map(|g| g.signature()).collect();
        assert_eq!(
            signatures.len(),
            variants.len(),
            "variants must be distinct"
        );
    }

    #[test]
    fn fine_variants_are_a_superset_of_coarse() {
        let coarse = coarse_variants(&presets::sell_like());
        let fine = fine_variants(&presets::sell_like());
        assert!(fine.len() > coarse.len());
    }

    #[test]
    fn branched_variants_keep_branch_counts_consistent() {
        let graph = presets::row_split_hybrid(2);
        for variant in coarse_variants(&graph) {
            assert_eq!(variant.branches.len(), variant.expected_branches());
        }
    }
}
