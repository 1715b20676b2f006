//! One [`Designer`] kept across the graphs of a search answers exactly like
//! a fresh one per graph.
//!
//! The graphs are the ones a search reaches: every preset, its coarse
//! parameter variants, and a walk of structural mutations.  They are designed
//! through **one** Designer — in a shuffled order, so a conversion is asked
//! for again after others came in between, and from four threads at once —
//! and every result must equal a fresh `design(graph, matrix)` field by field
//! (`PartitionPlan: PartialEq` compares the sub-matrix streams,
//! `origin_rows`, `bin_boundaries` and every scalar of the plan), errors
//! included.  (`alpha-graph`'s unit tests hold the preset-only half and the
//! forced-small memo.)
//!
//! A fresh `design` is itself a Designer, with a memo that is empty when the
//! call starts — so equality alone could not see two branches of *one* graph
//! wrongly sharing a conversion.  Every fresh design is therefore also held
//! to what any conversion must satisfy, memo or not: each local row is its
//! origin row, and the partitions hold every non-zero exactly once.

use alpha_graph::{design, presets, DesignError, Designer, MatrixMetadataSet, OperatorGraph};
use alpha_matrix::{gen::PatternFamily, CooMatrix, CsrMatrix};
use alpha_search::enumerate::{coarse_variants, mutate_structure, MutationRng};
use alpha_search::PruneRules;

/// Every pattern family plus the degenerate fleet's single-row, empty-row
/// and one-column matrices.
fn fleet() -> Vec<(String, CsrMatrix)> {
    let mut fleet: Vec<(String, CsrMatrix)> = PatternFamily::ALL
        .iter()
        .enumerate()
        .map(|(i, family)| {
            (
                family.name().to_string(),
                family.generate(256, 6, 500 + i as u64),
            )
        })
        .collect();
    let value = |k: usize| 0.25 + (k % 13) as f32 * 0.5;
    let mut single_row = CooMatrix::new(1, 200);
    for c in (0..200).step_by(3) {
        single_row.push(0, c, value(c));
    }
    let mut single_col = CooMatrix::new(200, 1);
    for r in (0..200).step_by(2) {
        single_col.push(r, 0, value(r));
    }
    let mut lone_row = CooMatrix::new(64, 64);
    for c in (0..64).step_by(5) {
        lone_row.push(63, c, value(c));
    }
    for (name, coo) in [
        ("1×n", single_row),
        ("n×1", single_col),
        ("all rows empty but the last", lone_row),
    ] {
        fleet.push((name.to_string(), CsrMatrix::from_coo(&coo)));
    }
    fleet
}

/// The graphs a search over `matrix` can reach: presets, their coarse
/// variants, and 200 mutation steps (a walk that restarts from the next
/// preset every 20 steps, so branched structures are mutated too).
fn reachable_graphs(matrix: &CsrMatrix, seed: u64) -> Vec<OperatorGraph> {
    let presets: Vec<OperatorGraph> = presets::all_presets().into_iter().map(|(_, g)| g).collect();
    let mut graphs: Vec<OperatorGraph> = presets.iter().flat_map(coarse_variants).collect();
    let rules = PruneRules::new(matrix, false);
    let mut rng = MutationRng::new(seed);
    let mut current = presets[0].clone();
    for step in 0..200 {
        if step % 20 == 0 {
            current = presets[(step / 20) % presets.len()].clone();
        }
        if let Some(mutated) = mutate_structure(&current, &mut rng, &rules) {
            graphs.push(mutated.clone());
            current = mutated;
        }
    }
    graphs
}

/// What the converting stage must produce whichever way it was computed:
/// local row `r` of a partition is row `origin_rows[r]` of the matrix
/// (restricted to the partition's column band, re-indexed), every row is
/// covered once (once per band under `COL_DIV`), and no non-zero is lost.
fn assert_partitions_cover_the_matrix(matrix: &CsrMatrix, metadata: &MatrixMetadataSet, who: &str) {
    let row_of = |m: &CsrMatrix, row: usize, band: std::ops::Range<usize>| -> Vec<(usize, u32)> {
        m.row_range(row)
            .map(|idx| (m.col_indices()[idx] as usize, m.values()[idx].to_bits()))
            .filter(|(col, _)| band.contains(col))
            .map(|(col, bits)| (col - band.start, bits))
            .collect()
    };
    let mut covered = vec![0usize; matrix.rows()];
    for plan in &metadata.partitions {
        assert_eq!(plan.origin_rows.len(), plan.rows(), "{who}");
        let band = plan.col_offset..plan.col_offset + plan.matrix.cols();
        for (local, &origin) in plan.origin_rows.iter().enumerate() {
            covered[origin as usize] += 1;
            assert_eq!(
                row_of(&plan.matrix, local, 0..plan.matrix.cols()),
                row_of(matrix, origin as usize, band.clone()),
                "{who}: local row {local} is not row {origin}"
            );
        }
    }
    assert_eq!(metadata.total_partition_nnz(), matrix.nnz(), "{who}");
    let bands = match metadata.partitions.first() {
        Some(plan) if plan.shares_rows_with_siblings => metadata.partitions.len(),
        _ => 1,
    };
    assert!(covered.iter().all(|&times| times == bands), "{who}");
}

/// Fisher-Yates under a fixed xorshift stream.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed | 1;
    for i in (1..items.len()).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

#[test]
fn one_designer_equals_a_fresh_design_for_every_reachable_graph() {
    const THREADS: usize = 4;
    for (i, (name, matrix)) in fleet().into_iter().enumerate() {
        let mut graphs = reachable_graphs(&matrix, 11 + i as u64);
        assert!(graphs.len() > 200, "{name}: only {} graphs", graphs.len());
        shuffle(&mut graphs, 3 + i as u64);
        let fresh: Vec<Result<MatrixMetadataSet, DesignError>> =
            graphs.iter().map(|graph| design(graph, &matrix)).collect();
        let errors = fresh.iter().filter(|design| design.is_err()).count();
        for (graph, fresh) in graphs.iter().zip(&fresh) {
            if let Ok(metadata) = fresh {
                let who = format!("{name}: {}", graph.signature());
                assert_partitions_cover_the_matrix(&matrix, metadata, &who);
            }
        }

        let designer = Designer::new(&matrix);
        // Thread `t` designs graphs t, t + 4, t + 8, ...: neighbours in the
        // shuffled order run at the same time on different threads.
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (designer, graphs, fresh, start, name) =
                    (&designer, &graphs, &fresh, &start, &name);
                scope.spawn(move || {
                    start.wait();
                    for k in (t..graphs.len()).step_by(THREADS) {
                        assert!(
                            designer.design(&graphs[k]) == fresh[k],
                            "{name}: {} differs from its fresh design",
                            graphs[k].signature()
                        );
                    }
                });
            }
        });
        // And once more from one thread, against a memo that is now warm.
        for (graph, fresh) in graphs.iter().zip(&fresh) {
            assert!(designer.design(graph) == *fresh, "{name}: warm pass");
        }

        let stats = designer.stats();
        assert_eq!(stats.designs, 2 * graphs.len() as u64, "{name}");
        assert!(stats.built > 0 && stats.reused > 0, "{name}: {stats:?}");
        // Even in a shuffled order most conversions of a family matrix are
        // reuses.  (A degenerate matrix's `origin_rows` outweigh its
        // streams, so few of its conversions fit the memo at once.)
        if i < PatternFamily::ALL.len() {
            assert!(stats.reused > stats.built, "{name}: {stats:?}");
        }
        // The degenerate matrices reject the splits they cannot carry, and
        // the Designer repeats those errors verbatim.
        if matrix.rows() == 1 || matrix.cols() == 1 {
            assert!(errors > 0, "{name}: no design was rejected");
        }
    }
}
