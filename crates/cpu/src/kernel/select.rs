//! Choosing a partition's inner loop by running it.
//!
//! A design says nothing about its inner loop: no operator of the graph
//! picks lanes, so the Designer leaves every `PartitionPlan.simd` scalar,
//! under the cost model and under measured evaluation alike.  Which
//! library loop is fastest is a fact about *this host and this partition's
//! rows* (on the reference host the better vector loop is typically
//! 1.3–1.7× the scalar one on regular 16-nnz rows — 1.0–2.1× over all
//! readings — 1.1–1.7× on regular 8-nnz rows, and 1.0–1.5×, a tie as often
//! as a win, where a few very long rows' `x`-gather misses are the time), so
//! it is settled the way the paper's search settles
//! everything else — by measurement: every admissible loop ([`candidates`])
//! is bound to the partition's own streams, checked against the scalar
//! loop's `y` under twice the per-row bound [`dot_error_bound`], and raced
//! ([`RACE`]) as the whole partition, split on the pool the way `run(x, 0)`
//! splits it.  On a partition whose rows are column runs each candidate with
//! a run twin binds it (`col:run`): the column coding is the sub-matrix's,
//! not a candidate.  The row-lane candidate runs on a slab the
//! partition builds once and drops unless it wins.
//!
//! The winner is reported as a [`SimdPlan`], so the caller writes it into the
//! design's metadata and every later `NativeKernel::new` lowers the same
//! loop from it.  The choice travels as the kernel-shape label
//! ([`NativeKernel::partition_shapes`]); [`plans_from_label`] turns a
//! recorded label back into plans without measuring, and refuses labels
//! this host cannot run.

use super::{
    dot_error_bound, effective_workers, KernelBuildError, NativeKernel, NativePartition,
    PartitionExec,
};
use crate::cpu_features;
use crate::harness::TimingHarness;
use crate::simd::{ResolvedSimd, SimdMode};
use crate::specialized::SimdClass;
use alpha_codegen::MachineFormat;
use alpha_graph::{Mapping, MatrixMetadataSet, SimdLaneMapping, SimdPlan};
use alpha_matrix::{DenseVector, Scalar};
use alpha_parallel::Pool;
use std::time::Instant;

/// How the candidate loops are raced: 7 interleaved rounds, the fastest
/// counting, after the verification run that is each one's warmup — 32
/// executions per row partition in all.
const RACE: TimingHarness = TimingHarness { warmup: 0, runs: 7 };

/// How one partition's inner loop was chosen.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopChoice {
    /// The winning loop as a plan — what the caller writes into the
    /// partition's `PartitionPlan.simd`.
    pub plan: SimdPlan,
    /// The winning loop's label, e.g. `avx2-nnz-x8` or `scalar` (the part of
    /// [`KernelShape::label`](crate::KernelShape::label) after the `:`).
    pub label: String,
    /// `(loop label, ns per non-zero)` of every candidate that was timed, in
    /// candidate order: the fastest of its rounds running the whole
    /// partition on the pool, over the partition's non-zeros.  A candidate
    /// that failed verification is absent.
    pub measured: Vec<(String, f64)>,
}

impl std::fmt::Display for LoopChoice {
    /// `avx2-nnz-x8 (scalar 1.67, avx2-nnz-x4 0.85, avx2-nnz-x8 0.80 ns/nnz)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label)?;
        if self.measured.is_empty() {
            return Ok(());
        }
        let timings: Vec<String> = self
            .measured
            .iter()
            .map(|(label, ns)| format!("{label} {ns:.2}"))
            .collect();
        write!(f, " ({} ns/nnz)", timings.join(", "))
    }
}

/// The loops a partition may run on this host, scalar first: the host
/// backend's nnz lanes ×4 and ×8 (AVX2 gathers, NEON, or the portable lane
/// code) and, on a row partition (`rows_path`), row lanes ×8 on a slab
/// (`avx2-row-x8` on AVX2, `row-x8` elsewhere).  The
/// [`cpu_features::NO_SIMD_ENV`] override leaves only the scalar loop.
///
/// Row lanes are offered at ×8 only.  On the repo benchmark's large class
/// (2 threads, its sim-chosen designs) the slab read 0.55–0.64 ns/nnz on
/// unsorted `powerlaw` partitions, whose short rows (median 4 non-zeros)
/// each pay a serial tail in an nnz loop, against 1.11–1.41 for the
/// `avx2-nnz-x8` winner; at
/// 16 384×16 and 8 192×8 unsorted `powerlaw` and R-MAT partitions ran
/// 1.5–2.6× faster on it.  On regular rows (`uniform`, `banded`) it read
/// within ±7 % of the nnz loops, and on designs that already sorted their
/// rows by length 1.0–1.3×: a measured candidate, not a rule.  (Before the
/// slab, row lanes walked 8 separate CSR rows and lost to the best of
/// {scalar, ×4, ×8} in 173 of 180 readings.)  These are every vector loop
/// the library has: there is no other way a design reaches one.
fn candidates(rows_path: bool) -> Vec<SimdPlan> {
    let mut plans = vec![SimdPlan::scalar()];
    if !cpu_features::force_scalar() {
        plans.extend([4, 8].map(|lanes| SimdPlan {
            lanes,
            lane_mapping: SimdLaneMapping::Nnz,
        }));
        if rows_path {
            plans.push(SimdPlan {
                lanes: 8,
                lane_mapping: SimdLaneMapping::Rows,
            });
        }
    }
    plans
}

/// True when a partition mapped as `mapping` runs the row-partition loop.
fn rows_path(mapping: &Mapping) -> bool {
    !matches!(mapping, Mapping::NnzSplit { .. })
}

/// The loop label `plan` lowers to on a partition mapped as `mapping`.
fn loop_label(mapping: &Mapping, plan: &SimdPlan) -> String {
    let resolved = ResolvedSimd::resolve(plan, SimdMode::Auto);
    SimdClass::classify(&resolved, rows_path(mapping)).label()
}

/// The per-partition plans a recorded kernel-shape label names for this
/// design, or `None` when the label does not describe loops this host would
/// itself choose between: unparsable text, a partition count that does not
/// match, a foreign backend (`neon-*` on x86), a loop outside the candidate
/// set, anything vectorized under [`cpu_features::NO_SIMD_ENV`].  The
/// caller then selects afresh — a stale label is never an error.
pub fn plans_from_label(metadata: &MatrixMetadataSet, label: &str) -> Option<Vec<SimdPlan>> {
    // Only the loop half of each segment is trusted; the rest restates the
    // format and the sub-matrix (a `col:table` recorded before column runs
    // existed lowers to the run twin of its loop).
    let loops: Vec<&str> = label
        .split('|')
        .map(|segment| segment.rsplit_once(':').map(|(_, recorded)| recorded))
        .collect::<Option<_>>()?;
    // One segment per partition ([`NativeKernel::partition_shapes`]), or —
    // `shape_label` dedups equal neighbours — segments that all name one
    // loop, which every partition then runs.
    let partitions = &metadata.partitions;
    if loops.len() != partitions.len() && loops.iter().any(|l| *l != loops[0]) {
        return None;
    }
    partitions
        .iter()
        .enumerate()
        .map(|(index, partition)| {
            let recorded = loops[index.min(loops.len() - 1)];
            candidates(rows_path(&partition.mapping))
                .iter()
                .find(|plan| loop_label(&partition.mapping, plan) == recorded)
                .copied()
        })
        .collect()
}

/// Twice [`dot_error_bound`] per output row of `partition`: a candidate and
/// the scalar loop are each within it of the exact dot product, hence within
/// twice it of each other.
fn agreement_bounds(partition: &NativePartition, x: &[Scalar], rows: usize) -> Vec<f64> {
    let matrix = &partition.matrix;
    let mut bounds = vec![0.0f64; rows];
    for row in 0..matrix.rows() {
        let range = matrix.row_range(row);
        let magnitude: f64 = range
            .clone()
            .map(|i| {
                let column = matrix.col_indices()[i] as usize + partition.col_offset;
                (matrix.values()[i] as f64 * x[column] as f64).abs()
            })
            .sum();
        bounds[partition.origin.get(row) as usize] += 2.0 * dot_error_bound(range.len(), magnitude);
    }
    bounds
}

/// True when every row of `candidate` is within its bound of `scalar` (or
/// the very same bits: infinities, and NaNs poisoning the same rows).
fn agrees(candidate: &[Scalar], scalar: &[Scalar], bounds: &[f64]) -> bool {
    candidate
        .iter()
        .zip(scalar)
        .zip(bounds)
        .all(|((&c, &s), &bound)| {
            (c as f64 - s as f64).abs() <= bound
                || c.to_bits() == s.to_bits()
                || (c.is_nan() && s.is_nan())
        })
}

/// One candidate loop that passed verification.
struct Timed {
    plan: SimdPlan,
    resolved: ResolvedSimd,
    label: String,
    /// Worker count `run(x, 0)` gives a kernel with this loop.
    workers: usize,
}

/// Measures `partition`'s candidate loops and leaves the fastest verified
/// one bound.  `kernel_nnz` is what the finished kernel sizes its automatic
/// worker count by; `y` and `scalar_y` are scratch of its output length.
fn choose(
    partition: &mut NativePartition,
    kernel_nnz: usize,
    x: &[Scalar],
    y: &mut [Scalar],
    scalar_y: &mut [Scalar],
) -> Result<LoopChoice, KernelBuildError> {
    let plans = candidates(matches!(partition.exec, PartitionExec::Rows { .. }));
    let mut measured = Vec::new();
    let mut winner = SimdPlan::scalar();
    // A lone candidate (the scalar loop `partition` is already bound to)
    // wins unmeasured.
    if plans.len() > 1 {
        let pool = Pool::shared();
        let bounds = agreement_bounds(partition, x, y.len());
        // The verification run of each candidate doubles as its warmup.
        let mut timed = Vec::with_capacity(plans.len());
        for plan in plans {
            let resolved = ResolvedSimd::resolve(&plan, SimdMode::Auto);
            partition.bind(resolved)?;
            let workers = effective_workers(0, kernel_nnz, partition.shape.simd.lanes());
            y.fill(0.0);
            partition.run(x, y, workers, pool);
            if !plan.is_vectorized() {
                scalar_y.copy_from_slice(y);
            } else if !agrees(y, scalar_y, &bounds) {
                continue;
            }
            timed.push(Timed {
                plan,
                resolved,
                label: partition.shape.loop_label(),
                workers,
            });
        }
        // A candidate costs what the whole partition costs under the split
        // `run(x, 0)` would use, on the pool that split runs on: a length-
        // sorted partition's straggler, and the fork-join, are in the time.
        let nnz = partition.matrix.nnz().max(1);
        let echo: Vec<(u64, usize)> = timed.iter().map(|c| (2 * nnz as u64, c.workers)).collect();
        let reports = RACE.race(
            &mut *partition,
            &echo,
            |partition, i| {
                partition
                    .bind(timed[i].resolved)
                    .expect("every raced loop was bound once already")
            },
            |partition, i| partition.run(x, y, timed[i].workers, pool),
        );
        for (candidate, report) in timed.iter().zip(&reports) {
            measured.push((candidate.label.clone(), report.min_us * 1e3 / nnz as f64));
        }
        let (fastest, _) = timed
            .iter()
            .zip(&reports)
            .min_by(|a, b| a.1.min_us.total_cmp(&b.1.min_us))
            .expect("the scalar loop always verifies");
        partition.bind(fastest.resolved)?;
        winner = fastest.plan;
    }
    let label = partition.shape.loop_label();
    alpha_telemetry::global()
        .counter("cpu_loop_select_total", &[("simd", &label)])
        .inc();
    Ok(LoopChoice {
        plan: winner,
        label,
        measured,
    })
}

impl NativeKernel {
    /// Lowers a design (whose plans leave the inner loop open: no design
    /// names one) and resolves each partition's loop on this host by
    /// measurement: the scalar loop, the
    /// host backend's nnz lanes ×4 and ×8 and, on a row partition, row lanes
    /// ×8 on a slab are bound in turn to the partition's own streams, a
    /// vector loop is checked against the scalar loop's `y` under twice
    /// [`dot_error_bound`] before it may win, and each is raced as the whole
    /// partition (32 executions per row partition in all, 24 per nnz
    /// partition) under the worker split `run(x, 0)` would use, on the pool
    /// it runs on; the fastest round ranks it.  The slab is built once per
    /// partition, and a kernel whose winner is not row lanes holds none.
    /// With
    /// [`NO_SIMD_ENV`](crate::NO_SIMD_ENV) set the scalar loop is the only
    /// candidate and nothing is timed.
    ///
    /// Returns the kernel, bound to the winners, and one [`LoopChoice`] per
    /// partition; writing each `choice.plan` into the partition's
    /// `PartitionPlan.simd` makes [`NativeKernel::new`] on that metadata
    /// lower this same kernel.  Counts `cpu_loop_select_total{simd=…}` per
    /// partition and observes `cpu_loop_select_us` on the global registry,
    /// inside a `cpu.select` span.
    pub fn select(
        metadata: &MatrixMetadataSet,
        format: &MachineFormat,
    ) -> Result<(NativeKernel, Vec<LoopChoice>), KernelBuildError> {
        let _span = alpha_telemetry::span!("cpu.select", nnz = metadata.original_nnz);
        let started = Instant::now();
        let x = DenseVector::random(metadata.original_cols, 0x5E1EC7);
        let mut y = vec![0.0; metadata.original_rows];
        let mut scalar_y = y.clone();
        let mut choices = Vec::with_capacity(metadata.partitions.len());
        let kernel = Self::lower_with(metadata, format, |_, partition| {
            choices.push(choose(
                partition,
                metadata.original_nnz,
                x.as_slice(),
                &mut y,
                &mut scalar_y,
            )?);
            Ok(())
        })?;
        alpha_telemetry::global()
            .histogram("cpu_loop_select_us", &[])
            .observe_duration(started.elapsed());
        Ok((kernel, choices))
    }

    /// Every partition's [`KernelShape`](crate::KernelShape) label joined
    /// with `|`, one segment per partition — [`NativeKernel::shape_label`]
    /// without the dedup, so [`plans_from_label`] can map it back.
    pub fn partition_shapes(&self) -> String {
        let labels: Vec<String> = self.partitions.iter().map(|p| p.shape.label()).collect();
        labels.join("|")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_codegen::{generate, GeneratedSpmv, GeneratorOptions};
    use alpha_graph::presets;
    use alpha_matrix::gen;

    fn generated(
        graph: &alpha_graph::OperatorGraph,
        matrix: &alpha_matrix::CsrMatrix,
    ) -> GeneratedSpmv {
        generate(graph, matrix, GeneratorOptions::default()).expect("generation succeeds")
    }

    #[test]
    fn selection_binds_a_measured_verified_loop_and_the_plan_lowers_to_it() {
        let matrix = gen::uniform_random(2_048, 2_048, 24, 5);
        let x = DenseVector::random(matrix.cols(), 9);
        let expected = matrix.spmv(x.as_slice()).unwrap();
        for graph in [
            presets::csr_scalar(),
            presets::csr5_like(64),
            presets::row_split_hybrid(2),
        ] {
            let mut generated = generated(&graph, &matrix);
            let (kernel, choices) =
                NativeKernel::select(generated.kernel.metadata(), &generated.format).unwrap();
            assert_eq!(choices.len(), generated.format.partitions.len());
            for choice in &choices {
                if cpu_features::force_scalar() {
                    assert!(choice.measured.is_empty() && choice.label == "scalar");
                    continue;
                }
                assert_eq!(choice.measured[0].0, "scalar", "scalar is timed first");
                assert!(choice.measured.len() <= 4);
                let fastest = choice
                    .measured
                    .iter()
                    .min_by(|a, b| a.1.total_cmp(&b.1))
                    .unwrap();
                assert_eq!(fastest.0, choice.label, "{choice}");
                assert!(choice.to_string().ends_with("ns/nnz)"), "{choice}");
            }
            let y = kernel.run(x.as_slice(), 2).unwrap();
            assert!(DenseVector::from_vec(y.clone()).approx_eq(&expected, 1e-3));

            // Written into the plans, the choice is what plain lowering
            // follows — and what the recorded label maps back to.
            let plans: Vec<SimdPlan> = choices.iter().map(|c| c.plan).collect();
            assert_eq!(
                plans_from_label(generated.kernel.metadata(), &kernel.partition_shapes()),
                Some(plans.clone())
            );
            generated.set_simd_plans(&plans);
            let twin = NativeKernel::new(generated.kernel.metadata(), &generated.format);
            assert_eq!(twin.partition_shapes(), kernel.partition_shapes());
            assert_eq!(twin.simd_label(), kernel.simd_label());
            assert_eq!(twin.max_lanes(), kernel.max_lanes());
            let bits = |y: &[Scalar]| y.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(&twin.run(x.as_slice(), 2).unwrap()), bits(&y));
        }
    }

    #[test]
    fn labels_this_host_would_not_choose_are_refused_not_trusted() {
        let matrix = gen::uniform_random(256, 256, 8, 3);
        let one = generated(&presets::csr_scalar(), &matrix);
        let one = one.kernel.metadata();
        let two = generated(&presets::row_split_hybrid(2), &matrix);
        let two = two.kernel.metadata();
        assert_eq!((one.partitions.len(), two.partitions.len()), (1, 2));

        let scalar = Some(vec![SimdPlan::scalar()]);
        assert_eq!(
            plans_from_label(one, "rows[off:table,org:id,col:table]:scalar"),
            scalar
        );
        // Only the loop half is read; deduped scalar segments cover any
        // number of partitions.
        assert_eq!(plans_from_label(one, "anything:scalar"), scalar);
        assert_eq!(
            plans_from_label(two, "rows[a]:scalar|nnz[b]:scalar|rows[c]:scalar"),
            Some(vec![SimdPlan::scalar(); 2])
        );
        let foreign = match cpu_features::detect_hardware() {
            crate::SimdSupport::Avx2 => "neon-nnz-x8",
            _ => "avx2-nnz-x8",
        };
        for hostile in [
            "",
            "garbage",
            "rows[off:table,org:id,col:table]",
            "rows[off:table,org:id,col:table]:",
            "rows[off:table,org:id,col:table]:avx512-nnz-x16",
            // Not a loop selection chooses between: row lanes ×4, and the
            // retired 2-lane and `+pf` loops.
            "rows[off:table,org:id,col:table]:portable-nnz-x2",
            "rows[off:table,org:id,col:table]:row-x4",
            "rows[off:table,org:id,col:table]:avx2-nnz-x8+pf",
            &format!("rows[off:table,org:id,col:table]:{foreign}"),
        ] {
            assert_eq!(plans_from_label(one, hostile), None, "{hostile:?}");
        }
        if !cpu_features::force_scalar() {
            let vector = loop_label(&one.partitions[0].mapping, &candidates(true)[2]);
            let label = format!("rows[x]:{vector}");
            assert_eq!(plans_from_label(one, &label).unwrap()[0].lanes, 8);
            // Differing segments must map one to one.
            let mixed = format!("rows[x]:scalar|rows[y]:{vector}");
            assert_eq!(plans_from_label(one, &mixed), None);
            let lanes: Vec<usize> = plans_from_label(two, &mixed)
                .unwrap()
                .iter()
                .map(|p| p.lanes)
                .collect();
            assert_eq!(lanes, [1, 8]);
            let three = format!("{mixed}|rows[z]:scalar");
            assert_eq!(plans_from_label(two, &three), None);
        }
    }

    #[test]
    fn seeded_hostile_labels_give_none_or_host_plans_and_never_panic() {
        let matrix = gen::uniform_random(256, 256, 8, 3);
        let designs = [
            generated(&presets::csr_scalar(), &matrix),
            generated(&presets::row_split_hybrid(2), &matrix),
        ];
        let foreign = match cpu_features::detect_hardware() {
            crate::SimdSupport::Avx2 => "neon-nnz-x8",
            _ => "avx2-nnz-x8",
        };
        let host = candidates(true);
        let mut accepted = 0;
        let mut check = |metadata: &MatrixMetadataSet, label: &str| {
            if let Some(plans) = plans_from_label(metadata, label) {
                assert_eq!(plans.len(), metadata.partitions.len(), "{label:?}");
                assert!(plans.iter().all(|p| host.contains(p)), "{label:?}");
                accepted += 1;
            }
        };
        let mut rng = alpha_matrix::gen::rng::SplitMix64::new(0x1abe1);
        for round in 0..200 {
            let design = &designs[round % 2];
            let metadata = design.kernel.metadata();
            // A label this host would record, on a loop it would choose.
            let vector = loop_label(&metadata.partitions[0].mapping, &host[round % host.len()]);
            let mut label = NativeKernel::new(metadata, &design.format)
                .partition_shapes()
                .replace(":scalar", &format!(":{vector}"))
                .into_bytes();
            for _ in 0..1 + rng.next_below(3) {
                let at = rng.next_below(label.len() + 1);
                match rng.next_below(5) {
                    0 if at < label.len() => label[at] ^= 1 << rng.next_below(8),
                    1 => label.insert(at, b'|'),
                    2 => label.insert(at, b':'),
                    3 => {
                        if let Some(i) = label.iter().position(|&b| b == b"|:"[round % 2]) {
                            label.remove(i);
                        }
                    }
                    _ => {
                        let text = String::from_utf8_lossy(&label).replace(&vector, foreign);
                        label = text.into_bytes();
                    }
                }
            }
            let label = String::from_utf8_lossy(&label);
            for (end, _) in label.char_indices().chain([(label.len(), ' ')]) {
                check(metadata, &label[..end]);
            }
        }
        // Mutations that only touch the format half leave a usable label.
        assert!(accepted > 0);
    }

    #[test]
    fn a_recorded_gathering_winner_replays_as_a_run_kernel_with_its_loop() {
        // Stores written before column runs hold `col:table` labels for
        // banded winners.  Only the loop half is read, so each replays onto
        // the run twin of the loop it names.  (The candidates with run twins
        // are an nnz partition's: the row-lane candidate runs on its slab.)
        let matrix = gen::banded(1_024, 8, 7);
        let mut generated = generated(&presets::csr_scalar(), &matrix);
        let mapping = generated.kernel.metadata().partitions[0].mapping;
        for plan in candidates(false) {
            generated.set_simd_plans(&[plan]);
            let lowered = NativeKernel::new(generated.kernel.metadata(), &generated.format);
            let run = lowered.partition_shapes();
            assert!(run.contains(",col:run]:"), "{run}");
            let recorded = run.replace(",col:run]:", ",col:table]:");
            assert_eq!(
                plans_from_label(generated.kernel.metadata(), &recorded),
                Some(vec![plan]),
                "{recorded}"
            );
            assert_eq!(run.rsplit_once(':').unwrap().1, loop_label(&mapping, &plan));
        }
    }

    /// The row-lane candidate's plan, and the loop label it records here.
    fn row_candidate(generated: &GeneratedSpmv) -> Option<(SimdPlan, String)> {
        let plan = *candidates(true).last()?;
        let mapping = &generated.kernel.metadata().partitions[0].mapping;
        (plan.lane_mapping == SimdLaneMapping::Rows).then(|| (plan, loop_label(mapping, &plan)))
    }

    #[test]
    fn a_partition_whose_slab_loses_holds_no_slab() {
        let matrix = gen::powerlaw(3_000, 3_000, 6, 1.8, 5);
        let design = generated(&presets::csr_scalar(), &matrix);
        let metadata = design.kernel.metadata();
        let row_x8 = ResolvedSimd::resolve(
            &SimdPlan {
                lanes: 8,
                lane_mapping: SimdLaneMapping::Rows,
            },
            SimdMode::Auto,
        );
        // The slab is built when the row loop binds and kept while other
        // candidates bind; the finished kernel drops it with its loser.
        let lost = NativeKernel::lower_with(metadata, &design.format, |_, partition| {
            partition.bind(row_x8)?;
            assert_eq!(
                partition.slab.is_some(),
                row_x8.is_vectorized(),
                "{}",
                partition.shape.label()
            );
            partition.bind(ResolvedSimd::scalar())
        })
        .unwrap();
        assert!(lost.partitions.iter().all(|p| p.slab.is_none()));
        assert_eq!(lost.format_bytes(), design.format.bytes());
        // Whatever selection picks, a slab is held exactly by a row loop.
        for family in gen::PatternFamily::ALL {
            let matrix = family.generate(4_096, 6, 9);
            for graph in [presets::csr_scalar(), presets::sell_like()] {
                let design = generated(&graph, &matrix);
                let (kernel, _) =
                    NativeKernel::select(design.kernel.metadata(), &design.format).unwrap();
                for p in &kernel.partitions {
                    assert_eq!(
                        p.slab.is_some(),
                        p.shape.simd.is_row_lanes(),
                        "{}",
                        p.shape.label()
                    );
                }
            }
        }
    }

    #[test]
    fn a_recorded_nnz_label_replays_unchanged_and_a_row_label_replays_to_the_slab() {
        let matrix = gen::powerlaw(3_000, 3_000, 6, 1.8, 5);
        let x = DenseVector::random(matrix.cols(), 3);
        let mut generated = generated(&presets::csr_scalar(), &matrix);
        let scalar = NativeKernel::new(generated.kernel.metadata(), &generated.format);
        let mapping = generated.kernel.metadata().partitions[0].mapping;
        // A stored nnz winner (`avx2-nnz-x8` on AVX2) keeps its loop: the
        // label is parsed, nothing is measured.
        let nnz_x8 = *candidates(false).last().unwrap();
        let recorded = format!(
            "rows[off:table,org:id,col:table]:{}",
            loop_label(&mapping, &nnz_x8)
        );
        assert_eq!(
            plans_from_label(generated.kernel.metadata(), &recorded),
            Some(vec![nnz_x8]),
            "{recorded}"
        );
        let Some((plan, label)) = row_candidate(&generated) else {
            return; // vectors switched off: nothing but the scalar loop
        };
        // A recorded row-lane winner lowers onto its slab again.
        let recorded = format!("rows[off:table,org:id,col:table]:{label}");
        let plans = plans_from_label(generated.kernel.metadata(), &recorded);
        assert_eq!(plans, Some(vec![plan]), "{recorded}");
        generated.set_simd_plans(&plans.unwrap());
        let replayed = NativeKernel::new(generated.kernel.metadata(), &generated.format);
        assert_eq!(replayed.partition_shapes(), recorded);
        assert!(replayed.partitions[0].slab.is_some());
        let bits = |y: Vec<Scalar>| y.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for threads in [1, 2, 3] {
            assert_eq!(
                bits(replayed.run(x.as_slice(), threads).unwrap()),
                bits(scalar.run(x.as_slice(), threads).unwrap()),
                "{recorded} at {threads} thread(s)"
            );
        }
        // The label names the slab loop of this host, and no other.
        let foreign = if label.starts_with("avx2-") {
            "row-x8"
        } else {
            "avx2-row-x8"
        };
        for other in [foreign, "row-x4", "avx2-row-x4", "row-x8+pf"] {
            let label = format!("rows[off:table,org:id,col:table]:{other}");
            assert_eq!(
                plans_from_label(generated.kernel.metadata(), &label),
                None,
                "{label}"
            );
        }
    }

    #[test]
    fn a_candidate_that_disagrees_with_the_scalar_loop_cannot_win() {
        let scalar = [1.0, -2.0, 0.0, Scalar::NAN, Scalar::INFINITY];
        let bounds = [1e-6, 1e-6, 0.0, 0.0, 0.0];
        assert!(agrees(&scalar, &scalar, &bounds));
        assert!(agrees(
            &[1.0 + 5e-7, -2.0, 0.0, Scalar::NAN, Scalar::INFINITY],
            &scalar,
            &bounds
        ));
        // Outside the bound, a dropped NaN, a finite value for an infinity.
        assert!(!agrees(
            &[1.0 + 1e-5, -2.0, 0.0, Scalar::NAN, Scalar::INFINITY],
            &scalar,
            &bounds
        ));
        assert!(!agrees(
            &[1.0, -2.0, 0.0, 0.0, Scalar::INFINITY],
            &scalar,
            &bounds
        ));
        assert!(!agrees(
            &[1.0, -2.0, 0.0, Scalar::NAN, 3.0e38],
            &scalar,
            &bounds
        ));
    }
}
