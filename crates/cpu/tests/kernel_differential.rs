//! Differential acceptance suite of the native kernel: every preset design ×
//! every synthetic matrix family × every inner loop a host can select ×
//! {1, 4} threads, as lowered ([`SimdMode::Auto`]) and as its
//! [`SimdMode::ForceScalar`] twin, against an **f64 row-by-row reference**
//! with a *stated* per-row error bound ([`dot_error_bound`]; the f64
//! reference's own error is ~2⁻²⁹ of it and is ignored).
//!
//! Each loop is also held to its own, tighter bound `γ_k·Σ|a_ij·x_j|`
//! (Higham), `k` its pairing depth read off its summation order: the row
//! length for the scalar loop and row lanes, `max(⌊len/L⌋ + log₂ L,
//! len mod L) + 1` for nnz lanes ×`L` and their run twins — over the
//! families, NaN, Inf and subnormal rows, and the `0×n`, `n×0` and
//! `nnz = 0` shapes.  A row a design sums in parts — the column bands of a
//! `COL_DIV`, or the segments a worker span cuts from a `BMT_NNZ_BLOCK`
//! row — is held to `k` = the deepest part's depth plus the number of parts
//! added into its `y`.
//!
//! Beside the bound, the suite pins what must hold exactly:
//!
//! * row-lane kernels are **bitwise** equal to their forced-scalar twin (each
//!   lane sums its own row in stream order);
//! * hardware (AVX2/NEON) nnz-lane kernels are **bitwise** equal to the
//!   portable lane code of the same width (same lane schedule, same
//!   reduction tree, no FMA);
//! * NaNs poison exactly the rows that touch them and subnormals are not
//!   flushed, on both sides of the SIMD differential;
//! * every format lineage the designer reaches lowers — under every
//!   selectable loop and forced scalar — to a kernel-library shape (a miss
//!   is a typed build error; there is no other executor);
//! * degenerate matrices (one row holding everything, `1×n`, `n×1`,
//!   duplicate coordinates, all rows empty but one) are correct, and empty
//!   ones are a typed generator error, never a panic;
//! * the kernel a host **selects** for a design ([`NativeKernel::select`]:
//!   the loop is measured, never designed) is held to the same bound on
//!   every preset × family and on the degenerate fleet, and is the kernel
//!   plain lowering builds from the selected plans;
//! * kernels lowered through one `Designer` that are one [`Program`] — what
//!   one verification and one timing are shared under — are one kernel: the
//!   same streams and shapes, and **bitwise**-equal `y` at 1 and 4 threads;
//!   and kernels with the same streams and shapes are one `Program`; equal
//!   [`PlannedProgram`] records — what the evaluator recognises a candidate
//!   by before it generates anything — are one `Program`, and unequal ones
//!   on one Designer are not, over every preset and its GPU-style rewrites;
//! * a kernel lowered through a warm `Designer` (the search's path) has the
//!   streams, shapes and bitwise `y` of the one lowered from a fresh design;
//! * the executing pool never changes `y`: `t` shares run one at a time on a
//!   `Pool::new(1)` are **bitwise** the same `t` shares run on a
//!   `Pool::new(t)` (what lets a daemon pick the pool by load);
//! * a row partition whose rows are all column runs lowers to `col:run`, and
//!   its `y` is **bitwise** that of the `col:table` kernel of the same loop;
//!   a gap, a duplicate or a stencil's several runs in any row keep
//!   `col:table`; every search seed on a banded matrix reads the column run
//!   under the nnz lanes;
//! * row lanes run on a length-sorted slab, and every row-lane class this
//!   host runs is **bitwise** the scalar loop at 1, 2 and 3 threads, on
//!   unsorted designs, on designs whose rows permute a block of `y` (SORT,
//!   SORT_SUB, BIN: written in place) and on scattered row bands (staged),
//!   over several sorting windows, with empty rows, one row longer than the
//!   rest of its window, a row summing to `-0.0`, a NaN or an Inf confined
//!   to its own row, and an empty column band that reads nothing.

use alpha_codegen::GeneratedSpmv;
use alpha_cpu::{dot_error_bound, NativeKernel, PlannedProgram, Program, SimdMode};
use alpha_graph::{presets, Operator, OperatorGraph, SimdLaneMapping, SimdPlan};
use alpha_matrix::{gen::PatternFamily, CooMatrix, CsrMatrix, DenseVector};
use alpha_parallel::Pool;

/// Nnz lanes ×`lanes`: a plan [`NativeKernel::select`] may pick.
const fn nnz_lanes(lanes: usize) -> SimdPlan {
    SimdPlan {
        lanes,
        lane_mapping: SimdLaneMapping::Nnz,
    }
}

/// Row lanes ×8 on a slab: the row-partition plan [`NativeKernel::select`]
/// may pick (on an nnz partition it runs scalar).
const ROW_LANES: SimdPlan = SimdPlan {
    lanes: 8,
    lane_mapping: SimdLaneMapping::Rows,
};

/// Every inner loop a host may select, by name; `base` is the design as
/// generated, scalar.
const LOOPS: [(&str, Option<SimdPlan>); 4] = [
    ("base", None),
    ("nnz-x8", Some(nnz_lanes(8))),
    ("nnz-x4", Some(nnz_lanes(4))),
    ("row-x8", Some(ROW_LANES)),
];

/// `generated` with `plan` (when given) written into every partition, as a
/// caller of [`NativeKernel::select`] writes the plans it picked.
fn with_loop(mut generated: GeneratedSpmv, plan: Option<SimdPlan>) -> GeneratedSpmv {
    if let Some(plan) = plan {
        let partitions = generated.kernel.metadata().partitions.len();
        generated.set_simd_plans(&vec![plan; partitions]);
    }
    generated
}

/// Generates `graph` for `matrix` with `plan` in every partition.
fn generate_with_loop(
    graph: &OperatorGraph,
    matrix: &CsrMatrix,
    plan: Option<SimdPlan>,
) -> Result<GeneratedSpmv, alpha_graph::DesignError> {
    alpha_codegen::generate(graph, matrix, alpha_codegen::GeneratorOptions::default())
        .map(|generated| with_loop(generated, plan))
}

/// Lowers `graph` for `matrix` with `plan` in every partition, and with
/// vectorization forced off.
fn lower_twins(
    graph: &OperatorGraph,
    matrix: &CsrMatrix,
    plan: Option<SimdPlan>,
    context: &str,
) -> [NativeKernel; 2] {
    let generated = generate_with_loop(graph, matrix, plan)
        .unwrap_or_else(|e| panic!("{context}: generation failed: {e}"));
    let auto = NativeKernel::try_new(generated.kernel.metadata(), &generated.format)
        .unwrap_or_else(|e| panic!("{context}: kernel build rejected: {e}"));
    let scalar = NativeKernel::with_simd_mode(
        generated.kernel.metadata(),
        &generated.format,
        SimdMode::ForceScalar,
    );
    assert!(
        !scalar.is_vectorized() && scalar.shape_label().ends_with(":scalar"),
        "{context}: ForceScalar twin must resolve every partition scalar, got {}",
        scalar.shape_label()
    );
    [auto, scalar]
}

/// The f64 reference of one row: `(Σ a·x, Σ |a·x|, len)`.
fn reference_rows(matrix: &CsrMatrix, x: &[f32]) -> Vec<(f64, f64, usize)> {
    (0..matrix.rows())
        .map(|row| {
            let range = matrix.row_range(row);
            let mut sum = 0.0f64;
            let mut magnitude = 0.0f64;
            for idx in range.clone() {
                let term =
                    matrix.values()[idx] as f64 * x[matrix.col_indices()[idx] as usize] as f64;
                sum += term;
                magnitude += term.abs();
            }
            (sum, magnitude, range.len())
        })
        .collect()
}

/// Holds every row of `y` to its [`dot_error_bound`].
fn assert_within_bound(y: &[f32], reference: &[(f64, f64, usize)], context: &str) {
    assert_eq!(y.len(), reference.len(), "{context}: output length");
    for (row, (&got, &(sum, magnitude, len))) in y.iter().zip(reference).enumerate() {
        let bound = dot_error_bound(len, magnitude);
        let error = (got as f64 - sum).abs();
        assert!(
            error <= bound,
            "{context}: row {row} (len {len}) is {got:e}, reference {sum:e}: \
             error {error:.3e} exceeds the bound {bound:.3e}"
        );
    }
}

fn bits(y: &[f32]) -> Vec<u32> {
    y.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn every_preset_family_and_simd_variant_is_within_the_stated_bound() {
    let mut vectorized_runs = 0usize;
    // Explicit share counts, so a one-core host still splits the work.
    let one_at_a_time = Pool::new(1);
    let fanned_out = [(2, Pool::new(2)), (4, Pool::new(4))];
    let mut work_splits = std::collections::BTreeSet::new();
    for (preset_name, base) in presets::all_presets() {
        for (fi, family) in PatternFamily::ALL.iter().enumerate() {
            let matrix = family.generate(384, 6, 900 + fi as u64);
            let x = DenseVector::random(matrix.cols(), 7);
            let reference = reference_rows(&matrix, x.as_slice());
            for (variant, plan) in LOOPS {
                let context = format!("{preset_name}/{variant}/{}", family.name());
                let [auto, scalar] = lower_twins(&base, &matrix, plan, &context);
                vectorized_runs += auto.is_vectorized() as usize;
                // Both twins within the bound of the reference puts them
                // within twice the bound of each other; no separate
                // twin-vs-twin tolerance is needed.
                for threads in [1, 4] {
                    for (mode, kernel) in [("auto", &auto), ("forced-scalar", &scalar)] {
                        let context = format!(
                            "{context} [{}] {mode} at {threads} thread(s)",
                            kernel.shape_label()
                        );
                        let y = kernel
                            .run(x.as_slice(), threads)
                            .unwrap_or_else(|e| panic!("{context}: run failed: {e}"));
                        assert_within_bound(&y, &reference, &context);
                    }
                }
                for (shares, pool) in &fanned_out {
                    let [serial, fanned] = [&one_at_a_time, pool].map(|pool| {
                        bits(&auto.run_with_pool(x.as_slice(), *shares, pool).unwrap())
                    });
                    assert_eq!(
                        serial,
                        fanned,
                        "{context} [{}]: {shares} shares on one thread and on {shares} differ",
                        auto.shape_label()
                    );
                }
                for partition in auto.shape_label().split('|') {
                    work_splits.insert(if partition.starts_with("nnz[") {
                        "nnz-split"
                    } else if partition.contains("org:table") {
                        "reordered rows"
                    } else {
                        "rows"
                    });
                }
                if variant.starts_with("row-") {
                    // Row lanes interleave rows, not one row's terms: every
                    // row is still summed in stream order.
                    assert_eq!(
                        bits(&auto.run(x.as_slice(), 1).unwrap()),
                        bits(&scalar.run(x.as_slice(), 1).unwrap()),
                        "{context} [{}]: row-lane kernels must be bitwise scalar",
                        auto.shape_label()
                    );
                }
            }
        }
    }
    assert_eq!(
        work_splits.into_iter().collect::<Vec<_>>(),
        ["nnz-split", "reordered rows", "rows"],
        "the pool comparison must cover every way a kernel splits its work"
    );
    // The suite only proves something if the SIMD loops actually ran: every
    // preset admits at least the nnz-lane shape, so even a NEON/AVX2-less
    // host exercises the portable lane kernels here.  The one legitimate
    // all-scalar run is the `ALPHA_CPU_NO_SIMD` override, under which this
    // suite instead proves the scalar resolution stays correct end to end.
    if alpha_cpu::cpu_features::force_scalar() {
        assert_eq!(
            vectorized_runs, 0,
            "the env override must pin every kernel scalar"
        );
    } else {
        assert!(
            vectorized_runs > 0,
            "no vectorized kernel ran — the differential tested nothing"
        );
    }
}

/// Lowers `graph` for `matrix` with every partition's inner loop selected by
/// measurement, checks that writing the picks into the plans makes plain
/// lowering build the same kernel, and returns it.
fn lower_selected(generated: &mut GeneratedSpmv, context: &str) -> NativeKernel {
    let (selected, choices) = NativeKernel::select(generated.kernel.metadata(), &generated.format)
        .unwrap_or_else(|e| panic!("{context}: selection rejected: {e}"));
    let plans: Vec<_> = choices.iter().map(|choice| choice.plan).collect();
    generated.set_simd_plans(&plans);
    let lowered = NativeKernel::try_new(generated.kernel.metadata(), &generated.format)
        .unwrap_or_else(|e| panic!("{context}: selected plans do not lower: {e}"));
    assert_eq!(
        lowered.partition_shapes(),
        selected.partition_shapes(),
        "{context}: lowering must follow the selected plans"
    );
    selected
}

#[test]
fn selected_kernels_are_within_the_stated_bound() {
    for (preset_name, graph) in presets::all_presets() {
        for (fi, family) in PatternFamily::ALL.iter().enumerate() {
            let matrix = family.generate(384, 6, 900 + fi as u64);
            let x = DenseVector::random(matrix.cols(), 7);
            let reference = reference_rows(&matrix, x.as_slice());
            let context = format!("{preset_name}/selected/{}", family.name());
            let mut generated = alpha_codegen::generate(
                &graph,
                &matrix,
                alpha_codegen::GeneratorOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{context}: generation failed: {e}"));
            let kernel = lower_selected(&mut generated, &context);
            for threads in [1, 4] {
                let context = format!(
                    "{context} [{}] at {threads} thread(s)",
                    kernel.shape_label()
                );
                let y = kernel
                    .run(x.as_slice(), threads)
                    .unwrap_or_else(|e| panic!("{context}: run failed: {e}"));
                assert_within_bound(&y, &reference, &context);
            }
        }
    }
}

/// What a kernel reads, spelled out from the inputs it was lowered from: the
/// per-partition shapes, then every partition's streams, offsets and maps.
/// The slow, by-content counterpart of [`Program`].
fn spelled_out(generated: &GeneratedSpmv, kernel: &NativeKernel) -> String {
    use std::fmt::Write;
    let mut out = kernel.partition_shapes();
    let metadata = generated.kernel.metadata();
    for (plan, format) in metadata.partitions.iter().zip(&generated.format.partitions) {
        let matrix = &plan.matrix;
        let split = match plan.mapping {
            alpha_graph::Mapping::NnzSplit { nnz_per_thread } => nnz_per_thread,
            _ => 0,
        };
        write!(
            out,
            "\n{}x{} +{} /{split} {:?} {:?} {:?}",
            matrix.rows(),
            matrix.cols(),
            plan.col_offset,
            matrix.row_offsets(),
            matrix.col_indices(),
            bits(matrix.values()),
        )
        .unwrap();
        for name in ["origin_rows", "row_offsets", "bmt_row_starts"] {
            write!(out, " {:?}", format.array(name).map(|a| &a.data)).unwrap();
        }
    }
    out
}

/// One program a family's kernels lowered to: its record from the plans
/// and from the kernel, what it reads, `y` at 1 and at 4 threads, who
/// lowered to it first, and its sub-matrices.
struct Seen {
    planned: PlannedProgram,
    program: Program,
    reads: String,
    y: [Vec<u32>; 2],
    who: String,
}

#[test]
fn kernels_that_are_one_program_are_one_kernel() {
    let options = alpha_codegen::GeneratorOptions::default();
    let mut shared = 0usize;
    for (fi, family) in PatternFamily::ALL.iter().enumerate() {
        let matrix = family.generate(384, 6, 900 + fi as u64);
        let x = DenseVector::random(matrix.cols(), 7);
        // One Designer, as one search has: within it a piece is its row
        // order and band, so a by-content comparison and a `Program`
        // comparison separate exactly the same kernels.
        let designer = alpha_graph::Designer::new(&matrix);
        let mut seen: Vec<Seen> = Vec::new();
        let mut check = |generated: &GeneratedSpmv, kernel: NativeKernel, who| {
            let reads = spelled_out(generated, &kernel);
            let y = [1, 4].map(|threads| bits(&kernel.run(x.as_slice(), threads).unwrap()));
            // Equal plan records are one program (a row-lane plan on an nnz
            // partition runs scalar, so the converse holds only where every
            // plan is scalar, as in a search).
            let metadata = generated.kernel.metadata();
            if let Some(first) = seen
                .iter()
                .find(|first| first.planned.is(metadata, options))
            {
                assert!(
                    first.program.is(&kernel, 1),
                    "{who} and {} on {}: equal plan records, two programs",
                    first.who,
                    family.name()
                );
            }
            match seen.iter().find(|first| first.program.is(&kernel, 1)) {
                // One program, one reading and one result...
                Some(first) => {
                    shared += 1;
                    let context = format!("{who} and {} on {}", first.who, family.name());
                    assert!(
                        first.reads == reads,
                        "{context}: different kernels, one program"
                    );
                    assert_eq!(first.y[0], y[0], "{context}: y differs at 1 thread");
                    assert_eq!(first.y[1], y[1], "{context}: y differs at 4 threads");
                }
                // ...and one reading, one program.
                None => {
                    if let Some(first) = seen.iter().find(|first| first.reads == reads) {
                        panic!(
                            "{who} and {} on {}: same streams and shapes, two programs",
                            first.who,
                            family.name()
                        );
                    }
                    seen.push(Seen {
                        planned: PlannedProgram::of(metadata, options),
                        program: Program::of(&kernel, 1),
                        reads,
                        y,
                        who,
                    });
                }
            }
        };
        for (preset_name, base) in presets::all_presets() {
            for (variant, plan) in LOOPS {
                let who = format!("{preset_name}/{variant}");
                let generated = alpha_codegen::generate_with(&designer, &base, options)
                    .unwrap_or_else(|e| panic!("{who}: generation failed: {e}"));
                let mut generated = with_loop(generated, plan);
                let kernel = NativeKernel::new(generated.kernel.metadata(), &generated.format);
                check(&generated, kernel, who.clone());
                if variant == "base" {
                    let selected = lower_selected(&mut generated, &who);
                    check(&generated, selected, format!("{preset_name}/selected"));
                }
            }
        }
    }
    assert!(
        shared > 0,
        "no two designs shared a kernel — the suite compared nothing"
    );
}

/// Rewrites of each branch of `graph` in the manner of the evaluator's
/// GPU-only variants — resources, rows per thread block, a global atomic,
/// interleaving — plus two a CPU loop does read: a `SORT_BMTB` group
/// follows the rows per thread block, and an nnz chunk size.  Rewrites
/// that fail validation are dropped.
fn rewrites(graph: &OperatorGraph) -> Vec<OperatorGraph> {
    let mut out = Vec::new();
    for branch in 0..graph.branches.len() {
        let mut rewrite = |edit: &dyn Fn(&mut Vec<Operator>)| {
            let mut variant = graph.clone();
            edit(&mut variant.branches[branch]);
            if variant != *graph && variant.validate().is_ok() {
                out.push(variant);
            }
        };
        for resources in [64, 512] {
            rewrite(&|ops| {
                for op in ops.iter_mut() {
                    if let Operator::SetResources { threads_per_block } = op {
                        *threads_per_block = resources;
                    }
                }
            });
        }
        rewrite(&|ops| {
            let block = ops
                .iter()
                .position(|op| matches!(op, Operator::BmtbRowBlock { .. }));
            let thread = ops.iter().position(|op| {
                matches!(
                    op,
                    Operator::BmtRowBlock { .. }
                        | Operator::BmtColBlock { .. }
                        | Operator::BmtNnzBlock { .. }
                )
            });
            match (block, thread) {
                (Some(block), _) => ops[block] = Operator::BmtbRowBlock { rows: 128 },
                (None, Some(thread)) => ops.insert(thread, Operator::BmtbRowBlock { rows: 32 }),
                (None, None) => {}
            }
        });
        rewrite(&|ops| {
            if !ops.contains(&Operator::GmemAtomRed) {
                ops.push(Operator::GmemAtomRed);
            }
        });
        rewrite(&|ops| ops.retain(|op| *op != Operator::InterleavedStorage));
        rewrite(&|ops| {
            for op in ops.iter_mut() {
                if let Operator::BmtNnzBlock { nnz } = op {
                    *nnz *= 2;
                }
            }
        });
    }
    out
}

#[test]
fn equal_plan_records_are_the_same_program_and_unequal_ones_are_not() {
    // What the evaluator recognises a candidate by, before it generates
    // anything, against what the candidate lowers to: every preset and its
    // rewrites on every family, through one Designer as one search has.
    let options = alpha_codegen::GeneratorOptions::default();
    let (mut shared, mut programs) = (0usize, 0usize);
    for (fi, family) in PatternFamily::ALL.iter().enumerate() {
        let matrix = family.generate(256, 6, 900 + fi as u64);
        let x = DenseVector::random(matrix.cols(), 7);
        let designer = alpha_graph::Designer::new(&matrix);
        let mut seen: Vec<Seen> = Vec::new();
        for (preset, base) in presets::all_presets() {
            let graphs = std::iter::once(base.clone()).chain(rewrites(&base));
            for (variant, graph) in graphs.enumerate() {
                let who = format!("{preset}/{variant}");
                let Ok(generated) = alpha_codegen::generate_with(&designer, &graph, options) else {
                    continue;
                };
                let metadata = generated.kernel.metadata();
                let Ok(kernel) = NativeKernel::try_new(metadata, &generated.format) else {
                    continue;
                };
                let reads = spelled_out(&generated, &kernel);
                let y = [1, 4].map(|threads| bits(&kernel.run(x.as_slice(), threads).unwrap()));
                let context =
                    |first: &Seen| format!("{who} and {} on {}", first.who, family.name());
                match seen
                    .iter()
                    .find(|first| first.planned.is(metadata, options))
                {
                    // Equal records: one program, one reading, one result.
                    Some(first) => {
                        shared += 1;
                        assert!(
                            first.program.is(&kernel, 1),
                            "{}: equal plan records, two programs",
                            context(first)
                        );
                        assert!(first.reads == reads, "{}: two readings", context(first));
                        assert_eq!(first.y, y, "{}: y differs", context(first));
                    }
                    // Different records: different programs.
                    None => {
                        if let Some(first) = seen.iter().find(|first| first.program.is(&kernel, 1))
                        {
                            panic!("{}: different plan records, one program", context(first));
                        }
                        programs += 1;
                        seen.push(Seen {
                            planned: PlannedProgram::of(metadata, options),
                            program: Program::of(&kernel, 1),
                            reads,
                            y,
                            who,
                        });
                    }
                }
            }
        }
    }
    assert!(
        shared > 0 && programs > 2 * PatternFamily::ALL.len(),
        "{programs} programs, {shared} shared: the suite compared too little"
    );
}

#[test]
fn a_kernel_lowered_through_a_warm_designer_is_the_freshly_designed_kernel() {
    // A search designs all its candidates through one Designer; each kernel
    // must be the one a fresh design of the same graph lowers to — the same
    // streams, maps and shapes, and the same bits of `y`.
    let options = alpha_codegen::GeneratorOptions::default();
    for (fi, family) in PatternFamily::ALL.iter().enumerate() {
        let matrix = family.generate(384, 6, 900 + fi as u64);
        let x = DenseVector::random(matrix.cols(), 7);
        let designer = alpha_graph::Designer::new(&matrix);
        // Two passes: the second finds every conversion already built.
        for pass in ["cold", "warm"] {
            for (preset, graph) in presets::all_presets() {
                let context = format!("{preset}/{} ({pass} designer)", family.name());
                let [through, fresh] = [
                    alpha_codegen::generate_with(&designer, &graph, options),
                    alpha_codegen::generate(&graph, &matrix, options),
                ]
                .map(|generated| {
                    let generated =
                        generated.unwrap_or_else(|e| panic!("{context}: generation failed: {e}"));
                    let kernel =
                        NativeKernel::try_new(generated.kernel.metadata(), &generated.format)
                            .unwrap_or_else(|e| panic!("{context}: kernel build rejected: {e}"));
                    (spelled_out(&generated, &kernel), kernel)
                });
                assert!(through.0 == fresh.0, "{context}: different kernels");
                for threads in [1, 4] {
                    assert_eq!(
                        bits(&through.1.run(x.as_slice(), threads).unwrap()),
                        bits(&fresh.1.run(x.as_slice(), threads).unwrap()),
                        "{context}: y differs at {threads} thread(s)"
                    );
                }
            }
        }
        // The comparison only means something if conversions were reused.
        let stats = designer.stats();
        assert!(
            stats.reused >= stats.designs / 2,
            "{}: {stats:?}",
            family.name()
        );
    }
}

/// Every CSR row's dot product through the portable `L`-lane code.
fn portable_row_dots<const L: usize>(matrix: &CsrMatrix, x: &[f32]) -> Vec<f32> {
    (0..matrix.rows())
        .map(|row| {
            let range = matrix.row_range(row);
            alpha_cpu::simd::row_dot_nnz_portable::<L>(
                matrix.values(),
                matrix.col_indices(),
                x,
                0,
                range.start,
                range.end,
            )
        })
        .collect()
}

#[test]
fn hardware_nnz_lane_kernels_are_bitwise_the_portable_lanes() {
    // `csr_scalar` keeps the matrix's own row order and streams, so the
    // kernel's row `i` is exactly the lane dot over CSR row `i` — which the
    // portable lane code can recompute directly.  On a host without a vector
    // extension the kernel *is* the portable code and this pins the chunk
    // loop around it instead.
    let matrix = PatternFamily::ALL[1].generate(512, 11, 77);
    let x = DenseVector::random(matrix.cols(), 5);
    for lanes in [4, 8] {
        let context = format!("csr_scalar/nnz-x{lanes}");
        let plan = Some(nnz_lanes(lanes));
        let [auto, _] = lower_twins(&presets::csr_scalar(), &matrix, plan, &context);
        if alpha_cpu::cpu_features::force_scalar() {
            continue; // nothing vectorized to compare
        }
        assert_eq!(auto.max_lanes(), lanes, "{context}");
        let expected = match lanes {
            4 => portable_row_dots::<4>(&matrix, x.as_slice()),
            _ => portable_row_dots::<8>(&matrix, x.as_slice()),
        };
        for threads in [1, 4] {
            assert_eq!(
                bits(&auto.run(x.as_slice(), threads).unwrap()),
                bits(&expected),
                "{context} [{}] at {threads} thread(s): hardware lanes diverged \
                 from the portable lanes of the same width",
                auto.shape_label()
            );
        }
    }
}

/// One 8-row matrix whose rows isolate reduction corners: a NaN mid-row
/// (inside a lane group), a NaN in the serial tail (nnz % lanes != 0),
/// subnormal values, and ordinary rows that must stay exactly clean.
fn corner_case_matrix() -> (CsrMatrix, Vec<f32>) {
    let rows = 8usize;
    let cols = 32usize;
    let mut row_offsets = vec![0u32];
    let mut col_indices: Vec<u32> = Vec::new();
    let mut values: Vec<f32> = Vec::new();
    let mut push_row = |entries: &[(u32, f32)]| {
        for &(c, v) in entries {
            col_indices.push(c);
            values.push(v);
        }
        row_offsets.push(col_indices.len() as u32);
    };
    // Row 0: 12 entries, NaN at position 5 — inside the vector body of an
    // 8-lane kernel.
    let mut long_row: Vec<(u32, f32)> = (0..12).map(|i| (i as u32, 1.0 + i as f32)).collect();
    long_row[5].1 = f32::NAN;
    push_row(&long_row);
    // Row 1: 11 entries, NaN at position 10 — in the serial tail (11 % 8).
    let mut tail_row: Vec<(u32, f32)> = (0..11).map(|i| (i as u32 + 8, 2.0)).collect();
    tail_row[10].1 = f32::NAN;
    push_row(&tail_row);
    // Row 2: subnormal values times subnormal x entries.
    push_row(&[(0, 1.0e-40), (3, 2.0e-41), (24, 1.0e-38), (30, 4.0e-42)]);
    // Row 3: empty.
    push_row(&[]);
    // Rows 4..8: ordinary dense-ish rows that must come out NaN-free.
    for r in 0..4u32 {
        let entries: Vec<(u32, f32)> = (0..9)
            .map(|i| ((r * 3 + i * 2) % cols as u32, 0.5 + (i as f32) * 0.25))
            .collect();
        push_row(&entries);
    }
    let matrix = CsrMatrix::from_raw(rows, cols, row_offsets, col_indices, values)
        .expect("corner matrix is well-formed");
    let mut x: Vec<f32> = (0..cols).map(|c| 1.0 + (c as f32) * 0.125).collect();
    x[24] = 1.0e-39; // subnormal against row 2's subnormal value
    x[31] = f32::MIN_POSITIVE / 4.0;
    (matrix, x)
}

#[test]
fn nan_propagation_and_subnormals_survive_the_horizontal_add() {
    let (matrix, x) = corner_case_matrix();
    let reference = reference_rows(&matrix, &x);
    for (variant, plan) in LOOPS {
        let context = format!("corner/{variant}");
        let [auto, scalar] = lower_twins(&presets::csr_scalar(), &matrix, plan, &context);
        let y_auto = auto.run(&x, 1).unwrap();
        let y_scalar = scalar.run(&x, 1).unwrap();
        for (row, (a, s)) in y_auto.iter().zip(&y_scalar).enumerate() {
            match row {
                // The two NaN rows must poison their own result, on both
                // sides of the differential...
                0 | 1 => assert!(
                    a.is_nan() && s.is_nan(),
                    "{context}: row {row} must be NaN (auto {a}, scalar {s})"
                ),
                // ...and nothing else.  The subnormal row's products
                // underflow, where rounding is absolute, not relative: each
                // of its terms may be off by one subnormal ulp (2⁻¹⁴⁹),
                // and the tiny sum must not be flushed to a different value
                // on either side.
                2 => {
                    let ulp = f32::from_bits(1) as f64;
                    let (sum, _, len) = reference[2];
                    for (side, v) in [("auto", a), ("scalar", s)] {
                        assert!(
                            (*v as f64 - sum).abs() <= len as f64 * ulp,
                            "{context}: subnormal row, {side} {v:e} vs reference {sum:e}"
                        );
                    }
                    assert!(s.abs() < 1.0e-30, "{context}: subnormal row is tiny");
                }
                _ => {
                    assert_within_bound(&[*a], &reference[row..=row], &context);
                    assert_within_bound(&[*s], &reference[row..=row], &context);
                }
            }
        }
    }
}

#[test]
fn designer_reachable_lineages_lower_to_library_shapes() {
    // One representative per format lineage the paper's designer reaches:
    // CSR, ELL/SELL blocking, HYB row-splitting and merge-path (nnz-even)
    // partitioning.  `lower_twins` builds the kernel of each selectable loop
    // through `try_new` — a shape outside the monomorphized library would
    // surface there as `UnsupportedShape` — and the forced-scalar twin.
    let lineages: [(&str, OperatorGraph); 4] = [
        ("csr", presets::csr_scalar()),
        ("ell", presets::sell_like()),
        ("hyb", presets::row_split_hybrid(2)),
        ("merge", presets::csr5_like(64)),
    ];
    let matrix = PatternFamily::ALL[0].generate(512, 8, 4242);
    for (lineage, base) in lineages {
        for (variant, plan) in LOOPS {
            let context = format!("{lineage}/{variant}");
            for kernel in lower_twins(&base, &matrix, plan, &context) {
                let shape = kernel.shape_label();
                assert!(
                    shape.starts_with("rows[") || shape.starts_with("nnz["),
                    "{context}: {shape:?} is not a library shape"
                );
            }
        }
    }
}

/// Degenerate-but-valid matrices, each with at least one non-zero.
fn edge_fleet() -> Vec<(&'static str, CsrMatrix)> {
    let value = |k: usize| 0.25 + (k % 13) as f32 * 0.5;
    let mut fleet = Vec::new();

    let mut one_heavy_row = CooMatrix::new(9, 300);
    for c in 0..300 {
        one_heavy_row.push(4, c, value(c));
    }
    fleet.push(("one row holds every non-zero", one_heavy_row));

    let mut single_row = CooMatrix::new(1, 200);
    for c in (0..200).step_by(3) {
        single_row.push(0, c, value(c));
    }
    fleet.push(("1×n", single_row));

    let mut single_col = CooMatrix::new(200, 1);
    for r in (0..200).step_by(2) {
        single_col.push(r, 0, value(r));
    }
    fleet.push(("n×1", single_col));

    let mut duplicates = CooMatrix::new(40, 40);
    for r in 0..40 {
        for k in 0..4 {
            // Each coordinate is pushed three times.
            for _ in 0..3 {
                duplicates.push(r, (r * 5 + k * 7) % 40, value(r + k));
            }
        }
    }
    fleet.push(("duplicate coordinates", duplicates));

    let mut lone_row = CooMatrix::new(64, 64);
    for c in (0..64).step_by(5) {
        lone_row.push(63, c, value(c));
    }
    fleet.push(("all rows empty but the last", lone_row));

    fleet
        .into_iter()
        .map(|(name, coo)| (name, CsrMatrix::from_coo(&coo)))
        .collect()
}

#[test]
fn degenerate_matrices_are_correct_under_every_applicable_preset() {
    for (name, matrix) in edge_fleet() {
        let x = DenseVector::random(matrix.cols(), 3);
        let reference = reference_rows(&matrix, x.as_slice());
        let mut lowered = Vec::new();
        for (preset, graph) in presets::all_presets() {
            // A design that cannot apply to this matrix (e.g. a 2-way
            // ROW_DIV of a single row) is a typed generator error.
            let Ok(mut generated) = alpha_codegen::generate(
                &graph,
                &matrix,
                alpha_codegen::GeneratorOptions::default(),
            ) else {
                continue;
            };
            let designed = NativeKernel::try_new(generated.kernel.metadata(), &generated.format)
                .unwrap_or_else(|e| panic!("{name}/{preset}: kernel build rejected: {e}"));
            // Here the only sane pick is often the scalar loop (one row, or
            // rows shorter than a vector); whatever is picked must be right.
            let selected = lower_selected(&mut generated, &format!("{name}/{preset}"));
            for (how, kernel) in [("designed", &designed), ("selected", &selected)] {
                for threads in [1, 4] {
                    let context = format!(
                        "{name}/{preset} {how} [{}] at {threads} thread(s)",
                        kernel.shape_label()
                    );
                    let y = kernel
                        .run(x.as_slice(), threads)
                        .unwrap_or_else(|e| panic!("{context}: run failed: {e}"));
                    assert_within_bound(&y, &reference, &context);
                }
            }
            lowered.push(preset);
        }
        assert!(
            lowered.contains(&"csr_scalar") && lowered.len() >= 10,
            "{name}: only {lowered:?} applied — the edge case tested too little"
        );
    }
}

#[test]
fn empty_matrices_are_a_typed_generator_error() {
    let empties = [
        ("nnz = 0", CooMatrix::new(16, 16)),
        ("0×n", CooMatrix::new(0, 16)),
        ("n×0", CooMatrix::new(16, 0)),
    ];
    for (name, coo) in empties {
        let matrix = CsrMatrix::from_coo(&coo);
        for (preset, graph) in presets::all_presets() {
            let error = match alpha_codegen::generate(
                &graph,
                &matrix,
                alpha_codegen::GeneratorOptions::default(),
            ) {
                Ok(_) => panic!("{name}/{preset}: an empty matrix must not generate"),
                Err(error) => error.to_string(),
            };
            assert!(
                error.starts_with("unsupported design: empty matrices"),
                "{name}/{preset}: unexpected error {error:?}"
            );
        }
    }
}

/// `matrix` with a row appended whose columns leave a gap in both column
/// bands a two-way `COL_DIV` cuts (and, with `first`, the same row put
/// before the others too, so both halves of a two-way `ROW_DIV` hold one):
/// every other row is `matrix`'s.
fn with_gapped_rows(matrix: &CsrMatrix, first: bool) -> CsrMatrix {
    let band = matrix.cols().div_ceil(2);
    let gapped = [0, 2, band, band + 2].map(|col| (col as u32, 0.75));
    let mut offsets = vec![0];
    let (mut cols, mut values) = (Vec::new(), Vec::new());
    let mut push = |row: &[(u32, f32)]| {
        cols.extend(row.iter().map(|&(c, _)| c));
        values.extend(row.iter().map(|&(_, v)| v));
        offsets.push(cols.len() as u32);
    };
    if first {
        push(&gapped);
    }
    for row in 0..matrix.rows() {
        let range = matrix.row_range(row);
        let entries: Vec<(u32, f32)> = matrix.col_indices()[range.clone()]
            .iter()
            .copied()
            .zip(matrix.values()[range].iter().copied())
            .collect();
        push(&entries);
    }
    push(&gapped);
    CsrMatrix::from_raw(offsets.len() - 1, matrix.cols(), offsets, cols, values).unwrap()
}

/// A matrix of column runs of `lengths` (cycled over `rows`), `cols`
/// columns wide: row `r` starts at column `11r` wrapped to fit below
/// `width`, and every fourth row ends at column `width - 1`.
fn run_matrix(rows: usize, cols: usize, lengths: &[usize], width: usize) -> CsrMatrix {
    let mut coo = CooMatrix::new(rows, cols);
    for row in 0..rows {
        let len = lengths[row % lengths.len()];
        let room = width - len;
        let start = if row % 4 == 3 {
            room
        } else {
            (11 * row) % (room + 1)
        };
        for col in start..start + len {
            coo.push(row, col, 0.5 + ((row * 7 + col) % 17) as f32 * 0.25);
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// Whether each of the `parts` column bands a `COL_DIV` cuts `matrix` into
/// holds a non-zero: a band without one reads no column and keeps
/// `col:table`.
fn bands_with_nonzeros(matrix: &CsrMatrix, parts: usize) -> Vec<bool> {
    let band = matrix.cols().div_ceil(parts);
    let mut held = vec![false; parts];
    for &col in matrix.col_indices() {
        held[col as usize / band] = true;
    }
    held
}

/// The loop half of every partition's shape label, and whether each reads
/// column runs (`None` for an nnz partition).
fn run_partitions(kernel: &NativeKernel) -> Vec<(String, Option<bool>)> {
    kernel
        .partition_shapes()
        .split('|')
        .map(|segment| {
            let (format, loop_half) = segment.rsplit_once(':').unwrap();
            let run = segment
                .starts_with("rows[")
                .then(|| format.ends_with(",col:run]"));
            (loop_half.to_string(), run)
        })
        .collect()
}

#[test]
fn column_run_kernels_are_bitwise_their_gathering_twins() {
    let matrices = [
        ("banded", PatternFamily::Banded.generate(384, 6, 902)),
        ("block", PatternFamily::BlockDiagonal.generate(384, 6, 903)),
        // Rows of 0, 1, 7, 8, 9 and 17 non-zeros, some ending at the last
        // column.
        ("edge runs", run_matrix(96, 64, &[0, 1, 7, 8, 9, 17], 64)),
        // Every column in the left band: the right `COL_DIV` band has no
        // non-zero (so it keeps `col:table`), and the left one's runs end at
        // its last column.
        ("left band", run_matrix(96, 64, &[1, 8, 9, 32, 0, 7], 32)),
    ];
    // Each design keeps every row's columns one run: the matrix's own order,
    // two length sorts, length bins, a row split, and a two-way COL_DIV
    // (`col_offset > 0` on its right band).
    let designs = [
        ("csr_scalar", presets::csr_scalar()),
        ("sell_like", presets::sell_like()),
        ("row_grouped_csr_like", presets::row_grouped_csr_like()),
        ("acsr_like", presets::acsr_like(4)),
        ("row_split_hybrid", presets::row_split_hybrid(2)),
        ("col_split_atomic", presets::col_split_atomic(2)),
    ];
    let lanes: &[Option<usize>] = if alpha_cpu::cpu_features::force_scalar() {
        &[None]
    } else {
        &[None, Some(4), Some(8)]
    };
    let plans = |lanes: Option<usize>| lanes.map(nnz_lanes);
    let mut compared = std::collections::BTreeSet::new();
    for (name, matrix) in &matrices {
        let gapped = with_gapped_rows(matrix, true);
        let x = DenseVector::random(matrix.cols(), 17);
        for (design, base) in &designs {
            for &lanes in lanes {
                let context = format!("{name}/{design}/{lanes:?}");
                let [run, gathering] = [matrix, &gapped].map(|m| {
                    let generated = generate_with_loop(base, m, plans(lanes))
                        .unwrap_or_else(|e| panic!("{context}: generation failed: {e}"));
                    NativeKernel::try_new(generated.kernel.metadata(), &generated.format)
                        .unwrap_or_else(|e| panic!("{context}: kernel build rejected: {e}"))
                });
                let context = format!(
                    "{context} [{} vs {}]",
                    run.partition_shapes(),
                    gathering.partition_shapes()
                );
                let (runs, gathers) = (run_partitions(&run), run_partitions(&gathering));
                let expected: Vec<Option<bool>> = match *design {
                    "col_split_atomic" => bands_with_nonzeros(matrix, 2)
                        .into_iter()
                        .map(Some)
                        .collect(),
                    _ => vec![Some(true); runs.len()],
                };
                let read: Vec<Option<bool>> = runs.iter().map(|(_, r)| *r).collect();
                assert_eq!(read, expected, "{context}");
                assert!(gathers.iter().all(|(_, r)| *r == Some(false)), "{context}");
                let loops = |p: &[(String, Option<bool>)]| -> Vec<String> {
                    let mut loops: Vec<String> = p.iter().map(|(l, _)| l.clone()).collect();
                    loops.dedup();
                    loops
                };
                assert_eq!(loops(&runs), loops(&gathers), "{context}: one loop");
                for threads in [1, 2] {
                    let y = run.run(x.as_slice(), threads).unwrap();
                    let twin = gathering.run(x.as_slice(), threads).unwrap();
                    assert_eq!(
                        bits(&y),
                        bits(&twin[1..=matrix.rows()]),
                        "{context} at {threads} thread(s)"
                    );
                }
                compared.extend(loops(&runs));
            }
        }
    }
    // Every run twin this host runs was compared: the scalar loop, and the
    // nnz lanes ×4 and ×8 of its backend unless vectors are switched off.
    let expected = if alpha_cpu::cpu_features::force_scalar() {
        1
    } else {
        3
    };
    assert_eq!(compared.len(), expected, "{compared:?}");
}

#[test]
fn a_column_band_past_the_end_of_x_reads_no_run() {
    // Five columns in four `COL_DIV` bands of two: [0, 2), [2, 4), [4, 5)
    // and an empty band whose `col_offset`, 6, lies past the end of `x`.
    // The empty band keeps `col:table` and reads nothing; the three before
    // it read their runs.
    let matrix = run_matrix(40, 5, &[1, 2, 5, 0, 3], 5);
    assert!(matrix.column_runs().is_some());
    let x = DenseVector::random(matrix.cols(), 5);
    let reference = reference_rows(&matrix, x.as_slice());
    for lanes in [None, Some(4), Some(8)] {
        let context = format!("col_split_atomic(4)/{lanes:?}");
        let generated =
            generate_with_loop(&presets::col_split_atomic(4), &matrix, lanes.map(nnz_lanes))
                .unwrap_or_else(|e| panic!("{context}: generation failed: {e}"));
        let kernel = NativeKernel::try_new(generated.kernel.metadata(), &generated.format)
            .unwrap_or_else(|e| panic!("{context}: kernel build rejected: {e}"));
        let shapes = kernel.partition_shapes();
        for threads in [1, 2] {
            let y = kernel.run(x.as_slice(), threads).unwrap();
            assert_within_bound(
                &y,
                &reference,
                &format!("{context} [{shapes}] at {threads}"),
            );
        }
        let read: Vec<Option<bool>> = run_partitions(&kernel)
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        assert_eq!(
            read,
            [Some(true), Some(true), Some(true), Some(false)],
            "{context}: {shapes}"
        );
    }
}

#[test]
fn the_searchs_nnz_lane_seeds_read_the_column_run() {
    // Every structure a search seeds on a banded matrix, given the nnz
    // lanes ×8 loop selection may pick for it, lowers each row partition to
    // `col:run` with that loop (the scalar loop under the env override):
    // selection times the run twin, not a loop without one.
    let matrix = alpha_matrix::gen::banded(2_048, 4, 7);
    assert!(matrix.column_runs().is_some());
    let rules = alpha_search::PruneRules::new(&matrix, true);
    let expected = if alpha_cpu::cpu_features::force_scalar() {
        "scalar"
    } else {
        "-nnz-x8"
    };
    let mut row_partitions = 0;
    for graph in alpha_search::enumerate::seed_structures(&matrix, &rules) {
        let generated = generate_with_loop(&graph, &matrix, Some(nnz_lanes(8)))
            .unwrap_or_else(|e| panic!("{graph:?}: generation failed: {e}"));
        let kernel = NativeKernel::new(generated.kernel.metadata(), &generated.format);
        let shapes = kernel.partition_shapes();
        for (loop_half, run) in run_partitions(&kernel) {
            // NEON loops have no run twin.
            if run.is_none() || loop_half.starts_with("neon-") {
                continue;
            }
            row_partitions += 1;
            assert!(loop_half.ends_with(expected), "{shapes}");
            assert_eq!(run, Some(true), "{shapes}");
        }
    }
    assert!(row_partitions > 0, "no seed has a row partition");
}

#[test]
fn rows_that_are_not_one_run_keep_the_column_stream() {
    let banded = PatternFamily::Banded.generate(256, 6, 77);
    // One row holds column 3 twice.
    let duplicate = {
        let mut offsets = banded.row_offsets().to_vec();
        let mut cols = banded.col_indices().to_vec();
        let mut values = banded.values().to_vec();
        cols.extend([3, 3, 4]);
        values.extend([1.0, 2.0, 3.0]);
        offsets.push(cols.len() as u32);
        CsrMatrix::from_raw(banded.rows() + 1, banded.cols(), offsets, cols, values).unwrap()
    };
    let cases = [
        ("fem_stencil_2d", alpha_matrix::gen::fem_stencil_2d(20, 5)),
        ("last row gapped", with_gapped_rows(&banded, false)),
        ("duplicate column", duplicate),
    ];
    for (name, matrix) in &cases {
        assert!(matrix.column_runs().is_none(), "{name}");
        let x = DenseVector::random(matrix.cols(), 3);
        let reference = reference_rows(matrix, x.as_slice());
        for (design, base) in presets::all_presets() {
            for lanes in [None, Some(8)] {
                let context = format!("{name}/{design}/{lanes:?}");
                let Ok(mut generated) = generate_with_loop(&base, matrix, lanes.map(nnz_lanes))
                else {
                    continue;
                };
                let designed =
                    NativeKernel::try_new(generated.kernel.metadata(), &generated.format)
                        .unwrap_or_else(|e| panic!("{context}: kernel build rejected: {e}"));
                let selected = lower_selected(&mut generated, &context);
                for kernel in [&designed, &selected] {
                    let shapes = kernel.partition_shapes();
                    let held = match (*name, design) {
                        // A `ROW_DIV` part without the offending last row
                        // is rightly a run...
                        (_, "row_split_hybrid") => shapes.rsplit('|').next().unwrap(),
                        // ...and `COL_DIV` builds its bands through COO,
                        // which sums the duplicate into one entry.
                        ("duplicate column", "col_split_atomic") => "",
                        _ => &shapes,
                    };
                    assert!(!held.contains("col:run"), "{context}: {shapes}");
                    let y = kernel.run(x.as_slice(), 2).unwrap();
                    assert_within_bound(&y, &reference, &format!("{context} [{shapes}]"));
                }
            }
        }
    }
}

/// `y` bit for bit, a NaN standing for any NaN (its payload is whichever
/// operand an instruction happens to keep).
fn bits_or_nan(y: &[f32]) -> Vec<Option<u32>> {
    y.iter()
        .map(|v| (!v.is_nan()).then(|| v.to_bits()))
        .collect()
}

/// 2 061 rows (two full sorting windows and 13 rows, a multiple of neither
/// 8 nor the window) of 0–6 non-zeros, every fifth row empty, and row 1 500
/// holding 5 000: longer than the rest of its window combined.
fn long_row_matrix() -> CsrMatrix {
    let (rows, cols) = (2_061, 6_000);
    let mut coo = CooMatrix::new(rows, cols);
    for row in 0..rows {
        let len = match row {
            1_500 => 5_000,
            _ if row % 5 == 0 => 0,
            _ => row % 7,
        };
        for k in 0..len {
            coo.push(row, (row * 13 + k * 7) % cols, 0.25 + (k % 9) as f32 * 0.5);
        }
    }
    CsrMatrix::from_coo(&coo)
}

/// 2 061 rows of 0–10 non-zeros over 64 columns, and one 12-term row whose
/// every product is `-0.0` under the `x` the slab test draws (seed 29).
fn signed_zero_row_matrix() -> CsrMatrix {
    let (rows, cols) = (2_061, 64);
    let x = DenseVector::random(cols, 29);
    let mut coo = CooMatrix::new(rows, cols);
    for row in 0..rows {
        if row == 1_030 {
            // Away from the NaN (column 3) and the Inf (column 32).
            for c in (4..64).step_by(5).take(12) {
                let zero = if x.as_slice()[c] < 0.0 { 0.0 } else { -0.0 };
                coo.push(row, c, zero);
            }
            continue;
        }
        for k in 0..row % 11 {
            coo.push(row, (row * 7 + k * 5) % cols, 1.0 + k as f32);
        }
    }
    CsrMatrix::from_coo(&coo)
}

#[test]
fn row_lane_slabs_are_bitwise_the_scalar_loop() {
    let mut matrices: Vec<(String, CsrMatrix)> = PatternFamily::ALL
        .iter()
        .enumerate()
        .map(|(fi, family)| {
            (
                family.name().to_string(),
                family.generate(2_061, 6, 40 + fi as u64),
            )
        })
        .collect();
    matrices.push(("long row".into(), long_row_matrix()));
    matrices.push(("all rows empty but the last".into(), {
        let mut coo = CooMatrix::new(1_100, 64);
        for c in (0..64).step_by(5) {
            coo.push(1_099, c, 0.5 + c as f32);
        }
        CsrMatrix::from_coo(&coo)
    }));
    matrices.push(("a row summing to -0.0".into(), signed_zero_row_matrix()));
    // The matrix's own row order, a length sort, a length sort per row band
    // (SORT_SUB) and length bins: each permutes a block of `y`, so the slab
    // is built over output rows and written in place.  A global sort split
    // into bands scatters each band over `y`: its slab stages.
    let mut sorted_bands = presets::csr_scalar();
    sorted_bands.converting = vec![
        Operator::Compress,
        Operator::Sort,
        Operator::RowDiv { parts: 2 },
    ];
    sorted_bands.branches = vec![sorted_bands.branches[0].clone(); 2];
    let designs = [
        ("csr_scalar", presets::csr_scalar()),
        ("sell_like", presets::sell_like()),
        ("row_split_hybrid(2)", presets::row_split_hybrid(2)),
        ("acsr_like(4)", presets::acsr_like(4)),
        ("sorted bands", sorted_bands),
    ];
    let mut classes = std::collections::BTreeSet::new();
    for (name, matrix) in &matrices {
        let mut x = DenseVector::random(matrix.cols(), 29).as_slice().to_vec();
        // One NaN and one Inf in `x`, each read by a few rows: they must
        // poison or saturate those rows and no lane beside them.
        x[3] = f32::NAN;
        x[matrix.cols() / 2] = f32::INFINITY;
        for (design, base) in &designs {
            let context = format!("{name}/{design}/row-x8");
            let generated = generate_with_loop(base, matrix, Some(ROW_LANES))
                .unwrap_or_else(|e| panic!("{context}: generation failed: {e}"));
            let [slab, scalar] = [SimdMode::Auto, SimdMode::ForceScalar].map(|mode| {
                NativeKernel::with_simd_mode(generated.kernel.metadata(), &generated.format, mode)
            });
            let shape = slab.shape_label();
            if !alpha_cpu::cpu_features::force_scalar() {
                assert!(shape.ends_with("row-x8"), "{context}: {shape}");
                classes.insert(shape.rsplit_once(':').unwrap().1.to_string());
            }
            for threads in [1, 2, 3] {
                assert_eq!(
                    bits_or_nan(&slab.run(&x, threads).unwrap()),
                    bits_or_nan(&scalar.run(&x, 1).unwrap()),
                    "{context} [{shape}] at {threads} thread(s)"
                );
            }
        }
    }
    // The row-lane class of this host ran: ×8 on its backend (AVX2 gathers,
    // or portable lane code).
    let expected = if alpha_cpu::cpu_features::force_scalar() {
        0
    } else {
        1
    };
    assert_eq!(classes.len(), expected, "{classes:?}");
}

#[test]
fn an_empty_column_band_past_the_end_of_x_gathers_nothing_in_a_slab() {
    // Five columns in four `COL_DIV` bands: the last is empty and starts at
    // column 6, past the end of `x`.  Its slab has no non-zero to gather.
    let matrix = run_matrix(40, 5, &[1, 2, 5, 0, 3], 5);
    let x = DenseVector::random(matrix.cols(), 5);
    let reference = reference_rows(&matrix, x.as_slice());
    let context = "col_split_atomic(4)/row-x8";
    let generated = generate_with_loop(&presets::col_split_atomic(4), &matrix, Some(ROW_LANES))
        .unwrap_or_else(|e| panic!("{context}: generation failed: {e}"));
    let [slab, scalar] = [SimdMode::Auto, SimdMode::ForceScalar].map(|mode| {
        NativeKernel::with_simd_mode(generated.kernel.metadata(), &generated.format, mode)
    });
    let shapes = slab.partition_shapes();
    for threads in [1, 2, 3] {
        let y = slab.run(x.as_slice(), threads).unwrap();
        assert_within_bound(
            &y,
            &reference,
            &format!("{context} [{shapes}] at {threads}"),
        );
        assert_eq!(
            bits(&y),
            bits(&scalar.run(x.as_slice(), threads).unwrap()),
            "{context} [{shapes}] at {threads}"
        );
    }
}

/// The unit roundoff of `f32` and of `f64`.
const U32: f64 = f32::EPSILON as f64 / 2.0;
const U64: f64 = f64::EPSILON / 2.0;

/// Higham's `γ_k = k·u / (1 − k·u)`.
fn gamma(k: usize, u: f64) -> f64 {
    let ku = k as f64 * u;
    ku / (1.0 - ku)
}

/// The pairing depth `k` of a row of `len` terms: the most roundings any
/// term passes through on its way into `y`, one multiply and every add
/// after it, read off the summation order in `simd.rs`.  The scalar loop and
/// a row lane sum serially from `0.0` (the first add is exact): `len`.  Nnz
/// lanes ×`L` (and their run twins, which sum in the same order) give each
/// lane `⌊len/L⌋` terms, fold the lanes by a tree of depth `log₂ L`, and add
/// the serial tail of `len mod L` terms last, so the deeper of the two
/// paths is `max(⌊len/L⌋ + log₂ L, len mod L) + 1`.
fn pairing_depth(lanes: Option<usize>, len: usize) -> usize {
    match lanes {
        None => len,
        Some(l) => (len / l + l.trailing_zeros() as usize).max(len % l) + 1,
    }
}

/// How a design cuts a row's terms into parts that are summed apart and
/// then added into `y` one part at a time.
#[derive(Clone, Copy)]
enum Split {
    /// One part: the row is summed whole (`csr_scalar`).
    Whole,
    /// `COL_DIV`: one part per column band of `cols.div_ceil(parts)` that
    /// holds a term of the row.
    ColumnBands(usize),
    /// `BMT_NNZ_BLOCK` chunks of this many non-zeros: a worker span is whole
    /// chunks, so whatever the worker count a row is cut only at chunk
    /// boundaries — into at most the chunks it touches, each part at most
    /// the row long.
    NnzChunks(usize),
}

/// The pairing depth `k` of every row of `matrix` summed by a loop of nnz
/// lanes `lanes` under `split`.  A whole row is [`pairing_depth`].  A split
/// row is the deepest part's depth plus the number of parts merged into
/// it: each merge is one add into `y`.
fn row_depths(matrix: &CsrMatrix, lanes: Option<usize>, split: Split) -> Vec<usize> {
    let offsets = matrix.row_offsets();
    (0..matrix.rows())
        .map(|row| {
            let (start, end) = (offsets[row] as usize, offsets[row + 1] as usize);
            let len = end - start;
            match split {
                Split::Whole => pairing_depth(lanes, len),
                Split::ColumnBands(parts) => {
                    let band = matrix.cols().div_ceil(parts);
                    let mut lens = vec![0; parts];
                    for &col in &matrix.col_indices()[start..end] {
                        lens[col as usize / band] += 1;
                    }
                    let held = lens.iter().filter(|&&l| l > 0).count();
                    let deepest = lens.iter().map(|&l| pairing_depth(lanes, l)).max();
                    deepest.unwrap_or(0) + held
                }
                Split::NnzChunks(chunk) if len > 0 => {
                    let touched = (end - 1) / chunk - start / chunk + 1;
                    let deepest = (1..=len).map(|l| pairing_depth(lanes, l)).max();
                    deepest.unwrap_or(0) + touched
                }
                Split::NnzChunks(_) => 0,
            }
        })
        .collect()
}

/// The nnz lane width of a kernel's one loop (`None` for a serial loop:
/// scalar, or row lanes).
fn nnz_lane_width(kernel: &NativeKernel) -> Option<usize> {
    let label = kernel.simd_label();
    assert!(!label.contains('|'), "one loop per kernel: {label}");
    label
        .split_once("-nnz-x")
        .map(|(_, lanes)| lanes.parse().expect("a lane count"))
}

/// Holds every row of `y` to `γ_k·Σ|a_ij·x_j|`, `k` its entry of `depths`
/// ([`row_depths`]), plus the f64 reference's own `γ_len` in double
/// precision and, for products that underflow (where rounding is absolute,
/// not relative), `2⁻¹⁵⁰` per term, doubled for the adds it passes through.
/// A row the reference makes NaN or ±Inf must read the same.  Returns the
/// largest share of its bound a finite row used.
fn assert_within_pairing_bound(
    y: &[f32],
    reference: &[(f64, f64, usize)],
    depths: &[usize],
    context: &str,
) -> f64 {
    assert_eq!(y.len(), reference.len(), "{context}: output length");
    let mut used = 0.0f64;
    for (row, (&got, &(sum, magnitude, len))) in y.iter().zip(reference).enumerate() {
        if !sum.is_finite() {
            assert!(
                (sum.is_nan() && got.is_nan()) || got as f64 == sum,
                "{context}: row {row} is {got:e}, reference {sum:e}"
            );
            continue;
        }
        let k = depths[row];
        let underflow = len as f64 * f32::from_bits(1) as f64;
        let bound = (gamma(k, U32) + gamma(len, U64)) * magnitude + underflow;
        let error = (got as f64 - sum).abs();
        assert!(
            error <= bound,
            "{context}: row {row} (len {len}, k {k}) is {got:e}, reference {sum:e}: \
             error {error:.3e} exceeds γ_k·Σ|a·x| = {bound:.3e}"
        );
        if bound > 0.0 {
            used = used.max(error / bound);
        }
    }
    used
}

/// The portable lane code at both widths: what a host without a vector
/// extension runs, and the order the hardware lanes match bit for bit.
fn portable_lanes(matrix: &CsrMatrix, x: &[f32]) -> [(usize, Vec<f32>); 2] {
    [
        (4, portable_row_dots::<4>(matrix, x)),
        (8, portable_row_dots::<8>(matrix, x)),
    ]
}

/// Rows that isolate what a lane schedule does with non-finite and tiny
/// terms: a NaN in a lane group and in a tail, a +Inf and a −Inf `x` entry
/// (alone, and meeting each other), subnormal products, products that
/// underflow from normal operands, and a row whose 15 terms put the 8-lane
/// tail deeper than the lanes.
fn non_finite_and_tiny_rows() -> (CsrMatrix, Vec<f32>) {
    let cols = 64usize;
    let mut x: Vec<f32> = (0..cols).map(|c| 0.75 + (c % 5) as f32 * 0.5).collect();
    x[40] = f32::INFINITY;
    x[41] = f32::NEG_INFINITY;
    x[42] = 1.0e-39;
    x[43] = f32::MIN_POSITIVE;
    let mut coo = CooMatrix::new(10, cols);
    let mut push_row = |row: usize, entries: &[(usize, f32)]| {
        for &(c, v) in entries {
            coo.push(row, c, v);
        }
    };
    let ordinary = |start: usize, len: usize| -> Vec<(usize, f32)> {
        (start..start + len)
            .map(|c| (c, 1.0 + (c % 7) as f32 / 3.0))
            .collect()
    };
    let mut body_nan = ordinary(0, 12);
    body_nan[3].1 = f32::NAN;
    push_row(0, &body_nan);
    let mut tail_nan = ordinary(0, 13);
    tail_nan[12].1 = f32::NAN;
    push_row(1, &tail_nan);
    push_row(2, &[ordinary(0, 9), vec![(40, 2.0)]].concat());
    push_row(3, &[ordinary(20, 5), vec![(41, 0.5)]].concat());
    push_row(4, &[(40, 1.0), (41, 1.0), (3, 1.0)]);
    push_row(
        5,
        &[(42, 1.0e-40), (43, 2.0e-41), (0, 1.0e-44), (1, 3.0e-45)],
    );
    push_row(6, &[(43, 0.3), (42, 1.0e-39), (5, 1.0e-38), (9, -1.0e-38)]);
    push_row(7, &ordinary(30, 15));
    // Row 8 stays empty; row 9 cancels to a tiny sum.
    push_row(9, &[(0, 1.0e8), (1, 1.0), (2, -1.0e8), (3, 1.0e-3)]);
    (CsrMatrix::from_coo(&coo), x)
}

#[test]
fn every_loop_is_within_gamma_k_of_its_pairing_depth() {
    let mut fleet: Vec<(String, CsrMatrix, Vec<f32>)> = PatternFamily::ALL
        .iter()
        .enumerate()
        .map(|(fi, family)| {
            let matrix = family.generate(384, 6, 900 + fi as u64);
            let x = DenseVector::random(matrix.cols(), 7).as_slice().to_vec();
            (family.name().to_string(), matrix, x)
        })
        .collect();
    let (corner, x) = corner_case_matrix();
    fleet.push(("corner".into(), corner, x));
    let (tiny, x) = non_finite_and_tiny_rows();
    fleet.push(("non-finite and tiny".into(), tiny, x));
    let runs = run_matrix(96, 200, &[1, 3, 8, 15, 16, 17, 40], 120);
    let x = DenseVector::random(runs.cols(), 3).as_slice().to_vec();
    fleet.push(("column runs".into(), runs, x));

    // `csr_scalar` keeps every row whole and in place: kernel row `i` is one
    // loop's dot over CSR row `i`.  `col_split_atomic` sums a row's column
    // bands apart and adds each into `y`; `csr5_like` cuts a row that
    // crosses a worker span into segments merged the same way.
    let designs = [
        ("csr_scalar", presets::csr_scalar(), Split::Whole),
        (
            "col_split_atomic(2)",
            presets::col_split_atomic(2),
            Split::ColumnBands(2),
        ),
        (
            "col_split_atomic(4)",
            presets::col_split_atomic(4),
            Split::ColumnBands(4),
        ),
        (
            "csr5_like(16)",
            presets::csr5_like(16),
            Split::NnzChunks(16),
        ),
    ];
    let mut loops = std::collections::BTreeSet::new();
    let mut tightest = 0.0f64;
    for (name, matrix, x) in &fleet {
        let reference = reference_rows(matrix, x);
        for (design, graph, split) in &designs {
            for (variant, plan) in LOOPS {
                let context = format!("{name}/{design}/{variant}");
                let [auto, scalar] = lower_twins(graph, matrix, plan, &context);
                for kernel in [&auto, &scalar] {
                    let depths = row_depths(matrix, nnz_lane_width(kernel), *split);
                    let shape = kernel.shape_label();
                    let run = if shape.contains("col:run") {
                        "run "
                    } else {
                        ""
                    };
                    loops.insert(format!("{run}{}", kernel.simd_label()));
                    for threads in [1, 4] {
                        let y = kernel.run(x, threads).unwrap();
                        let context = format!("{context} [{shape}] at {threads} thread(s)");
                        let used = assert_within_pairing_bound(&y, &reference, &depths, &context);
                        tightest = tightest.max(used);
                    }
                }
            }
        }
        for (lanes, y) in portable_lanes(matrix, x) {
            let context = format!("{name}/portable-nnz-x{lanes}");
            let depths = row_depths(matrix, Some(lanes), Split::Whole);
            assert_within_pairing_bound(&y, &reference, &depths, &context);
        }
    }
    // The shapes no design accepts (`empty_matrices_are_a_typed_generator_error`)
    // still meet the bound through the loops that take any CSR: the
    // reference loop's serial order and the portable lanes.
    for (name, rows, cols) in [("0×n", 0, 16), ("n×0", 16, 0), ("nnz = 0", 16, 16)] {
        let matrix = CsrMatrix::from_coo(&CooMatrix::new(rows, cols));
        let x = vec![1.0; cols];
        let reference = reference_rows(&matrix, &x);
        let serial = matrix.spmv(&x).unwrap();
        let depths = row_depths(&matrix, None, Split::Whole);
        assert_within_pairing_bound(&serial, &reference, &depths, name);
        for (lanes, y) in portable_lanes(&matrix, &x) {
            let depths = row_depths(&matrix, Some(lanes), Split::Whole);
            assert_within_pairing_bound(&y, &reference, &depths, name);
        }
    }
    // Every loop this host selects was held to its own depth: the scalar
    // loop, and on a vector host the nnz lanes ×4 and ×8, their run twins
    // and the row lanes.
    let vector_loops = loops.iter().filter(|l| l.contains("-x")).count();
    if alpha_cpu::cpu_features::force_scalar() {
        assert_eq!(vector_loops, 0, "{loops:?}");
    } else {
        assert!(
            vector_loops >= 5 && loops.iter().any(|l| l.starts_with("run ")),
            "{loops:?}"
        );
    }
    // The bound is a bound, not a tuned tolerance, and the rows use it.
    assert!(tightest > 0.0 && tightest <= 1.0, "{tightest}");
}
