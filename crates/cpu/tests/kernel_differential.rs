//! Differential acceptance suite of the native kernel: every preset design ×
//! every synthetic matrix family × every SIMD variant the search can reach ×
//! {1, 4} threads, as lowered ([`SimdMode::Auto`]) and as its
//! [`SimdMode::ForceScalar`] twin, against an **f64 row-by-row reference**
//! with a *stated* per-row error bound (see [`BOUND_C`]).
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
//! * every format lineage the designer reaches lowers — vectorized and
//!   forced scalar — to a kernel-library shape (a miss is a typed build
//!   error; there is no other executor);
//! * degenerate matrices (one row holding everything, `1×n`, `n×1`,
//!   duplicate coordinates, all rows empty but one) are correct, and empty
//!   ones are a typed generator error, never a panic;
//! * the kernel a host **selects** for a design without a SIMD operator
//!   ([`NativeKernel::select`]: the loop is measured, not designed) is held
//!   to the same bound on every preset × family and on the degenerate fleet,
//!   and is the kernel plain lowering builds from the selected plans;
//! * kernels lowered through one `Designer` that are one [`Program`] — what
//!   one verification and one timing are shared under — are one kernel: the
//!   same streams and shapes, and **bitwise**-equal `y` at 1 and 4 threads;
//!   and kernels with the same streams and shapes are one `Program`;
//! * a kernel lowered through a warm `Designer` (the search's path) has the
//!   streams, shapes and bitwise `y` of the one lowered from a fresh design;
//! * the executing pool never changes `y`: `t` shares run one at a time on a
//!   `Pool::new(1)` are **bitwise** the same `t` shares run on a
//!   `Pool::new(t)` (what lets a daemon pick the pool by load).

use alpha_cpu::{NativeKernel, Program, SimdMode};
use alpha_graph::{presets, Operator, OperatorGraph};
use alpha_matrix::{gen::PatternFamily, CooMatrix, CsrMatrix, DenseVector};
use alpha_parallel::Pool;
use std::sync::{Arc, Weak};

/// The constant `c` of the per-row bound
///
/// ```text
/// |y_i − ref_i|  ≤  c · len_i · ε_f32 · Σ_j |a_ij · x_j|
/// ```
///
/// where `ref_i` is the row's dot product accumulated in f64, `len_i` its
/// non-zero count and `ε_f32 = f32::EPSILON = 2u` (`u` the unit roundoff).
///
/// `c = 1` is not a tuned tolerance but the textbook bound: a length-`n` dot
/// product evaluated in *any* order — serial, `L` strided lanes folded by a
/// tree, partial sums merged across worker or `COL_DIV` boundaries — with
/// one rounding per multiply and per add has error at most
/// `γ_n · Σ|a_j x_j|` with `γ_n = n·u / (1 − n·u)` (Higham, *Accuracy and
/// Stability of Numerical Algorithms*, §3.1), and `γ_n ≤ 2·n·u = n · ε_f32`
/// whenever `n·u ≤ ½`, i.e. for every row shorter than 2²² entries.  Padding
/// slots contribute exact zeros.  The f64 reference's own error is ~2⁻²⁹
/// of that and is ignored.  A kernel that exceeds this has dropped,
/// duplicated or mis-indexed a term — it is not "SIMD noise".
const BOUND_C: f64 = 1.0;

/// Stable stage sort (converting < mapping < implementing), as the search's
/// seeding does, so appended SIMD operators land in a canonical position.
fn sort_branch_stages(branch: &mut [Operator]) {
    branch.sort_by_key(|op| match op.stage() {
        alpha_graph::Stage::Converting => 0,
        alpha_graph::Stage::Mapping => 1,
        alpha_graph::Stage::Implementing => 2,
    });
}

/// The base design plus every SIMD shape the search can reach, appended to
/// each branch.  Variants whose combination the validator rejects (e.g.
/// row-lanes on a non-row mapping) are dropped — exactly what the search
/// itself does.
fn with_simd_variants(base: &OperatorGraph) -> Vec<(&'static str, OperatorGraph)> {
    let sets: [(&'static str, &[Operator]); 5] = [
        (
            "nnz-x8+pf16",
            &[
                Operator::SimdNnzLanes { lanes: 8 },
                Operator::SimdPrefetch { distance: 16 },
            ],
        ),
        ("nnz-x4", &[Operator::SimdNnzLanes { lanes: 4 }]),
        (
            "nnz-x2+pf64",
            &[
                Operator::SimdNnzLanes { lanes: 2 },
                Operator::SimdPrefetch { distance: 64 },
            ],
        ),
        ("row-x4", &[Operator::SimdRowLanes { lanes: 4 }]),
        (
            "row-x8+pf8",
            &[
                Operator::SimdRowLanes { lanes: 8 },
                Operator::SimdPrefetch { distance: 8 },
            ],
        ),
    ];
    let mut variants = vec![("base", base.clone())];
    for (name, ops) in sets {
        let mut twin = base.clone();
        for branch in &mut twin.branches {
            branch.extend(ops.iter().cloned());
            sort_branch_stages(branch);
        }
        if twin.validate().is_ok() {
            variants.push((name, twin));
        }
    }
    variants
}

/// Lowers `graph` for `matrix` as designed and with vectorization forced
/// off.
fn lower_twins(graph: &OperatorGraph, matrix: &CsrMatrix, context: &str) -> [NativeKernel; 2] {
    let generated =
        alpha_codegen::generate(graph, matrix, alpha_codegen::GeneratorOptions::default())
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

/// Holds every row of `y` to the [`BOUND_C`] bound.
fn assert_within_bound(y: &[f32], reference: &[(f64, f64, usize)], context: &str) {
    assert_eq!(y.len(), reference.len(), "{context}: output length");
    for (row, (&got, &(sum, magnitude, len))) in y.iter().zip(reference).enumerate() {
        let bound = BOUND_C * len as f64 * f32::EPSILON as f64 * magnitude;
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
        let graphs = with_simd_variants(&base);
        for (fi, family) in PatternFamily::ALL.iter().enumerate() {
            let matrix = family.generate(384, 6, 900 + fi as u64);
            let x = DenseVector::random(matrix.cols(), 7);
            let reference = reference_rows(&matrix, x.as_slice());
            for (variant, graph) in &graphs {
                let context = format!("{preset_name}/{variant}/{}", family.name());
                let [auto, scalar] = lower_twins(graph, &matrix, &context);
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
fn lower_selected(generated: &mut alpha_codegen::GeneratedSpmv, context: &str) -> NativeKernel {
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
fn spelled_out(generated: &alpha_codegen::GeneratedSpmv, kernel: &NativeKernel) -> String {
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

/// One program a family's kernels lowered to: what it reads, `y` at 1 and
/// at 4 threads, who lowered to it first, and its sub-matrices.
struct Seen {
    program: Program,
    reads: String,
    y: [Vec<u32>; 2],
    who: String,
    matrices: Vec<Weak<CsrMatrix>>,
}

impl Seen {
    /// True while the Designer still holds the program's conversions: only
    /// then can a content-equal conversion be handed the same allocation.
    fn held(&self) -> bool {
        self.matrices.iter().all(|m| m.strong_count() > 0)
    }
}

#[test]
fn kernels_that_are_one_program_are_one_kernel() {
    let options = alpha_codegen::GeneratorOptions::default();
    let mut shared = 0usize;
    for (fi, family) in PatternFamily::ALL.iter().enumerate() {
        let matrix = family.generate(384, 6, 900 + fi as u64);
        let x = DenseVector::random(matrix.cols(), 7);
        // One Designer, as one search has: content-equal conversions it
        // holds are one allocation, so while it holds them a by-content
        // comparison and a `Program` comparison separate exactly the same
        // kernels.  A conversion rebuilt after an eviction is a new
        // allocation, hence a new program.
        let designer = alpha_graph::Designer::new(&matrix);
        let mut seen: Vec<Seen> = Vec::new();
        let mut check = |generated: &alpha_codegen::GeneratedSpmv, kernel: NativeKernel, who| {
            let reads = spelled_out(generated, &kernel);
            let y = [1, 4].map(|threads| bits(&kernel.run(x.as_slice(), threads).unwrap()));
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
                    let twin = seen
                        .iter()
                        .find(|first| first.reads == reads && first.held());
                    if let Some(first) = twin {
                        panic!(
                            "{who} and {} on {}: same streams and shapes, two programs",
                            first.who,
                            family.name()
                        );
                    }
                    seen.push(Seen {
                        program: Program::of(&kernel, 1),
                        reads,
                        y,
                        who,
                        matrices: generated
                            .kernel
                            .metadata()
                            .partitions
                            .iter()
                            .map(|plan| Arc::downgrade(&plan.matrix))
                            .collect(),
                    });
                }
            }
        };
        for (preset_name, base) in presets::all_presets() {
            for (variant, graph) in with_simd_variants(&base) {
                let who = format!("{preset_name}/{variant}");
                let mut generated = alpha_codegen::generate_with(&designer, &graph, options)
                    .unwrap_or_else(|e| panic!("{who}: generation failed: {e}"));
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
                0,
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
        let mut graph = presets::csr_scalar();
        for branch in &mut graph.branches {
            branch.push(Operator::SimdNnzLanes { lanes });
            sort_branch_stages(branch);
        }
        let context = format!("csr_scalar/nnz-x{lanes}");
        let [auto, _] = lower_twins(&graph, &matrix, &context);
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
    let graphs = with_simd_variants(&presets::csr_scalar());
    assert!(
        graphs.len() > 1,
        "csr_scalar must admit at least one SIMD variant"
    );
    for (variant, graph) in &graphs {
        let context = format!("corner/{variant}");
        let [auto, scalar] = lower_twins(graph, &matrix, &context);
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
    // partitioning.  `lower_twins` builds the as-designed kernel through
    // `try_new` — a shape outside the monomorphized library would surface
    // there as `UnsupportedShape` — and the forced-scalar twin.
    let lineages: [(&str, OperatorGraph); 4] = [
        ("csr", presets::csr_scalar()),
        ("ell", presets::sell_like()),
        ("hyb", presets::row_split_hybrid(2)),
        ("merge", presets::csr5_like(64)),
    ];
    let matrix = PatternFamily::ALL[0].generate(512, 8, 4242);
    for (lineage, base) in lineages {
        for (variant, graph) in with_simd_variants(&base) {
            let context = format!("{lineage}/{variant}");
            for kernel in lower_twins(&graph, &matrix, &context) {
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
