//! Subject: local SpMV at two working-set sizes — the README quickstart path
//! at scale.
//!
//! Designs are chosen by the default (simulated, deterministic) evaluator and
//! then run natively.  In the **large** class the kernel loop dominates a
//! call; in the **small** class `alpha-parallel` dispatch and per-run
//! telemetry do.  A bytes-moved or SIMD change and a dispatch change each have
//! a class that shows them and one that should not move.  Search cost is
//! set-up here.

use crate::fleet::{self, timed_calls, Subject};
use crate::host;
use crate::metrics::Report;
use crate::scale::{share, BASELINE_FOOTPRINT_LIMIT, LARGE_SEED_OFFSET, SMALL_SEED_OFFSET};
use crate::stats::{geomean, median};
use crate::trace::ThreadTrace;
use crate::Ctx;
use alpha_baselines::native::{native_set, NativeBaselineKernel};
use alpha_baselines::Baseline;
use alpha_codegen::{generate, GeneratorOptions};
use alpha_cpu::NativeKernel;
use alpha_graph::presets;
use alpha_matrix::gen::PatternFamily;
use alpha_matrix::{CsrMatrix, Scalar};
use alpha_parallel::Pool;
use alphasparse::{AlphaSparse, SearchConfig, TunedSpmv};

/// Families of the large class.
const LARGE_FAMILIES: [PatternFamily; 3] = [
    PatternFamily::UniformRandom,
    PatternFamily::PowerLaw,
    PatternFamily::Banded,
];

/// Presets lowered on the large uniform matrix: the kernel with search held
/// constant.
const KERNEL_PRESETS: [&str; 6] = [
    "csr_scalar",
    "csr_vector",
    "sell_like",
    "csr5_like",
    "row_grouped_csr_like",
    "csr_adaptive_like",
];

/// The metric-name stem of a native baseline.
fn baseline_stem(baseline: Baseline) -> &'static str {
    match baseline {
        Baseline::CsrScalar => "csr_scalar",
        Baseline::Ell => "ell",
        Baseline::Hyb => "hyb",
        Baseline::Merge => "merge",
        other => unreachable!("{} has no native kernel", other.name()),
    }
}

/// One matrix with its tuned design, and the call times measured on it.
struct Tuned {
    subject: Subject,
    tuned: TunedSpmv,
    /// Seconds the simulated `auto_tune` took (set-up).
    tune_secs: f64,
    /// Native baselines prepared for this matrix (large class only).
    baselines: Vec<NativeBaselineKernel>,
    /// Output buffer of every timed call, allocated (and faulted in) at
    /// set-up so that no window starts by touching fresh pages.
    y: Vec<Scalar>,
    /// Call times in nanoseconds at `T` threads, pooled over the rounds.
    call_ns: Vec<f64>,
    /// Call times of each baseline, same order as `baselines`.
    baseline_ns: Vec<Vec<f64>>,
}

pub struct LocalSpmv {
    large: Vec<Tuned>,
    small: Vec<Tuned>,
}

/// Bytes a padded baseline would allocate, over the CSR footprint.
fn padded_footprint_ratio(baseline: Baseline, matrix: &CsrMatrix) -> f64 {
    let csr = (matrix.nnz() * 8 + matrix.rows() * 4) as f64;
    match baseline {
        Baseline::Ell => (matrix.rows() * matrix.max_row_len() * 8) as f64 / csr,
        _ => 1.0,
    }
}

fn tune_class(
    ctx: &Ctx<'_>,
    trace: &mut ThreadTrace<'_>,
    subjects: Vec<Subject>,
    budget: usize,
    with_baselines: bool,
) -> Vec<Tuned> {
    subjects
        .into_iter()
        .filter_map(|subject| {
            let op = ctx.ops.attempt();
            let tuner = AlphaSparse::with_config(SearchConfig {
                max_iterations: budget,
                ..SearchConfig::default()
            });
            let (tuned, tune_secs) = trace.timed("core.auto_tune_sim", op, || {
                tuner.auto_tune(&subject.matrix)
            });
            let tuned = match tuned {
                Ok(tuned) => tuned,
                Err(e) => {
                    ctx.ops
                        .fail(&format!("simulated tune of {}: {e}", subject.name()));
                    return None;
                }
            };
            // Lowering is lazy; do it now so the first timed call is not it.
            trace.timed("cpu.lower_winner", op, || {
                tuned.native_kernel();
            });
            let baselines = if with_baselines {
                native_set()
                    .into_iter()
                    .filter(|b| {
                        padded_footprint_ratio(*b, &subject.matrix) <= BASELINE_FOOTPRINT_LIMIT
                    })
                    .filter_map(|b| NativeBaselineKernel::new(b, &subject.matrix).ok())
                    .collect()
            } else {
                Vec::new()
            };
            let baseline_ns = baselines.iter().map(|_| Vec::new()).collect();
            Some(Tuned {
                y: vec![0.0; subject.matrix.rows()],
                subject,
                tuned,
                tune_secs,
                baselines,
                call_ns: Vec::new(),
                baseline_ns,
            })
        })
        .collect()
}

pub fn setup(ctx: &Ctx<'_>, trace: &mut ThreadTrace<'_>) -> LocalSpmv {
    let sizes = ctx.sizes;
    let large = fleet::fleet(
        trace,
        &LARGE_FAMILIES,
        LARGE_FAMILIES.len(),
        sizes.large_rows,
        sizes.large_row_len,
        ctx.seed + LARGE_SEED_OFFSET,
    );
    let small = fleet::fleet(
        trace,
        &PatternFamily::ALL,
        PatternFamily::ALL.len(),
        sizes.small_rows,
        sizes.small_row_len,
        ctx.seed + SMALL_SEED_OFFSET,
    );
    LocalSpmv {
        large: tune_class(ctx, trace, large, sizes.large_budget, true),
        small: tune_class(ctx, trace, small, sizes.small_budget, false),
    }
}

/// The local SpMV calls of one round.  Every subject of a class runs in every
/// round, so host drift hits the generated kernels and the baselines alike.
pub fn round(ctx: &Ctx<'_>, trace: &mut ThreadTrace<'_>, local: &mut LocalSpmv, round: usize) {
    let threads = ctx.threads;
    let (calls, _) = share(ctx.counts.large_calls, round);
    for t in &mut local.large {
        let kernel = t.tuned.native_kernel();
        let (subject, y) = (&t.subject, &mut t.y);
        t.call_ns.extend(timed_calls(
            ctx,
            trace,
            "cpu.run_into",
            subject,
            y,
            calls,
            |x, y| kernel.run_into(x, y, threads),
        ));
        for (baseline, call_ns) in t.baselines.iter().zip(&mut t.baseline_ns) {
            let run = |x: &[Scalar], y: &mut [Scalar]| baseline.run_into(x, y, threads);
            call_ns.extend(timed_calls(
                ctx,
                trace,
                "baselines.run_into",
                subject,
                y,
                calls,
                run,
            ));
        }
    }
    let (calls, _) = share(ctx.counts.small_calls, round);
    for t in &mut local.small {
        let kernel = t.tuned.native_kernel();
        let (subject, y) = (&t.subject, &mut t.y);
        t.call_ns.extend(timed_calls(
            ctx,
            trace,
            "cpu.run_into",
            subject,
            y,
            calls,
            |x, y| kernel.run_into(x, y, threads),
        ));
    }
}

/// Median call time of each measured member of a class.
fn medians(class: &[Tuned]) -> Vec<(&Tuned, f64)> {
    class
        .iter()
        .filter(|t| !t.call_ns.is_empty())
        .map(|t| (t, median(&t.call_ns)))
        .collect()
}

pub fn end_to_end(local: &LocalSpmv, report: &mut Report) {
    let large = medians(&local.large);
    let per_nnz: Vec<f64> = large.iter().map(|(t, ns)| ns / t.subject.nnz()).collect();
    report.set("spmv_large_ns_per_nnz", geomean(&per_nnz));
    let small: Vec<f64> = medians(&local.small)
        .iter()
        .map(|(_, ns)| ns / 1e3)
        .collect();
    report.set("spmv_small_us", geomean(&small));
    // The paper's headline ratio: best baseline over generated, per matrix.
    let speedups: Vec<f64> = large
        .iter()
        .filter_map(|(t, generated)| {
            let best = t
                .baseline_ns
                .iter()
                .filter(|ns| !ns.is_empty())
                .map(|ns| median(ns))
                .min_by(f64::total_cmp)?;
            Some(best / generated)
        })
        .collect();
    report.set("spmv_speedup_vs_best_baseline", geomean(&speedups));

    report.winner_shapes = local
        .all()
        .map(|t| format!("{}:{}", t.subject.name(), t.tuned.kernel_shape()))
        .collect();
    for baseline in native_set() {
        let per_nnz: Vec<f64> = local
            .large
            .iter()
            .flat_map(|t| {
                t.baselines
                    .iter()
                    .zip(&t.baseline_ns)
                    .filter(|(b, ns)| b.baseline() == baseline && !ns.is_empty())
                    .map(|(_, ns)| median(ns) / t.subject.nnz())
            })
            .collect();
        report.set(
            &format!("baselines.{}.ns_per_nnz", baseline_stem(baseline)),
            geomean(&per_nnz),
        );
    }
}

impl LocalSpmv {
    fn all(&self) -> impl Iterator<Item = &Tuned> + Clone {
        self.large.iter().chain(&self.small)
    }

    /// All matrices generated for this subject.
    pub fn subjects(&self) -> impl Iterator<Item = &Subject> {
        self.all().map(|t| &t.subject)
    }
}

/// Median nanoseconds of `calls` checked runs of `kernel` on `threads`.
fn median_call_ns(
    ctx: &Ctx<'_>,
    trace: &mut ThreadTrace<'_>,
    span: &'static str,
    subject: &Subject,
    kernel: &NativeKernel,
    threads: usize,
    calls: usize,
) -> f64 {
    let mut y = vec![0.0; subject.matrix.rows()];
    let ns = timed_calls(ctx, trace, span, subject, &mut y, calls, |x, y| {
        kernel.run_into(x, y, threads)
    });
    median(&ns)
}

/// Per-layer metrics of the kernel, dispatch and telemetry layers.
pub fn layers(
    ctx: &Ctx<'_>,
    trace: &mut ThreadTrace<'_>,
    local: &LocalSpmv,
    report: &mut Report,
) -> Result<(), String> {
    let probe_calls = ctx.sizes.probe_calls;
    let large = medians(&local.large);
    let sim_tune_secs: Vec<f64> = local.all().map(|t| t.tune_secs).collect();
    report.set("search.sim_tune_s", geomean(&sim_tune_secs));

    // Bytes moved, computed from array sizes (cache misses are not in it):
    // the format, one 4-byte x gather per non-zero, one 4-byte y per row.
    let mut format_per_nnz = Vec::new();
    let mut bytes_per_nnz = Vec::new();
    let mut effective_gbps = Vec::new();
    for (t, call_ns) in &large {
        let format = t.tuned.native_kernel().format_bytes() as f64;
        let moved = format + 4.0 * t.subject.nnz() + 4.0 * t.subject.matrix.rows() as f64;
        format_per_nnz.push(format / t.subject.nnz());
        bytes_per_nnz.push(moved / t.subject.nnz());
        effective_gbps.push(moved / call_ns);
    }
    report.set("codegen.format_bytes_per_nnz", geomean(&format_per_nnz));
    report.set("cpu.bytes_per_nnz", geomean(&bytes_per_nnz));
    let effective = geomean(&effective_gbps);
    report.set("cpu.effective_gbps", effective);
    let triad = host::stream_triad(ctx.sizes, ctx.threads);
    report.set("cpu.stream_triad_gbps", triad.gbps);
    report.set("cpu.bw_fraction", effective / triad.gbps);
    report.note(format!(
        "triad: {:.2} GB/s computed over 3 arrays of {} bytes on {} threads; reported LLC {} bytes; \
         arrays {} 4x LLC",
        triad.gbps,
        triad.array_bytes,
        ctx.threads,
        host::llc_bytes(),
        if triad.beyond_llc { ">=" } else { "BELOW (capped in scale.rs, or memory is short)" },
    ));

    // The same kernels on one thread.
    let one_thread = |trace: &mut ThreadTrace<'_>, class: &[Tuned]| -> Vec<f64> {
        class
            .iter()
            .map(|t| {
                let kernel = t.tuned.native_kernel();
                median_call_ns(
                    ctx,
                    trace,
                    "cpu.run_into_1t",
                    &t.subject,
                    kernel,
                    1,
                    probe_calls,
                )
            })
            .collect()
    };
    let large_1t = one_thread(trace, &local.large);
    let large_1t_per_nnz: Vec<f64> = large_1t
        .iter()
        .zip(&local.large)
        .map(|(ns, t)| ns / t.subject.nnz())
        .collect();
    report.set("cpu.large_1t_ns_per_nnz", geomean(&large_1t_per_nnz));
    let scaling: Vec<f64> = large_1t
        .iter()
        .zip(&large)
        .map(|(one, (_, many))| one / many)
        .collect();
    report.set("cpu.thread_scaling", geomean(&scaling));

    // Telemetry cost: an uninstrumented twin against the instrumented kernel,
    // small class, one thread, alternating so drift hits both.
    let mut overhead_pct = Vec::new();
    let mut small_1t_us = Vec::new();
    for t in &local.small {
        let instrumented = t.tuned.native_kernel();
        let bare =
            NativeKernel::new(t.tuned.kernel().metadata(), t.tuned.format()).without_telemetry();
        let (mut with_ns, mut without_ns) = (Vec::new(), Vec::new());
        let slice = (ctx.sizes.telemetry_calls / 4).max(1);
        for _ in 0..4 {
            let mut twin =
                |span, kernel| median_call_ns(ctx, trace, span, &t.subject, kernel, 1, slice);
            with_ns.push(twin("cpu.run_into_1t", instrumented));
            without_ns.push(twin("cpu.run_into_bare", &bare));
        }
        let (with, without) = (median(&with_ns), median(&without_ns));
        small_1t_us.push(with / 1e3);
        overhead_pct.push((with / without - 1.0) * 100.0);
    }
    report.set("cpu.small_1t_us", geomean(&small_1t_us));
    report.set("telemetry.kernel_overhead_pct", median(&overhead_pct));

    let specialized = local.all().filter(|t| t.tuned.is_specialized()).count();
    report.set(
        "cpu.specialized_share",
        specialized as f64 / local.all().count().max(1) as f64,
    );

    // Fixed operator graphs on the large uniform matrix: moves when the
    // kernel changed, flat when only the chosen design changed.
    let uniform = &local
        .large
        .first()
        .ok_or("spmv_local: no large matrix was tuned")?
        .subject;
    let all_presets = presets::all_presets();
    for name in KERNEL_PRESETS {
        let graph = &all_presets
            .iter()
            .find(|(preset, _)| *preset == name)
            .expect("preset exists")
            .1;
        let op = ctx.ops.attempt();
        let (generated, _) = trace.timed("codegen.generate", op, || {
            generate(graph, &uniform.matrix, GeneratorOptions::default())
        });
        let per_nnz = match generated {
            Ok(generated) => {
                let (kernel, _) = trace.timed("cpu.lower", op, || {
                    NativeKernel::new(generated.kernel.metadata(), &generated.format)
                });
                let ns = median_call_ns(
                    ctx,
                    trace,
                    "cpu.run_into_preset",
                    uniform,
                    &kernel,
                    ctx.threads,
                    probe_calls,
                );
                ns / uniform.nnz()
            }
            Err(e) => {
                ctx.ops.fail(&format!("preset {name}: {e}"));
                f64::NAN
            }
        };
        report.set(&format!("cpu.preset.{name}.ns_per_nnz"), per_nnz);
    }

    // A no-op job over T chunks on the shared pool: what one dispatch costs.
    ctx.tracer.refresh_speed();
    let mut slots = vec![0u8; ctx.threads];
    let dispatch_us: Vec<f64> = (0..ctx.sizes.dispatch_calls)
        .map(|_| {
            let chunks = slots.chunks_mut(1).enumerate().collect();
            let ((), secs) = trace.timed("parallel.dispatch", 0, || {
                Pool::shared().run_over_chunks(chunks, |_, chunk| {
                    std::hint::black_box(chunk);
                })
            });
            secs * 1e6
        })
        .collect();
    report.set("parallel.dispatch_us", median(&dispatch_us));
    Ok(())
}
