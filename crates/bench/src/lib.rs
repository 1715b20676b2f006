//! `alpha-bench` — the paper-figure crate.
//!
//! Every table and figure of the paper's evaluation (Section VII) has a
//! regenerating function here; the `reproduce` binary prints the same rows /
//! series the paper reports.  Absolute numbers are *modelled* GFLOPS from
//! the `alpha-gpu` cost model (see DESIGN.md), so the comparison of interest
//! is the shape: who wins, by roughly what factor, and where the crossovers
//! fall.  Measured numbers of this repository (cold tune, native SpMV,
//! the serving tier) come from the `benchmark/` package, not from here.

use alpha_baselines::{run_pfs, Baseline, PfsOutcome, TacoKernel};
use alpha_gpu::{DeviceProfile, GpuSim, SimEvaluator, SimKernel};
use alpha_matrix::suite::{self, CorpusConfig, SuiteScale};
use alpha_matrix::{CsrMatrix, DenseVector, MatrixStats};
use alpha_search::{
    search_with_cache, DesignCache, EvaluatorChoice, EvaluatorId, SearchConfig, SearchOutcome,
    SearchStats,
};
use std::sync::Arc;

/// Scale of one experiment run: how large the corpus, named matrices and
/// search budgets are.  The context also carries the [`DesignCache`] every
/// search of the run shares, so sweeps that revisit a matrix (e.g. the
/// pruning ablation, which searches each Table III matrix twice) reuse
/// evaluations instead of re-simulating them.
///
/// A sweep over many matrices maps them over the process-wide pool, in
/// order, and each search inside evaluates its candidates one at a time:
/// the cost model reads the same whichever search fills a shared entry, so
/// the figures are the same on any machine.
#[derive(Debug, Clone)]
pub struct ExperimentContext {
    /// Target device profile.
    pub device: DeviceProfile,
    /// Corpus sweep configuration (stands in for the 843-matrix test set).
    pub corpus: CorpusConfig,
    /// Scale factor for the named (Table III / case-study) matrices.
    pub suite_scale: SuiteScale,
    /// Kernel evaluations allowed per search.
    pub search_budget: usize,
    /// Design cache shared by every search in this experiment run.
    pub cache: Arc<DesignCache>,
}

impl ExperimentContext {
    /// Default scale of the `reproduce` binary (minutes).
    pub fn standard(device: DeviceProfile) -> Self {
        ExperimentContext {
            device,
            corpus: CorpusConfig {
                sizes: vec![2_048, 8_192, 32_768],
                avg_row_lens: vec![4, 16],
                families: alpha_matrix::gen::PatternFamily::ALL.to_vec(),
                seed: 11,
            },
            suite_scale: SuiteScale(1.0 / 64.0),
            search_budget: 60,
            cache: Arc::new(DesignCache::new()),
        }
    }

    /// The paper's figures rank designs with the cost model of the device
    /// they are drawn for, so they read the same on any machine.
    fn search_config(&self) -> SearchConfig {
        SearchConfig {
            device: self.device.clone(),
            max_iterations: self.search_budget,
            mutations_per_seed: 3,
            evaluator: EvaluatorChoice::custom(EvaluatorId::Simulated, SimEvaluator::boxed),
            ..SearchConfig::default()
        }
    }

    /// Runs one search through this context's shared design cache.
    pub fn search(
        &self,
        matrix: &CsrMatrix,
        config: &SearchConfig,
    ) -> Result<SearchOutcome, String> {
        search_with_cache(matrix, config, &self.cache)
    }
}

/// The per-matrix measurements every corpus figure (9-13) is derived from.
#[derive(Debug, Clone)]
pub struct CorpusResult {
    /// Corpus entry name (encodes family, size and row length).
    pub name: String,
    /// Matrix statistics.
    pub stats: MatrixStats,
    /// Performance of every PFS candidate format plus the selected best.
    pub pfs: PfsOutcome,
    /// Performance of the TACO-like baseline.
    pub taco_gflops: f64,
    /// Search outcome for AlphaSparse.
    pub alphasparse: SearchOutcome,
}

impl CorpusResult {
    /// AlphaSparse speedup over the Perfect Format Selector.
    pub fn speedup_over_pfs(&self) -> f64 {
        self.alphasparse.best_gflops / self.pfs.best_gflops().max(1e-9)
    }

    /// AlphaSparse speedup over the TACO-like baseline.
    pub fn speedup_over_taco(&self) -> f64 {
        self.alphasparse.best_gflops / self.taco_gflops.max(1e-9)
    }

    /// Geometric-mean speedup over the five artificial formats of Figure 9.
    pub fn mean_speedup_over_artificial(&self) -> f64 {
        let speedups: Vec<f64> = Baseline::figure9_set()
            .into_iter()
            .filter_map(|b| self.pfs.report_for(b))
            .map(|r| self.alphasparse.best_gflops / r.gflops.max(1e-9))
            .collect();
        geometric_mean(&speedups)
    }
}

/// Geometric mean helper used throughout the report tables.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Evaluates the corpus once: baselines, TACO, PFS and the AlphaSparse search
/// on every entry, the entries spread over the process-wide pool and
/// returned in corpus order.  Figures 9, 10, 11, 12 and 13 all derive from
/// this data.
pub fn evaluate_corpus(ctx: &ExperimentContext) -> Vec<CorpusResult> {
    let sim = GpuSim::new(ctx.device.clone());
    alpha_parallel::Pool::shared()
        .parallel_map(&suite::corpus(&ctx.corpus), |entry| {
            evaluate_matrix(ctx, &sim, &entry.name, &entry.matrix)
        })
        .into_iter()
        .flatten()
        .collect()
}

/// Evaluates one matrix (used by the corpus sweep and the case studies).
pub fn evaluate_matrix(
    ctx: &ExperimentContext,
    sim: &GpuSim,
    name: &str,
    matrix: &CsrMatrix,
) -> Option<CorpusResult> {
    let x = DenseVector::ones(matrix.cols());
    let pfs = run_pfs(sim, matrix, x.as_slice(), &Baseline::pfs_set()).ok()?;
    let taco = sim
        .run(&TacoKernel::new(matrix.clone()), x.as_slice())
        .ok()?;
    let alphasparse = ctx.search(matrix, &ctx.search_config()).ok()?;
    Some(CorpusResult {
        name: name.to_string(),
        stats: MatrixStats::from_csr(matrix),
        pfs,
        taco_gflops: taco.report.gflops,
        alphasparse,
    })
}

// ---------------------------------------------------------------------------
// Figure 2 — motivating mixed designs
// ---------------------------------------------------------------------------

/// One row of the Figure 2 comparison.
#[derive(Debug, Clone)]
pub struct Fig2Row {
    /// Design name.
    pub design: String,
    /// Modelled GFLOPS.
    pub gflops: f64,
}

/// Figure 2: on the `2D_27628_bjtcai` stand-in, mixed operator-graph designs
/// outperform each of their source formats.
pub fn figure2(ctx: &ExperimentContext) -> Vec<Fig2Row> {
    let matrix = suite::named_matrix("2D_27628_bjtcai", ctx.suite_scale)
        .expect("catalogue entry")
        .matrix;
    let sim = GpuSim::new(ctx.device.clone());
    let x = DenseVector::ones(matrix.cols());
    let mut rows = Vec::new();
    for baseline in [
        Baseline::CsrAdaptive,
        Baseline::RowGroupedCsr,
        Baseline::Sell,
    ] {
        let kernel = baseline.build(&matrix);
        let report = sim
            .run(kernel.as_ref(), x.as_slice())
            .expect("baseline runs")
            .report;
        rows.push(Fig2Row {
            design: baseline.name().to_string(),
            gflops: report.gflops,
        });
    }
    for (name, graph) in [
        (
            "SELL blocking + CSR-Adaptive reduction",
            alpha_graph::presets::fig2_sell_blocking_adaptive_reduction(),
        ),
        (
            "+ row-grouped blocking (triple mix)",
            alpha_graph::presets::fig2_triple_mix(),
        ),
    ] {
        let generated =
            alpha_codegen::generate(&graph, &matrix, alpha_codegen::GeneratorOptions::default())
                .expect("mixed design generates");
        let kernel = SimKernel::new(&generated.kernel, &generated.format);
        let report = sim
            .run(&kernel, x.as_slice())
            .expect("mixed design runs")
            .report;
        rows.push(Fig2Row {
            design: name.to_string(),
            gflops: report.gflops,
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Table III — pruning ablation on the 13 named matrices
// ---------------------------------------------------------------------------

/// One row of Table III.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Matrix name.
    pub matrix: String,
    /// Modelled search hours without pruning.
    pub hours_no_pruning: f64,
    /// Modelled search hours with pruning.
    pub hours_pruning: f64,
    /// GFLOPS of the winner found without pruning.
    pub gflops_no_pruning: f64,
    /// GFLOPS of the winner found with pruning.
    pub gflops_pruning: f64,
}

/// Wall-clock cost, in seconds, of evaluating one candidate on the paper's
/// real system (nvcc compilation plus repeated kernel timing).
const SECONDS_PER_REAL_ITERATION: f64 = 60.0;

/// The paper-equivalent hours of one search: its evaluations at
/// [`SECONDS_PER_REAL_ITERATION`] each.
fn search_hours(stats: &SearchStats) -> f64 {
    (stats.iterations + stats.refinements) as f64 * SECONDS_PER_REAL_ITERATION / 3600.0
}

/// Table III: search time and winner quality with and without pruning, the
/// matrices spread over the process-wide pool and returned in table order.
pub fn table3(ctx: &ExperimentContext) -> Vec<Table3Row> {
    let row = |name: &&'static str| {
        let matrix = suite::named_matrix(name, ctx.suite_scale)
            .expect("catalogue entry")
            .matrix;
        let mut pruned_cfg = ctx.search_config();
        pruned_cfg.enable_pruning = true;
        let mut unpruned_cfg = ctx.search_config();
        unpruned_cfg.enable_pruning = false;
        // Without pruning the paper always runs into its 8-hour cap; model
        // that by giving the unpruned search a larger iteration budget.
        unpruned_cfg.max_iterations = ctx.search_budget * 3;
        // Both searches share ctx.cache: candidates the pruned search already
        // simulated are served from the cache during the unpruned search.
        let pruned = ctx.search(&matrix, &pruned_cfg).ok()?;
        let unpruned = ctx.search(&matrix, &unpruned_cfg).ok()?;
        Some(Table3Row {
            matrix: name.to_string(),
            hours_no_pruning: search_hours(&unpruned.stats),
            hours_pruning: search_hours(&pruned.stats),
            gflops_no_pruning: unpruned.best_gflops,
            gflops_pruning: pruned.best_gflops,
        })
    };
    alpha_parallel::Pool::shared()
        .parallel_map(&suite::table3_names(), row)
        .into_iter()
        .flatten()
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 14 — case study on scfxm1-2r
// ---------------------------------------------------------------------------

/// The Figure 14 case-study result.
#[derive(Debug, Clone)]
pub struct Fig14Result {
    /// Winning operator graph (textual form, Figure 14a).
    pub operator_graph: String,
    /// Baseline + PFS + AlphaSparse comparison (Figure 14b).
    pub comparison: Vec<Fig2Row>,
    /// GFLOPS without Model-Driven Format Compression and without pruning
    /// (the left bar of Figure 14c).
    pub gflops_origin: f64,
    /// GFLOPS with format compression only.
    pub gflops_compression: f64,
    /// GFLOPS with format compression and pruning (the full system).
    pub gflops_full: f64,
}

/// Figure 14: the machine-designed format for `scfxm1-2r`, its performance
/// against the artificial formats and PFS, and the ablation of the two key
/// optimisations.
pub fn figure14(ctx: &ExperimentContext) -> Fig14Result {
    let matrix = suite::named_matrix("scfxm1-2r", ctx.suite_scale)
        .expect("catalogue entry")
        .matrix;
    let sim = GpuSim::new(ctx.device.clone());
    let x = DenseVector::ones(matrix.cols());

    let mut comparison = Vec::new();
    let pfs = run_pfs(&sim, &matrix, x.as_slice(), &Baseline::pfs_set()).expect("PFS runs");
    for baseline in Baseline::figure9_set() {
        let gflops = pfs.report_for(baseline).map(|r| r.gflops).unwrap_or(0.0);
        comparison.push(Fig2Row {
            design: baseline.name().to_string(),
            gflops,
        });
    }
    comparison.push(Fig2Row {
        design: "PFS".to_string(),
        gflops: pfs.best_gflops(),
    });

    // Full system.
    let full = ctx
        .search(&matrix, &ctx.search_config())
        .expect("search succeeds");
    comparison.push(Fig2Row {
        design: "AlphaSparse".to_string(),
        gflops: full.best_gflops,
    });

    // Ablations: no compression + no pruning ("origin"), compression only.
    let mut origin_cfg = ctx.search_config();
    origin_cfg.enable_model_compression = false;
    origin_cfg.enable_pruning = false;
    let origin = ctx.search(&matrix, &origin_cfg).expect("search succeeds");
    let mut compress_cfg = ctx.search_config();
    compress_cfg.enable_pruning = false;
    let compression = ctx.search(&matrix, &compress_cfg).expect("search succeeds");

    Fig14Result {
        operator_graph: full.best_graph.to_string().trim_end().to_string(),
        comparison,
        gflops_origin: origin.best_gflops,
        gflops_compression: compression.best_gflops,
        gflops_full: full.best_gflops,
    }
}

// ---------------------------------------------------------------------------
// Derived summaries for Figures 9-13
// ---------------------------------------------------------------------------

/// Figure 10: histogram of AlphaSparse-over-PFS speedups with the paper's
/// bucket edges (0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, inf).
pub fn fig10_histogram(results: &[CorpusResult]) -> Vec<(String, usize)> {
    let edges = [0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, f64::INFINITY];
    let mut counts = vec![0usize; edges.len()];
    for r in results {
        let s = r.speedup_over_pfs();
        let bucket = edges.iter().position(|&e| s < e).unwrap_or(edges.len() - 1);
        counts[bucket] += 1;
    }
    let labels = [
        "<0.8", "0.8-1.0", "1.0-1.2", "1.2-1.4", "1.4-1.6", "1.6-1.8", "1.8-2.0", ">2.0",
    ];
    labels.iter().map(|l| l.to_string()).zip(counts).collect()
}

/// Figure 11/12 style slices: average speedup for regular vs irregular
/// matrices.
pub fn speedup_by_regularity(
    results: &[CorpusResult],
    speedup: impl Fn(&CorpusResult) -> f64,
) -> (f64, f64) {
    let regular: Vec<f64> = results
        .iter()
        .filter(|r| !r.stats.is_irregular())
        .map(&speedup)
        .collect();
    let irregular: Vec<f64> = results
        .iter()
        .filter(|r| r.stats.is_irregular())
        .map(&speedup)
        .collect();
    (geometric_mean(&regular), geometric_mean(&irregular))
}

/// Figure 13: average search iterations for regular vs irregular matrices.
pub fn fig13_iterations(results: &[CorpusResult]) -> (f64, f64) {
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let regular: Vec<f64> = results
        .iter()
        .filter(|r| !r.stats.is_irregular())
        .map(|r| r.alphasparse.stats.iterations as f64)
        .collect();
    let irregular: Vec<f64> = results
        .iter()
        .filter(|r| r.stats.is_irregular())
        .map(|r| r.alphasparse.stats.iterations as f64)
        .collect();
    (mean(&regular), mean(&irregular))
}

// ---------------------------------------------------------------------------
// The two evaluators on this host (`reproduce host`)
// ---------------------------------------------------------------------------

/// One named stand-in tuned twice — under the default evaluator (measured
/// time on this host) and under the cost model — with both winners and one
/// kernel per distinct preset program raced on this host.
#[derive(Debug, Clone)]
pub struct HostRow {
    /// SuiteSparse name of the stand-in.
    pub matrix: String,
    /// Seconds the measured tune took, search and loop selection included.
    pub measured_tune_s: f64,
    /// Seconds the cost-model tune took.
    pub simulated_tune_s: f64,
    /// Median microseconds per SpMV of the measured tune's winner.
    pub measured_us: f64,
    /// Median microseconds per SpMV of the cost-model tune's winner.
    pub simulated_us: f64,
    /// Median microseconds per SpMV of the fastest preset program.
    pub preset_us: f64,
    /// The first preset (in `presets::all_presets` order) of that program.
    pub preset: &'static str,
    /// Distinct programs the presets lower to on this matrix: each was
    /// selected and raced once.
    pub preset_programs: usize,
    /// Candidates the measured tune evaluated.
    pub evaluations: u64,
    /// Distinct programs the measured tune verified and timed.
    pub programs_timed: u64,
    /// Kernel-shape label of the measured tune's winner.
    pub measured_shape: String,
    /// Kernel-shape label of the cost-model tune's winner.
    pub simulated_shape: String,
}

impl HostRow {
    /// Measured winner's time over the cost-model winner's (below 1: the
    /// measured tune found the faster program).
    pub fn winner_ratio(&self) -> f64 {
        self.measured_us / self.simulated_us
    }

    /// Fastest preset program's time over the measured winner's.
    pub fn gain_over_preset(&self) -> f64 {
        self.preset_us / self.measured_us
    }
}

/// Tunes every `suite::all_named` stand-in at `ctx`'s scale under
/// `SearchConfig::default()` and under the cost model, groups the presets
/// by the program they lower to (`PlannedProgram`, through one `Designer`
/// per matrix), lowers one per group through `NativeKernel::select`, and
/// races both winners and every group's kernel in one race on this host;
/// the fastest group is the best preset.  A stand-in either tune fails on is
/// skipped.  The stand-ins are served one at a time: this comparison times,
/// and it reads what each measured tune evaluated off the global
/// `cpu_eval_total{outcome}` counters, which nothing else moves meanwhile.
pub fn host_comparison(ctx: &ExperimentContext) -> Vec<HostRow> {
    use alphasparse::{cpu::PlannedProgram, AlphaSparse, NativeKernel, TimingHarness};
    let measured = SearchConfig {
        device: ctx.device.clone(),
        ..SearchConfig::default()
    };
    let simulated = SearchConfig {
        evaluator: EvaluatorChoice::custom(EvaluatorId::Simulated, SimEvaluator::boxed),
        ..measured.clone()
    };
    let harness = TimingHarness {
        warmup: 2,
        runs: 21,
    };
    let options = alpha_codegen::GeneratorOptions::default();
    let mut rows = Vec::new();
    for named in suite::all_named(ctx.suite_scale) {
        let matrix = &named.matrix;
        let tune = |config: &SearchConfig| {
            let started = std::time::Instant::now();
            let tuned = AlphaSparse::with_config(config.clone()).auto_tune(matrix);
            tuned.map(|tuned| (tuned, started.elapsed().as_secs_f64()))
        };
        let outcomes = || {
            ["timed", "reused", "infeasible"].map(|outcome| {
                alpha_telemetry::global()
                    .counter("cpu_eval_total", &[("outcome", outcome)])
                    .get()
            })
        };
        let before = outcomes();
        let by_time = tune(&measured);
        let [timed, reused, infeasible] = outcomes();
        let (Ok((by_time, measured_tune_s)), Ok((by_model, simulated_tune_s))) =
            (by_time, tune(&simulated))
        else {
            continue;
        };
        let designer = alpha_graph::Designer::new(matrix);
        let mut groups: Vec<(PlannedProgram, &'static str, NativeKernel)> = Vec::new();
        for (name, graph) in alpha_graph::presets::all_presets() {
            let Ok(generated) = alpha_codegen::generate_with(&designer, &graph, options) else {
                continue;
            };
            let metadata = generated.kernel.metadata();
            if groups
                .iter()
                .any(|(program, ..)| program.is(metadata, options))
            {
                continue;
            }
            if let Ok((kernel, _)) = NativeKernel::select(metadata, &generated.format) {
                groups.push((PlannedProgram::of(metadata, options), name, kernel));
            }
        }
        let kernels: Vec<&NativeKernel> = [by_time.native_kernel(), by_model.native_kernel()]
            .into_iter()
            .chain(groups.iter().map(|(_, _, kernel)| kernel))
            .collect();
        let echo: Vec<(u64, usize)> = kernels
            .iter()
            .map(|kernel| (kernel.useful_flops(), kernel.workers_for(0)))
            .collect();
        let x = DenseVector::random(matrix.cols(), 0x4057);
        let mut y = vec![0.0; matrix.rows()];
        let medians: Vec<f64> = harness
            .race(
                y.as_mut_slice(),
                &echo,
                |_, _| {},
                |y, i| {
                    kernels[i]
                        .run_into(x.as_slice(), y, 0)
                        .expect("x has the matrix's column count")
                },
            )
            .iter()
            .map(|report| report.median_us)
            .collect();
        let Some((best, preset_us)) = medians[2..]
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
        else {
            continue;
        };
        rows.push(HostRow {
            matrix: named.name.to_string(),
            measured_tune_s,
            simulated_tune_s,
            measured_us: medians[0],
            simulated_us: medians[1],
            preset_us,
            preset: groups[best].1,
            preset_programs: groups.len(),
            evaluations: timed + reused + infeasible - before.iter().sum::<u64>(),
            programs_timed: timed - before[0],
            measured_shape: by_time.kernel_shape(),
            simulated_shape: by_model.kernel_shape(),
        });
    }
    rows
}

// ---------------------------------------------------------------------------
// Mode parsing for the `reproduce` binary
// ---------------------------------------------------------------------------

/// Every mode `reproduce` understands: `all`, one figure / table of the
/// paper, or [`HOST_MODE`].
pub const KNOWN_MODES: &[&str] = &[
    "all", "fig2", "fig9a", "fig9b", "fig10", "fig11", "fig12", "fig13", "table3", "fig14",
    HOST_MODE,
];

/// The mode that compares the two evaluators on this host
/// ([`host_comparison`]).  It reads this machine's clock, not the paper's
/// model, so `all` does not run it.
pub const HOST_MODE: &str = "host";

/// Parses the full `reproduce` command line: every argument is a mode, and
/// `reproduce` takes no flags.
pub fn parse_cli(args: &[String]) -> Result<Vec<String>, String> {
    if let Some(flag) = args.iter().find(|arg| arg.starts_with("--")) {
        return Err(format!("unknown flag '{flag}' (reproduce takes no flags)"));
    }
    resolve_modes(args)
}

/// Normalises and validates the `reproduce` mode list.  No arguments means
/// `all`; an unknown mode is an error whose message lists every known mode
/// (the binary prints it and exits non-zero).
pub fn resolve_modes(args: &[String]) -> Result<Vec<String>, String> {
    if args.is_empty() {
        return Ok(vec!["all".to_string()]);
    }
    let wanted: Vec<String> = args.iter().map(|a| a.to_lowercase()).collect();
    for mode in &wanted {
        if !KNOWN_MODES.contains(&mode.as_str()) {
            return Err(format!(
                "unknown mode '{mode}'\nknown modes: {}",
                KNOWN_MODES.join(", ")
            ));
        }
    }
    Ok(wanted)
}

/// True when `key` should run for the resolved mode list: either named
/// explicitly, or a paper figure covered by `all`.
pub fn mode_selected(wanted: &[String], key: &str) -> bool {
    wanted
        .iter()
        .any(|w| w == key || (w == "all" && key != HOST_MODE))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_context() -> ExperimentContext {
        ExperimentContext {
            device: DeviceProfile::a100(),
            corpus: CorpusConfig::tiny(),
            suite_scale: SuiteScale(1.0 / 512.0),
            search_budget: 8,
            cache: Arc::new(DesignCache::new()),
        }
    }

    #[test]
    fn figure2_mixed_designs_beat_their_sources() {
        let rows = figure2(&tiny_context());
        assert_eq!(rows.len(), 5);
        let best_source = rows[..3].iter().map(|r| r.gflops).fold(0.0, f64::max);
        let best_mix = rows[3..].iter().map(|r| r.gflops).fold(0.0, f64::max);
        assert!(
            best_mix >= 0.9 * best_source,
            "mixed designs ({best_mix:.1}) should be competitive with sources ({best_source:.1})"
        );
    }

    #[test]
    fn corpus_evaluation_produces_speedups() {
        let ctx = tiny_context();
        let results = evaluate_corpus(&ctx);
        assert!(!results.is_empty());
        for r in &results {
            assert!(r.speedup_over_pfs() > 0.0);
            assert!(r.speedup_over_taco() > 0.0);
        }
        let histogram = fig10_histogram(&results);
        assert_eq!(
            histogram.iter().map(|(_, c)| c).sum::<usize>(),
            results.len()
        );
        let (reg, irr) = fig13_iterations(&results);
        assert!(reg >= 0.0 && irr >= 0.0);
    }

    #[test]
    fn the_corpus_sweep_is_the_serial_sweep_in_order() {
        // The sweep spreads its matrices over the pool and shares one cache
        // between their searches; entry by entry on a fresh cache must read
        // the same, in the same order.
        let swept = evaluate_corpus(&tiny_context());
        let serial_ctx = tiny_context();
        let sim = GpuSim::new(serial_ctx.device.clone());
        let serial: Vec<CorpusResult> = suite::corpus(&serial_ctx.corpus)
            .iter()
            .filter_map(|entry| evaluate_matrix(&serial_ctx, &sim, &entry.name, &entry.matrix))
            .collect();
        let summary = |results: &[CorpusResult]| -> Vec<(String, String, u64)> {
            results
                .iter()
                .map(|r| {
                    (
                        r.name.clone(),
                        r.alphasparse.best_graph.signature(),
                        r.alphasparse.best_gflops.to_bits(),
                    )
                })
                .collect()
        };
        assert_eq!(swept.len(), CorpusConfig::tiny().len());
        assert_eq!(summary(&swept), summary(&serial));
    }

    #[test]
    fn geometric_mean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn shared_cache_speeds_up_the_pruning_ablation() {
        // table3 searches every matrix twice (pruned + unpruned) through the
        // context's shared cache: the second search must see hits.
        let ctx = tiny_context();
        let rows = table3(&ctx);
        assert!(!rows.is_empty());
        let stats = ctx.cache.stats();
        assert!(
            stats.hits > 0,
            "the ablation's second search should reuse evaluations"
        );
    }

    #[test]
    fn unknown_modes_are_rejected_with_the_mode_list() {
        let err = resolve_modes(&["fig9a".into(), "bogus".into()]).unwrap_err();
        assert!(err.contains("unknown mode 'bogus'"));
        for mode in KNOWN_MODES {
            assert!(err.contains(mode), "error must list '{mode}'");
        }
        // Case-insensitive, defaulting to `all`.
        assert_eq!(resolve_modes(&[]).unwrap(), vec!["all".to_string()]);
        assert_eq!(
            resolve_modes(&["Fig9A".into(), "TABLE3".into()]).unwrap(),
            vec!["fig9a".to_string(), "table3".to_string()]
        );
        // `all` covers every figure; a named mode selects itself only.
        let all = resolve_modes(&[]).unwrap();
        assert!(mode_selected(&all, "fig9a") && mode_selected(&all, "table3"));
        let fig2 = resolve_modes(&["fig2".into()]).unwrap();
        assert!(mode_selected(&fig2, "fig2") && !mode_selected(&fig2, "fig9a"));
        // The host comparison runs only when named.
        assert!(!mode_selected(&all, HOST_MODE));
        let host = resolve_modes(&["Host".into()]).unwrap();
        assert!(mode_selected(&host, HOST_MODE) && !mode_selected(&host, "fig2"));
        // Only the paper's figures and tables, and the host comparison, are
        // modes.
        for other in ["native", "warm", "serve"] {
            let err = resolve_modes(&[other.into()]).unwrap_err();
            assert!(err.contains("known modes: all, fig2"), "{err}");
        }
    }

    #[test]
    fn cli_parses_threads_flag_in_both_spellings() {
        let modes = parse_cli(&["fig10".into(), "fig14".into()]).unwrap();
        assert_eq!(modes, vec!["fig10".to_string(), "fig14".to_string()]);
        // Default: all modes.
        assert_eq!(parse_cli(&[]).unwrap(), vec!["all".to_string()]);
        // `--threads` is refused in both spellings, like any other flag.
        for flag in ["--threads", "--threads=2", "--frobnicate"] {
            let err = parse_cli(&["fig2".into(), flag.into(), "4".into()]).unwrap_err();
            assert!(err.contains(&format!("unknown flag '{flag}'")), "{err}");
        }
        assert!(parse_cli(&["bogus".into()]).is_err());
    }
}
