//! Subject: cold tunes on measured time.
//!
//! One matrix per pattern family is tuned cold, with a fresh tuner each time,
//! by the native (wall-clock) evaluator; the winner then runs timed SpMVs.
//! `alpha-search`, `alpha-graph`, `alpha-codegen` and the `alpha-cpu`
//! lower/measure path do almost all the work; wire and store do none.  The
//! only place a search, pruning, surrogate or build-cost change shows.

use crate::fleet::{self, timed_calls, Subject};
use crate::metrics::Report;
use crate::scale::{share, COLD_SEED_OFFSET};
use crate::stats::{geomean, mean, median};
use crate::trace::ThreadTrace;
use crate::Ctx;
use alpha_codegen::{generate_from_metadata, GeneratorOptions};
use alpha_cpu::NativeKernel;
use alpha_graph::{designer, presets, OperatorGraph};
use alpha_matrix::gen::PatternFamily;
use alpha_matrix::MatrixStats;
use alphasparse::{AlphaSparse, SearchConfig, SearchStats, TimingHarness};

/// What the passes over one fleet matrix measured.
#[derive(Default)]
struct MatrixSamples {
    /// `auto_tune` wall seconds, one per tune of this matrix.
    tune_secs: Vec<f64>,
    /// Median winner call time in nanoseconds, one per tune.
    winner_ns: Vec<f64>,
    stats: Vec<SearchStats>,
    /// Winning operator graph of the last pass (replayed by the traced run).
    winner: Option<OperatorGraph>,
}

pub struct ColdTunes {
    fleet: Vec<Subject>,
    samples: Vec<MatrixSamples>,
}

impl ColdTunes {
    pub fn subjects(&self) -> impl Iterator<Item = &Subject> {
        self.fleet.iter()
    }
}

pub fn setup(ctx: &Ctx<'_>, trace: &mut ThreadTrace<'_>) -> ColdTunes {
    let fleet = fleet::fleet(
        trace,
        &PatternFamily::ALL,
        PatternFamily::ALL.len(),
        ctx.sizes.cold_rows,
        ctx.sizes.cold_row_len,
        ctx.seed + COLD_SEED_OFFSET,
    );
    let samples = fleet.iter().map(|_| MatrixSamples::default()).collect();
    ColdTunes { fleet, samples }
}

/// The cold tunes of one round.  Tune `k` of the run is matrix `k % fleet`,
/// so passes over the fleet are spread over the rounds.
pub fn round(ctx: &Ctx<'_>, trace: &mut ThreadTrace<'_>, cold: &mut ColdTunes, round: usize) {
    let config = SearchConfig {
        max_iterations: ctx.sizes.cold_budget,
        mutations_per_seed: ctx.sizes.cold_mutations,
        ..SearchConfig::default()
    };
    let (tunes, before) = share(ctx.counts.cold_tunes, round);
    for k in before..before + tunes {
        let subject = &cold.fleet[k % cold.fleet.len()];
        let samples = &mut cold.samples[k % cold.fleet.len()];
        let op = ctx.ops.attempt();
        ctx.tracer.refresh_speed();
        trace.enter("op.cold_tune", op);
        let tuner = AlphaSparse::with_config(config.clone())
            .with_native_execution_harness(TimingHarness::default(), ctx.threads);
        let (tuned, secs) = trace.timed("core.auto_tune", op, || tuner.auto_tune(&subject.matrix));
        let tuned = match tuned {
            Ok(tuned) => tuned,
            Err(e) => {
                ctx.ops
                    .fail(&format!("cold tune of {}: {e}", subject.name()));
                trace.leave();
                continue;
            }
        };
        let (kernel, _) = trace.timed("cpu.lower_winner", op, || tuned.native_kernel());
        trace.leave();
        samples.tune_secs.push(secs);
        samples.stats.push(tuned.search_stats().clone());
        samples.winner = tuner
            .cache()
            .winners()
            .pop()
            .map(|(_, design)| design.graph);

        let mut y = vec![0.0; subject.matrix.rows()];
        let calls = ctx.counts.winner_calls;
        let call_ns = timed_calls(
            ctx,
            trace,
            "cpu.run_into",
            subject,
            &mut y,
            calls,
            |x, y| kernel.run_into(x, y, ctx.threads),
        );
        if !call_ns.is_empty() {
            samples.winner_ns.push(median(&call_ns));
        }
    }
}

/// Geomean over the fleet of each matrix's median over its tunes.
fn fleet_geomean(cold: &ColdTunes, per_pass: impl Fn(&Subject, &MatrixSamples) -> Vec<f64>) -> f64 {
    let medians: Vec<f64> = cold
        .fleet
        .iter()
        .zip(&cold.samples)
        .map(|(subject, samples)| per_pass(subject, samples))
        .filter(|values| !values.is_empty())
        .map(|values| median(&values))
        .collect();
    geomean(&medians)
}

pub fn end_to_end(cold: &ColdTunes, report: &mut Report) {
    report.set(
        "tune_cold_s",
        fleet_geomean(cold, |_, samples| samples.tune_secs.clone()),
    );
    report.set(
        "tuned_ns_per_nnz",
        fleet_geomean(cold, |subject, samples| {
            samples
                .winner_ns
                .iter()
                .map(|ns| ns / subject.nnz())
                .collect()
        }),
    );
}

/// Seconds one search candidate costs on `subject`, replayed from outside:
/// design, generate, lower and one harness measurement of the winner and of
/// every preset graph.  Returns the per-stage samples in milliseconds.
fn replay_candidates(
    ctx: &Ctx<'_>,
    trace: &mut ThreadTrace<'_>,
    subject: &Subject,
    winner: Option<&OperatorGraph>,
) -> [Vec<f64>; 4] {
    let mut stages: [Vec<f64>; 4] = Default::default();
    let graphs = winner
        .cloned()
        .into_iter()
        .chain(presets::all_presets().into_iter().map(|(_, graph)| graph));
    for graph in graphs {
        let op = ctx.ops.attempt();
        ctx.tracer.refresh_speed();
        trace.enter("op.replay_candidate", op);
        let (metadata, design_secs) = trace.timed("graph.design", op, || {
            designer::design(&graph, &subject.matrix)
        });
        // A preset the designer does not support on this matrix is not a
        // candidate the search would have paid for either.
        if let Ok(metadata) = metadata {
            let (generated, generate_secs) = trace.timed("codegen.generate", op, || {
                generate_from_metadata(&metadata, GeneratorOptions::default())
            });
            let (kernel, lower_secs) = trace.timed("cpu.lower", op, || {
                NativeKernel::new(generated.kernel.metadata(), &generated.format)
            });
            let (measured, measure_secs) = trace.timed("cpu.measure", op, || {
                TimingHarness::default().measure_kernel(&kernel, &subject.x, ctx.threads)
            });
            match measured {
                Ok(_) => {
                    for (stage, secs) in stages.iter_mut().zip([
                        design_secs,
                        generate_secs,
                        lower_secs,
                        measure_secs,
                    ]) {
                        stage.push(secs * 1e3);
                    }
                }
                Err(e) => ctx.ops.fail(&format!("replayed candidate: {e}")),
            }
        }
        trace.leave();
    }
    stages
}

/// Per-layer metrics: search counters from `search_stats()`, and the replay
/// that attributes a tune's wall time to the per-candidate pipeline.
pub fn layers(ctx: &Ctx<'_>, trace: &mut ThreadTrace<'_>, cold: &ColdTunes, report: &mut Report) {
    let all_stats: Vec<&SearchStats> = cold.samples.iter().flat_map(|s| &s.stats).collect();
    let per_tune = |f: fn(&SearchStats) -> usize| {
        mean(&all_stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    let total = |f: fn(&SearchStats) -> usize| all_stats.iter().map(|s| f(s)).sum::<usize>() as f64;
    report.set("search.iterations", per_tune(|s| s.iterations));
    report.set(
        "search.structures_enumerated",
        per_tune(|s| s.structures_enumerated),
    );
    report.set(
        "search.structures_pruned",
        per_tune(|s| s.structures_pruned),
    );
    let (enumerated, pruned) = (
        total(|s| s.structures_enumerated),
        total(|s| s.structures_pruned),
    );
    report.set(
        "search.prune_ratio",
        pruned / (enumerated + pruned).max(1.0),
    );
    let (hits, misses) = (total(|s| s.cache_hits), total(|s| s.cache_misses));
    report.set("search.cache_hit_rate", hits / (hits + misses).max(1.0));
    let tune_secs: f64 = cold.samples.iter().flat_map(|s| &s.tune_secs).sum();
    report.set(
        "search.ms_per_candidate",
        tune_secs * 1e3 / total(|s| s.iterations).max(1.0),
    );

    let mut stage_ms: [Vec<f64>; 4] = Default::default();
    let mut attributed = Vec::new();
    let mut stats_ms = Vec::new();
    for (subject, samples) in cold.fleet.iter().zip(&cold.samples) {
        let (_, secs) = trace.timed("matrix.stats", 0, || {
            std::hint::black_box(MatrixStats::from_csr(&subject.matrix))
        });
        stats_ms.push(secs * 1e3);
        let replayed = replay_candidates(ctx, trace, subject, samples.winner.as_ref());
        if replayed[0].is_empty() {
            continue;
        }
        // What the tune would cost if it were nothing but its candidates.
        let candidate_secs: f64 = replayed.iter().map(|stage| mean(stage)).sum::<f64>() / 1e3;
        for (secs, stats) in samples.tune_secs.iter().zip(&samples.stats) {
            attributed.push(stats.iterations as f64 * candidate_secs / secs);
        }
        for (all, stage) in stage_ms.iter_mut().zip(replayed) {
            all.extend(stage);
        }
    }
    for (name, samples) in [
        "graph.design_ms",
        "codegen.generate_ms",
        "cpu.lower_ms",
        "cpu.measure_ms",
    ]
    .into_iter()
    .zip(&stage_ms)
    {
        report.set(name, geomean(samples));
    }
    let share = mean(&attributed);
    report.set("search.attributed_share", share);
    report.set("search.residual_share", 1.0 - share);
    report.set("matrix.stats_ms", median(&stats_ms));
}
