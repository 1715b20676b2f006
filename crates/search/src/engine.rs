//! The three-level search loop (paper Section VI-A).
//!
//! Candidate evaluation — the dominant cost — is delegated to the
//! [`Evaluator`] subsystem, with results memoised in a [`DesignCache`].
//! Candidates are evaluated one at a time, in schedule order, as the paper's
//! search times each candidate on the target: two timings cannot share one
//! machine.  Under the cost model a fixed [`SearchConfig::seed`] therefore
//! selects the same final design on any machine; under a measured evaluator
//! (the default) the schedule is just as fixed, but the readings are the
//! host's.
//!
//! The budget, the hour cap and the annealer are checked *before* each
//! evaluation, so the search never pays for a candidate a stop condition
//! would discard (an infeasible candidate does not count against the
//! budget).
//!
//! All candidates of one search are designed through one
//! [`Designer`](alpha_graph::Designer), owned by the search's
//! [`EvalContext`]: the matrix is converted once per distinct converting
//! chain, not once per candidate.

use crate::enumerate::{
    coarse_variants, fine_variants, mutate_structure, seed_structures, MutationRng,
};
use crate::eval::{CachingEvaluator, DesignCache, EvalContext, Evaluator, EvaluatorChoice};
use crate::features::{featurise, matrix_feature_vector};
use crate::ml::{Annealer, GbtConfig, GradientBoostedTrees, Sample};
use crate::persist::StoredDesign;
use crate::prune::PruneRules;
use alpha_codegen::GeneratorOptions;
use alpha_gpu::{DeviceProfile, PerfReport};
use alpha_graph::OperatorGraph;
use alpha_matrix::CsrMatrix;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Wall-clock cost, in seconds, of evaluating one candidate on the paper's
/// real system (nvcc compilation plus repeated kernel timing).  Used to
/// convert simulator iterations into the search-time figures of Table III.
pub const SECONDS_PER_REAL_ITERATION: f64 = 60.0;

/// Search configuration.
///
/// The default ranks candidates by the time they take on the host the search
/// runs on ([`EvaluatorChoice::Native`] with the default timing harness and
/// the kernel on every core).  The paper's figures, and every result that
/// must be the same on any machine, set `evaluator:
/// EvaluatorChoice::Simulated`.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Target device profile.
    pub device: DeviceProfile,
    /// Maximum number of real (measured or simulated) evaluations in
    /// levels 1+2.
    pub max_iterations: usize,
    /// Hard cap on the modelled search time in hours (the paper uses 8 h).
    pub max_hours: f64,
    /// Enable the pruning rules (Table III ablation).
    pub enable_pruning: bool,
    /// Enable the ML fine-grid refinement (level 3).
    pub enable_ml_refinement: bool,
    /// Enable Model-Driven Format Compression in the generator
    /// (Figure 14c ablation).
    pub enable_model_compression: bool,
    /// Number of structural mutations derived from each seed.
    pub mutations_per_seed: usize,
    /// Random seed for mutation and input-vector generation.
    pub seed: u64,
    /// Known-good designs injected ahead of the enumerated seed structures —
    /// the warm-start hook.  A serving layer passes the stored winners of
    /// structurally similar matrices here; they are evaluated first (so the
    /// annealer sees a strong incumbent immediately) and also mutated like
    /// any enumerated seed.  Invalid or duplicate designs are skipped.
    /// Changing this list changes the candidate schedule, so callers that
    /// need replay-identical searches must pass the same list every time
    /// (see `DesignCache::pin_seed_designs`).
    pub seed_designs: Vec<OperatorGraph>,
    /// The ground-truth evaluation backend candidates are scored with: by
    /// default the time `alpha-cpu`'s `NativeEvaluator` measures on this
    /// host ([`EvaluatorChoice::Native`]); [`EvaluatorChoice::Simulated`]
    /// opts into the simulator's cost model on [`SearchConfig::device`],
    /// the one backend whose winner a fixed seed pins on every machine.
    /// The choice's [`EvaluatorId`](crate::eval::EvaluatorId) is salted into
    /// every cache key and recorded in the stored winner, so modelled and
    /// measured results never mix.
    pub evaluator: EvaluatorChoice,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            device: DeviceProfile::a100(),
            max_iterations: 150,
            max_hours: 8.0,
            enable_pruning: true,
            enable_ml_refinement: true,
            enable_model_compression: true,
            mutations_per_seed: 4,
            seed: 42,
            seed_designs: Vec::new(),
            evaluator: EvaluatorChoice::default(),
        }
    }
}

/// Statistics of one search run.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Candidate evaluations consumed in the first two levels (simulated or
    /// served from the design cache).
    pub iterations: usize,
    /// Graph structures enumerated (seeds plus accepted mutations).
    pub structures_enumerated: usize,
    /// Candidate structures rejected by the pruning ban list.
    pub structures_pruned: usize,
    /// Fine-grid predictions made by the ML cost model.
    pub ml_predictions: usize,
    /// Extra kernel evaluations spent validating the top ML predictions.
    pub ml_evaluations: usize,
    /// Modelled search time in hours (iterations x compile-and-run cost).
    pub search_hours: f64,
    /// Design-cache lookups answered without re-simulation during this
    /// search.
    pub cache_hits: usize,
    /// Design-cache lookups that required a fresh simulation.
    pub cache_misses: usize,
}

impl SearchStats {
    /// Fraction of evaluation lookups served by the design cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The result of a search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The winning operator graph.
    pub best_graph: OperatorGraph,
    /// Its modelled performance.
    pub best_report: PerfReport,
    /// Shape label of the native kernel the winner lowered to — the
    /// `alpha-cpu` monomorphized-library key, recorded with the stored
    /// winner.  `None` out of a simulated search whose winner has never
    /// been built (see [`StoredDesign::kernel_shape`]).
    pub best_kernel_shape: Option<String>,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Runs the three-level search for one matrix with a private design cache.
pub fn search(matrix: &CsrMatrix, config: &SearchConfig) -> Result<SearchOutcome, String> {
    search_with_cache(matrix, config, &Arc::new(DesignCache::new()))
}

/// Runs the three-level search for one matrix, memoising candidate
/// evaluations in (and reusing them from) the given cache.  Entries are keyed
/// by matrix content, device and generator options, so one cache can safely
/// serve many matrices and configurations — repeated searches over the same
/// matrix skip straight to the cached reports.
pub fn search_with_cache(
    matrix: &CsrMatrix,
    config: &SearchConfig,
    cache: &Arc<DesignCache>,
) -> Result<SearchOutcome, String> {
    if matrix.nnz() == 0 {
        return Err("cannot search over an empty matrix".into());
    }
    let rules = PruneRules::new(matrix, config.enable_pruning);
    let stats_of_matrix = rules.stats().clone();
    let options = GeneratorOptions {
        model_compression: config.enable_model_compression,
    };
    let ctx = EvalContext::new(matrix, &config.device, options, config.seed)?
        .with_evaluator(config.evaluator.id());

    let evaluator = CachingEvaluator::new(config.evaluator.build(&config.device), cache.clone());

    // Matrix fingerprint tags every per-level span so traces of a fleet run
    // can be grouped by matrix in chrome://tracing.
    let matrix_fp = matrix.fingerprint();

    // ---- Level 1: structure enumeration ------------------------------------
    let l1_span = alpha_telemetry::span!("search.l1", matrix = matrix_fp);
    let mut structures = seed_structures(matrix, &rules);
    let mut pruned = 0usize;
    {
        // Count what pruning removed (for the statistics) by comparing with
        // the unpruned seed set.
        let unpruned_rules = PruneRules::new(matrix, false);
        pruned += seed_structures(matrix, &unpruned_rules)
            .len()
            .saturating_sub(structures.len());
    }
    // Warm-start designs go FIRST: their coarse variants are evaluated before
    // anything enumerated, so a good stored incumbent raises the annealer's
    // bar immediately and lets it stop earlier.  They bypass the pruning ban
    // list on purpose (they are measured winners, not speculative
    // structures) but must still validate for this matrix.
    {
        let mut warm: Vec<OperatorGraph> = Vec::new();
        let mut warm_seen: BTreeSet<String> = BTreeSet::new();
        for design in &config.seed_designs {
            if design.validate().is_ok()
                && warm_seen.insert(design.signature())
                && !structures
                    .iter()
                    .any(|g| g.signature() == design.signature())
            {
                warm.push(design.clone());
            }
        }
        if !warm.is_empty() {
            warm.extend(structures);
            structures = warm;
        }
    }
    let mut rng = MutationRng::new(config.seed);
    let mut seen: BTreeSet<String> = structures.iter().map(|g| g.signature()).collect();
    let base_seeds = structures.clone();
    for seed_graph in &base_seeds {
        for _ in 0..config.mutations_per_seed {
            match mutate_structure(seed_graph, &mut rng, &rules) {
                Some(mutated) => {
                    if seen.insert(mutated.signature()) {
                        structures.push(mutated);
                    }
                }
                None => pruned += 1,
            }
        }
    }

    drop(l1_span);

    // ---- Level 2: coarse parameter search with real evaluations ------------
    let l2_span = alpha_telemetry::span!("search.l2", matrix = matrix_fp);
    let mut stats = SearchStats {
        structures_enumerated: structures.len(),
        structures_pruned: pruned,
        ..SearchStats::default()
    };
    let mut annealer = Annealer::new(25.0, 0.97, 20);
    let mut samples: Vec<Sample> = Vec::new();
    let mut best: Option<(OperatorGraph, PerfReport, Option<String>)> = None;
    let mut evaluated: BTreeSet<String> = BTreeSet::new();
    let budget_reached = |stats: &SearchStats| {
        stats.iterations >= config.max_iterations
            || stats.iterations as f64 * SECONDS_PER_REAL_ITERATION / 3600.0 >= config.max_hours
    };

    // The full coarse-grid candidate list, deduplicated in first-seen order
    // and evaluated strictly in that order.
    let mut dedup: BTreeSet<String> = BTreeSet::new();
    let candidates = structures
        .iter()
        .flat_map(coarse_variants)
        .filter(|candidate| dedup.insert(candidate.signature()));
    for candidate in candidates {
        if budget_reached(&stats) || annealer.should_stop() {
            break;
        }
        evaluated.insert(candidate.signature());
        let Some(eval) = evaluator.evaluate(&ctx, &candidate) else {
            continue;
        };
        stats.iterations += 1;
        let gflops = eval.report.gflops;
        samples.push(Sample::new(featurise(&candidate, &stats_of_matrix), gflops));
        if best
            .as_ref()
            .map(|(_, r, _)| gflops > r.gflops)
            .unwrap_or(true)
        {
            best = Some((candidate, eval.report, eval.kernel_shape));
        }
        annealer.observe(gflops);
    }

    drop(l2_span);

    // ---- Level 3: ML interpolation onto the fine grid ----------------------
    let l3_span = alpha_telemetry::span!("search.l3", matrix = matrix_fp);
    if config.enable_ml_refinement && samples.len() >= 8 {
        let model = GradientBoostedTrees::fit(&samples, GbtConfig::default());
        let mut predictions: Vec<(f64, OperatorGraph)> = Vec::new();
        for structure in &structures {
            for candidate in fine_variants(structure) {
                if evaluated.contains(&candidate.signature()) {
                    continue;
                }
                let predicted = model.predict(&featurise(&candidate, &stats_of_matrix));
                stats.ml_predictions += 1;
                predictions.push((predicted, candidate));
            }
        }
        predictions.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite predictions"));
        for (_, candidate) in predictions.into_iter().take(5) {
            if !evaluated.insert(candidate.signature()) {
                continue;
            }
            let Some(eval) = evaluator.evaluate(&ctx, &candidate) else {
                continue;
            };
            stats.ml_evaluations += 1;
            samples.push(Sample::new(
                featurise(&candidate, &stats_of_matrix),
                eval.report.gflops,
            ));
            if best
                .as_ref()
                .map(|(_, r, _)| eval.report.gflops > r.gflops)
                .unwrap_or(true)
            {
                best = Some((candidate, eval.report, eval.kernel_shape));
            }
        }
    }

    drop(l3_span);

    stats.search_hours =
        ((stats.iterations + stats.ml_evaluations) as f64 * SECONDS_PER_REAL_ITERATION / 3600.0)
            .min(config.max_hours);
    // Per-search counters from this search's own wrapper — correct even when
    // several concurrent searches share the cache.
    let cache_stats = evaluator.stats();
    stats.cache_hits = cache_stats.hits;
    stats.cache_misses = cache_stats.misses;

    // Publish this search's totals on the process-wide registry: scrapes of
    // a serving daemon see search activity without touching the outcome.
    let registry = alpha_telemetry::global();
    registry
        .counter("search_evaluations_total", &[])
        .add((stats.iterations + stats.ml_evaluations) as u64);
    registry
        .counter("search_cache_hits_total", &[])
        .add(stats.cache_hits as u64);
    registry
        .counter("search_cache_misses_total", &[])
        .add(stats.cache_misses as u64);
    registry
        .counter("search_structures_pruned_total", &[])
        .add(stats.structures_pruned as u64);
    // What the search's Designer did for those evaluations: how many graphs
    // it designed, how many matrix conversions that took, and how many
    // built pieces turned out equal to one it held.
    let designer = ctx.designer().stats();
    registry
        .counter("search_designs_total", &[])
        .add(designer.designs);
    for (outcome, conversions) in [
        ("built", designer.built),
        ("reused", designer.reused),
        ("interned", designer.interned),
    ] {
        registry
            .counter("search_design_conversions_total", &[("outcome", outcome)])
            .add(conversions);
    }

    let (best_graph, best_report, best_kernel_shape) =
        best.ok_or_else(|| "no valid candidate could be evaluated".to_string())?;
    // Record the winner durably: serving layers read it back to answer
    // repeat requests without searching and to warm-start structurally
    // similar matrices (the matrix features give them the similarity
    // metric; the kernel shape hands them a pre-resolved specialized
    // kernel).
    cache.record_winner(
        ctx.context_key(),
        StoredDesign {
            graph: best_graph.clone(),
            gflops: best_report.gflops,
            matrix_features: matrix_feature_vector(&stats_of_matrix),
            evaluator: config.evaluator.id(),
            kernel_shape: best_kernel_shape.clone(),
        },
    );
    Ok(SearchOutcome {
        best_graph,
        best_report,
        best_kernel_shape,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_matrix::gen;

    /// A short cost-model search: these tests pin what a fixed seed selects,
    /// which only the simulator makes the same on every run and machine.
    fn quick_config(iterations: usize) -> SearchConfig {
        SearchConfig {
            device: DeviceProfile::a100(),
            max_iterations: iterations,
            mutations_per_seed: 2,
            evaluator: EvaluatorChoice::Simulated,
            ..SearchConfig::default()
        }
    }

    #[test]
    fn search_is_deterministic_for_a_fixed_seed() {
        let matrix = gen::powerlaw(1_024, 1_024, 10, 2.0, 7);
        let a = search(&matrix, &quick_config(30)).unwrap();
        let b = search(&matrix, &quick_config(30)).unwrap();
        assert_eq!(a.best_graph.signature(), b.best_graph.signature());
        assert_eq!(a.stats.iterations, b.stats.iterations);
    }

    #[test]
    fn repeated_search_is_served_from_the_cache() {
        let matrix = gen::powerlaw(1_024, 1_024, 8, 2.0, 5);
        let cache = Arc::new(DesignCache::new());
        let config = quick_config(25);
        let first = search_with_cache(&matrix, &config, &cache).unwrap();
        let second = search_with_cache(&matrix, &config, &cache).unwrap();
        assert_eq!(first.best_graph.signature(), second.best_graph.signature());
        assert_eq!(first.best_report.gflops, second.best_report.gflops);
        // The first search fills the cache (hits are possible only between
        // canonically-equal variants); the rerun must be answered entirely
        // from it.
        assert!(first.stats.cache_misses > first.stats.cache_hits);
        assert!(
            second.stats.cache_misses == 0,
            "identical rerun must be fully cached, got {} misses",
            second.stats.cache_misses
        );
        assert!(second.stats.cache_hit_rate() > 0.99);
    }

    #[test]
    fn pruning_reduces_iterations_on_regular_matrices() {
        let matrix = gen::uniform_random(2_048, 2_048, 16, 3);
        let mut with = quick_config(400);
        with.enable_ml_refinement = false;
        let mut without = with.clone();
        without.enable_pruning = false;
        let pruned = search(&matrix, &with).unwrap();
        let unpruned = search(&matrix, &without).unwrap();
        assert!(
            pruned.stats.iterations < unpruned.stats.iterations,
            "pruning should reduce evaluations: {} vs {}",
            pruned.stats.iterations,
            unpruned.stats.iterations
        );
        assert!(pruned.stats.search_hours <= unpruned.stats.search_hours);
    }

    #[test]
    fn search_respects_the_iteration_budget() {
        let matrix = gen::powerlaw(1_024, 1_024, 8, 2.0, 3);
        let outcome = search(&matrix, &quick_config(12)).unwrap();
        assert!(outcome.stats.iterations <= 12);
    }

    /// The simulator, recording the outcome of each invocation in order:
    /// its GFLOP/s, or `None` where it found the candidate infeasible.
    struct Counting {
        inner: crate::eval::SimEvaluator,
        outcomes: Arc<std::sync::Mutex<Vec<Option<f64>>>>,
    }

    impl Evaluator for Counting {
        fn evaluate(
            &self,
            ctx: &EvalContext<'_>,
            graph: &OperatorGraph,
        ) -> Option<crate::eval::Evaluation> {
            let evaluation = self.inner.evaluate(ctx, graph);
            self.outcomes
                .lock()
                .unwrap()
                .push(evaluation.as_ref().map(|e| e.report.gflops));
            evaluation
        }
    }

    /// Searches `matrix` under [`Counting`] and returns the outcome with the
    /// recorded invocations.
    fn counted_search(
        matrix: &CsrMatrix,
        config: SearchConfig,
    ) -> (SearchOutcome, Vec<Option<f64>>) {
        let outcomes: Arc<std::sync::Mutex<Vec<Option<f64>>>> = Arc::default();
        let recorded = outcomes.clone();
        let config = SearchConfig {
            evaluator: EvaluatorChoice::custom(crate::eval::EvaluatorId::Simulated, move || {
                Box::new(Counting {
                    inner: crate::eval::SimEvaluator::new(DeviceProfile::a100()),
                    outcomes: recorded.clone(),
                })
            }),
            ..config
        };
        let outcome = search(matrix, &config).unwrap();
        let invocations = outcomes.lock().unwrap().clone();
        (outcome, invocations)
    }

    /// Every invocation is accounted for: a consumed feasible candidate, an
    /// infeasible one, or a level-3 pick.
    fn assert_every_invocation_counts(outcome: &SearchOutcome, invocations: &[Option<f64>]) {
        let infeasible = invocations.iter().filter(|g| g.is_none()).count();
        assert_eq!(outcome.stats.cache_misses, invocations.len());
        assert_eq!(
            invocations.len(),
            outcome.stats.iterations + infeasible + outcome.stats.ml_evaluations,
            "{} invocations, {infeasible} infeasible",
            invocations.len()
        );
    }

    #[test]
    fn a_search_pays_for_its_budget_and_not_a_batch_more() {
        // Three rows cannot be split four ways: on the second matrix the
        // 4-part variants of the ROW_DIV seeds are infeasible, and a warm
        // ROW_DIV seed puts one of them at the head of the schedule.
        let mut warm = alpha_graph::presets::row_split_hybrid(2);
        for branch in &mut warm.branches {
            branch.retain(|op| !matches!(op, alpha_graph::Operator::SortSub));
        }
        let mut three_rows = alpha_matrix::CooMatrix::new(3, 96);
        for (row, len) in [(0, 96), (1, 12), (2, 2)] {
            for c in 0..len {
                three_rows.push(row, c, 1.0 + c as f32);
            }
        }
        let matrices = [
            ("powerlaw", gen::powerlaw(1_024, 1_024, 10, 2.0, 13), false),
            ("three rows", CsrMatrix::from_coo(&three_rows), true),
        ];
        for (name, matrix, expect_infeasible) in &matrices {
            for budget in [30, 80] {
                let config = SearchConfig {
                    seed_designs: vec![warm.clone()],
                    ..quick_config(budget)
                };
                let (outcome, invocations) = counted_search(matrix, config);
                let what = format!("{name}, budget {budget}");
                // The budget binds: the annealer is still hot.
                assert_eq!(outcome.stats.iterations, budget, "{what}");
                assert_every_invocation_counts(&outcome, &invocations);
                assert_eq!(
                    invocations.iter().any(Option::is_none),
                    *expect_infeasible,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn an_annealer_stop_evaluates_nothing_past_it() {
        let matrix = gen::powerlaw(1_024, 1_024, 10, 2.0, 13);
        let config = SearchConfig {
            enable_pruning: false,
            mutations_per_seed: 8,
            ..quick_config(400)
        };
        let (outcome, invocations) = counted_search(&matrix, config);
        assert!(outcome.stats.iterations < 400, "the budget bound");
        assert_eq!(outcome.stats.cache_hits, 0);
        assert_every_invocation_counts(&outcome, &invocations);
        // Replaying the level-2 readings through a fresh annealer: it asks to
        // stop after the last one, and not before.
        let mut annealer = Annealer::new(25.0, 0.97, 20);
        let level2: Vec<f64> = invocations
            .iter()
            .flatten()
            .copied()
            .take(outcome.stats.iterations)
            .collect();
        for (i, gflops) in level2.iter().enumerate() {
            assert!(!annealer.should_stop(), "stopped before reading {i}");
            annealer.observe(*gflops);
        }
        assert!(annealer.should_stop(), "the annealer did not stop");
    }

    /// The cost model behind a gate that records the most evaluations it
    /// ever held at once.
    struct Gate {
        inner: crate::eval::SimEvaluator,
        inside: Arc<std::sync::atomic::AtomicUsize>,
        widest: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Evaluator for Gate {
        fn evaluate(
            &self,
            ctx: &EvalContext<'_>,
            graph: &OperatorGraph,
        ) -> Option<crate::eval::Evaluation> {
            use std::sync::atomic::Ordering::SeqCst;
            let now = self.inside.fetch_add(1, SeqCst) + 1;
            self.widest.fetch_max(now, SeqCst);
            // Hold the gate long enough for a concurrent call to show.
            std::thread::sleep(std::time::Duration::from_micros(300));
            let evaluation = self.inner.evaluate(ctx, graph);
            self.inside.fetch_sub(1, SeqCst);
            evaluation
        }
    }

    #[test]
    fn a_measured_search_never_evaluates_two_candidates_at_once() {
        use std::sync::atomic::Ordering::SeqCst;
        // Every search evaluates one candidate at a time, whatever its
        // evaluator: the engine, not the caller, enforces it.
        let matrix = gen::powerlaw(1_024, 1_024, 10, 2.0, 13);
        for id in [
            crate::eval::EvaluatorId::Native { warmup: 0, runs: 1 },
            crate::eval::EvaluatorId::Simulated,
        ] {
            let widest: Arc<std::sync::atomic::AtomicUsize> = Arc::default();
            let calls = widest.clone();
            let config = SearchConfig {
                evaluator: EvaluatorChoice::custom(id, move || {
                    Box::new(Gate {
                        inner: crate::eval::SimEvaluator::new(DeviceProfile::a100()),
                        inside: Arc::default(),
                        widest: calls.clone(),
                    })
                }),
                ..quick_config(40)
            };
            let outcome = search(&matrix, &config).unwrap();
            assert!(outcome.stats.cache_misses > 16, "{id:?}");
            assert_eq!(widest.load(SeqCst), 1, "{id:?}: two candidates at once");
        }
    }

    #[test]
    fn ml_refinement_adds_predictions() {
        let matrix = gen::powerlaw(1_024, 1_024, 10, 2.0, 9);
        let mut config = quick_config(40);
        config.enable_ml_refinement = true;
        let outcome = search(&matrix, &config).unwrap();
        assert!(outcome.stats.ml_predictions > 0);
    }

    #[test]
    fn empty_matrix_is_rejected() {
        let empty = CsrMatrix::from_coo(&alpha_matrix::CooMatrix::new(4, 4));
        assert!(search(&empty, &quick_config(10)).is_err());
    }

    #[test]
    fn winner_beats_every_sampled_candidate() {
        let matrix = gen::powerlaw(1_024, 1_024, 12, 1.9, 5);
        let outcome = search(&matrix, &quick_config(50)).unwrap();
        assert!(outcome.best_report.gflops > 0.0);
        assert!(outcome.stats.search_hours > 0.0);
        assert!(outcome.best_graph.validate().is_ok());
    }
}
