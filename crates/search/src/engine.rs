//! The search loop (paper Section VI-A): structures, their coarse-grid
//! candidates, then the picks of the evaluator's own level-3 hook.
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
//! Level 2 stops when [`SearchConfig::max_iterations`] feasible candidates
//! have been evaluated or the candidates run out.  The budget is checked
//! *before* each evaluation, so the search never pays for a candidate past
//! it (an infeasible candidate does not count against the budget).
//!
//! Level 3 is [`Evaluator::refine`]: the engine hands it every level-2
//! candidate with its reading and evaluates whatever it proposes that was
//! not evaluated yet.  The cost model fits a model to its readings and picks
//! a few fine-grid candidates; the measured default proposes nothing, since
//! there a fit, about a thousand predictions and up to five more timings
//! almost never found a faster program.
//!
//! All candidates of one search are designed through one
//! [`Designer`](alpha_graph::Designer), owned by the search's
//! [`EvalContext`]: the matrix is converted once per distinct converting
//! chain, not once per candidate.

use crate::enumerate::{coarse_variants, mutate_structure, seed_structures, MutationRng};
use crate::eval::{
    CachingEvaluator, DesignCache, EvalContext, Evaluation, Evaluator, EvaluatorChoice,
};
use crate::features::matrix_feature_vector;
use crate::persist::StoredDesign;
use crate::prune::PruneRules;
use alpha_codegen::{DeviceProfile, GeneratorOptions};
use alpha_graph::OperatorGraph;
use alpha_matrix::CsrMatrix;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Search configuration.
///
/// The default ranks candidates by the time they take on the host the search
/// runs on ([`EvaluatorChoice::Native`] with the default timing harness and
/// the kernel on every core).  The paper's figures, and every result that
/// must be the same on any machine, plug in `alpha-gpu`'s cost model
/// (`EvaluatorChoice::custom(EvaluatorId::Simulated, SimEvaluator::boxed)`).
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Target device profile.
    pub device: DeviceProfile,
    /// Number of feasible candidates level 2 evaluates: the search's stop.
    pub max_iterations: usize,
    /// Enable the pruning rules (Table III ablation).
    pub enable_pruning: bool,
    /// Enable Model-Driven Format Compression in the generator
    /// (Figure 14c ablation).
    pub enable_model_compression: bool,
    /// Number of structural mutations derived from each seed.
    pub mutations_per_seed: usize,
    /// Random seed for mutation and input-vector generation.
    pub seed: u64,
    /// Known-good designs injected ahead of the enumerated seed structures —
    /// the warm-start hook.  A serving layer passes the stored winners of
    /// structurally similar matrices here; they are evaluated first (a
    /// strong incumbent before the budget runs out) and also mutated like
    /// any enumerated seed.  Invalid or duplicate designs are skipped.
    /// Changing this list changes the candidate schedule, so callers that
    /// need replay-identical searches must pass the same list every time
    /// (see `DesignCache::pin_seed_designs`).
    pub seed_designs: Vec<OperatorGraph>,
    /// The ground-truth evaluation backend candidates are scored with: by
    /// default the time `alpha-cpu`'s `NativeEvaluator` measures on this
    /// host ([`EvaluatorChoice::Native`]); a custom choice under
    /// `EvaluatorId::Simulated` opts into `alpha-gpu`'s cost model, built
    /// on [`SearchConfig::device`]: the one backend whose winner a fixed
    /// seed pins on every machine, and the one whose level-3 hook picks.
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
            enable_pruning: true,
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
    /// Candidate evaluations consumed in the first two levels (measured,
    /// simulated or served from the design cache).
    pub iterations: usize,
    /// Graph structures enumerated (seeds plus accepted mutations).
    pub structures_enumerated: usize,
    /// Candidate structures rejected by the pruning ban list.
    pub structures_pruned: usize,
    /// Feasible evaluations of the level-3 picks ([`Evaluator::refine`]); 0
    /// on a measured search, whose evaluator picks nothing.
    pub refinements: usize,
    /// Design-cache lookups answered without a fresh evaluation during this
    /// search.
    pub cache_hits: usize,
    /// Design-cache lookups that required a fresh evaluation (a measurement
    /// or a simulation).
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
    /// Its GFLOP/s as the search's evaluator read it: measured on the host
    /// by default, modelled under the cost model.
    pub best_gflops: f64,
    /// Shape label of the native kernel the winner lowered to — the
    /// `alpha-cpu` monomorphized-library key, recorded with the stored
    /// winner.  `None` out of a simulated search whose winner has never
    /// been built (see [`StoredDesign::kernel_shape`]).
    pub best_kernel_shape: Option<String>,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Runs the search for one matrix with a private design cache.
pub fn search(matrix: &CsrMatrix, config: &SearchConfig) -> Result<SearchOutcome, String> {
    search_with_cache(matrix, config, &Arc::new(DesignCache::new()))
}

/// Runs the search for one matrix, memoising candidate
/// evaluations in (and reusing them from) the given cache.  Entries are keyed
/// by matrix content, device and generator options, so one cache can safely
/// serve many matrices and configurations — repeated searches over the same
/// matrix skip straight to the cached readings.
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
    // Count what pruning removed (for the statistics) by comparing with the
    // unpruned seed set.
    let unpruned = seed_structures(matrix, &PruneRules::new(matrix, false));
    let mut pruned = unpruned.len().saturating_sub(structures.len());
    // Warm-start designs go FIRST: their coarse variants are evaluated before
    // anything enumerated, so a good stored incumbent is in hand however
    // soon the budget binds.  They bypass the pruning ban list on purpose
    // (they are measured winners, not speculative structures) but must
    // still validate for this matrix.
    let mut seen: BTreeSet<String> = structures.iter().map(|g| g.signature()).collect();
    let warm: Vec<OperatorGraph> = config
        .seed_designs
        .iter()
        .filter(|design| design.validate().is_ok() && seen.insert(design.signature()))
        .cloned()
        .collect();
    structures.splice(0..0, warm);
    let mut rng = MutationRng::new(config.seed);
    for seed in 0..structures.len() {
        for _ in 0..config.mutations_per_seed {
            match mutate_structure(&structures[seed], &mut rng, &rules) {
                Some(mutated) if seen.insert(mutated.signature()) => structures.push(mutated),
                Some(_) => {}
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
    // Every candidate evaluated, with its reading (`None`: infeasible), in
    // evaluation order; `best` indexes the fastest.
    let mut readings: Vec<(OperatorGraph, Option<f64>)> = Vec::new();
    let mut best: Option<(usize, f64, Option<String>)> = None;

    // The full coarse-grid candidate list, deduplicated in first-seen order
    // and evaluated strictly in that order.
    let mut dedup: BTreeSet<String> = BTreeSet::new();
    let candidates = structures
        .iter()
        .flat_map(coarse_variants)
        .filter(|candidate| dedup.insert(candidate.signature()));
    for candidate in candidates {
        if stats.iterations >= config.max_iterations {
            break;
        }
        let evaluation = evaluator.evaluate(&ctx, &candidate);
        readings.push((candidate, evaluation.as_ref().map(|e| e.gflops)));
        if let Some(evaluation) = evaluation {
            stats.iterations += 1;
            keep_best(&mut best, readings.len() - 1, evaluation);
        }
    }

    drop(l2_span);

    // ---- Level 3: the evaluator's picks -------------------------------------
    let l3_span = alpha_telemetry::span!("search.l3", matrix = matrix_fp);
    for candidate in evaluator.refine(&ctx, &structures, &readings) {
        let signature = candidate.signature();
        if readings
            .iter()
            .any(|(seen, _)| seen.signature() == signature)
        {
            continue;
        }
        let evaluation = evaluator.evaluate(&ctx, &candidate);
        readings.push((candidate, evaluation.as_ref().map(|e| e.gflops)));
        if let Some(evaluation) = evaluation {
            stats.refinements += 1;
            keep_best(&mut best, readings.len() - 1, evaluation);
        }
    }

    drop(l3_span);

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
        .add((stats.iterations + stats.refinements) as u64);
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
    // it designed, and how many of their conversions copied the matrix.
    let designer = ctx.designer().stats();
    registry
        .counter("search_designs_total", &[])
        .add(designer.designs);
    for (outcome, conversions) in [("built", designer.built), ("reused", designer.reused)] {
        registry
            .counter("search_design_conversions_total", &[("outcome", outcome)])
            .add(conversions);
    }

    let (best, best_gflops, best_kernel_shape) =
        best.ok_or_else(|| "no valid candidate could be evaluated".to_string())?;
    let best_graph = readings.swap_remove(best).0;
    // Record the winner durably: serving layers read it back to answer
    // repeat requests without searching and to warm-start structurally
    // similar matrices (the matrix features give them the similarity
    // metric; the kernel shape hands them a pre-resolved specialized
    // kernel).
    cache.record_winner(
        ctx.context_key(),
        StoredDesign {
            graph: best_graph.clone(),
            gflops: best_gflops,
            matrix_features: matrix_feature_vector(&stats_of_matrix),
            evaluator: config.evaluator.id(),
            kernel_shape: best_kernel_shape.clone(),
        },
    );
    Ok(SearchOutcome {
        best_graph,
        best_gflops,
        best_kernel_shape,
        stats,
    })
}

/// Makes reading `index`, whose evaluation is `evaluation`, the best when it
/// is faster than the incumbent.
fn keep_best(
    best: &mut Option<(usize, f64, Option<String>)>,
    index: usize,
    evaluation: Evaluation,
) {
    if best
        .as_ref()
        .is_none_or(|&(_, gflops, _)| evaluation.gflops > gflops)
    {
        *best = Some((index, evaluation.gflops, evaluation.kernel_shape));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvaluatorId;
    use alpha_gpu::{GatedSim, SimEvaluator};
    use alpha_matrix::gen;

    /// A short cost-model search: these tests pin what a fixed seed selects,
    /// which only the simulator makes the same on every run and machine.
    fn quick_config(iterations: usize) -> SearchConfig {
        SearchConfig {
            device: DeviceProfile::a100(),
            max_iterations: iterations,
            mutations_per_seed: 2,
            evaluator: EvaluatorChoice::custom(EvaluatorId::Simulated, SimEvaluator::boxed),
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
        assert_eq!(first.best_gflops, second.best_gflops);
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
        let with = quick_config(400);
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
    }

    #[test]
    fn search_respects_the_iteration_budget() {
        let matrix = gen::powerlaw(1_024, 1_024, 8, 2.0, 3);
        let outcome = search(&matrix, &quick_config(12)).unwrap();
        assert!(outcome.stats.iterations <= 12);
    }

    /// An evaluator, recording the outcome of each invocation in order: its
    /// GFLOP/s, or `None` where it found the candidate infeasible.
    struct Counting {
        inner: Box<dyn Evaluator>,
        outcomes: Arc<std::sync::Mutex<Vec<Option<f64>>>>,
    }

    impl Evaluator for Counting {
        fn evaluate(&self, ctx: &EvalContext<'_>, graph: &OperatorGraph) -> Option<Evaluation> {
            let evaluation = self.inner.evaluate(ctx, graph);
            self.outcomes
                .lock()
                .unwrap()
                .push(evaluation.as_ref().map(|e| e.gflops));
            evaluation
        }

        fn refine(
            &self,
            ctx: &EvalContext<'_>,
            structures: &[OperatorGraph],
            level2: &[(OperatorGraph, Option<f64>)],
        ) -> Vec<OperatorGraph> {
            self.inner.refine(ctx, structures, level2)
        }
    }

    /// Searches `matrix` under [`Counting`] around the evaluator `inner`
    /// builds and returns the outcome with the recorded invocations.
    fn counted_search(
        matrix: &CsrMatrix,
        config: SearchConfig,
        inner: fn(&DeviceProfile) -> Box<dyn Evaluator>,
    ) -> (SearchOutcome, Vec<Option<f64>>) {
        let outcomes: Arc<std::sync::Mutex<Vec<Option<f64>>>> = Arc::default();
        let recorded = outcomes.clone();
        let config = SearchConfig {
            evaluator: EvaluatorChoice::custom(EvaluatorId::Simulated, move |device| {
                Box::new(Counting {
                    inner: inner(device),
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
    /// infeasible one, or a feasible level-3 pick.
    fn assert_every_invocation_counts(outcome: &SearchOutcome, invocations: &[Option<f64>]) {
        let infeasible = invocations.iter().filter(|g| g.is_none()).count();
        assert_eq!(outcome.stats.cache_misses, invocations.len());
        assert_eq!(
            invocations.len(),
            outcome.stats.iterations + infeasible + outcome.stats.refinements,
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
                let (outcome, invocations) = counted_search(matrix, config, SimEvaluator::boxed);
                let what = format!("{name}, budget {budget}");
                // The budget is the stop, and nothing is evaluated past it.
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
    fn a_measured_search_never_evaluates_two_candidates_at_once() {
        // Every search evaluates one candidate at a time, whatever its
        // evaluator: the engine, not the caller, enforces it.
        let matrix = gen::powerlaw(1_024, 1_024, 10, 2.0, 13);
        for id in [
            EvaluatorId::Native { warmup: 0, runs: 1 },
            EvaluatorId::Simulated,
        ] {
            let gate = Arc::new(GatedSim::default());
            let config = SearchConfig {
                evaluator: EvaluatorChoice::custom(id, {
                    let gate = gate.clone();
                    move |device| gate.evaluator(device)
                }),
                ..quick_config(40)
            };
            let outcome = search(&matrix, &config).unwrap();
            assert!(outcome.stats.cache_misses > 16, "{id:?}");
            assert_eq!(gate.widest(), 1, "{id:?}: two candidates at once");
        }
    }

    /// The cost model's evaluations without its level-3 hook.
    struct Unrefined(SimEvaluator);

    impl Evaluator for Unrefined {
        fn evaluate(&self, ctx: &EvalContext<'_>, graph: &OperatorGraph) -> Option<Evaluation> {
            self.0.evaluate(ctx, graph)
        }
    }

    #[test]
    fn a_measured_search_stops_at_level_two() {
        // Level 3 is the evaluator's, whatever its id: the default hook gets
        // its budget and its infeasible candidates, and not one call more.
        let matrix = gen::powerlaw(1_024, 1_024, 10, 2.0, 9);
        let (outcome, invocations) = counted_search(&matrix, quick_config(40), |device| {
            Box::new(Unrefined(SimEvaluator::new(device.clone())))
        });
        let infeasible = invocations.iter().filter(|g| g.is_none()).count();
        assert_eq!(outcome.stats.iterations, 40);
        assert_eq!(outcome.stats.refinements, 0);
        assert_eq!(invocations.len(), 40 + infeasible);
        // The cost model's hook picks, and the engine evaluates its picks.
        let (outcome, invocations) = counted_search(&matrix, quick_config(40), SimEvaluator::boxed);
        assert!(outcome.stats.refinements > 0);
        assert_every_invocation_counts(&outcome, &invocations);
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
        assert!(outcome.best_gflops > 0.0);
        assert!(outcome.stats.iterations > 0);
        assert!(outcome.best_graph.validate().is_ok());
    }
}
