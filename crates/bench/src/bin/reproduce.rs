//! `reproduce` — prints the rows/series of every table and figure of the
//! paper's evaluation, regenerated on the simulator, and writes the
//! machine-readable measurements to `BENCH_results.json` (matrix, winning
//! format, GFLOPS, search iterations, cache hit rate, wall-clock) so future
//! PRs have a performance trajectory to diff against.
//!
//! ```text
//! cargo run --release -p alpha-bench --bin reproduce -- all
//! cargo run --release -p alpha-bench --bin reproduce -- fig9a fig10 table3 ...
//! cargo run --release -p alpha-bench --bin reproduce -- warm
//! cargo run --release -p alpha-bench --bin reproduce -- native
//! cargo run --release -p alpha-bench --bin reproduce -- serve
//! cargo run --release -p alpha-bench --bin reproduce -- all --threads 4
//! ```
//!
//! `warm`, `native` and `serve` are not part of `all`: `warm` benchmarks
//! this repo's serving layer (a matrix fleet tuned cold, then re-served
//! from a persistent `DesignStore`), `native` tunes on measured wall-clock
//! time and reports real GFLOP/s of generated kernels vs the native
//! baselines, and `serve` runs a closed-loop load test against the
//! `alpha-net` daemon (throughput + p50/p95/p99 latency; any failed request
//! exits non-zero) — none is a figure of the paper.  `--threads N` flows
//! into `SearchConfig::threads` for every mode and is recorded in every
//! `BENCH_results.json` row.  An unknown mode prints the mode list and
//! exits non-zero.

use alpha_bench::*;
use alpha_gpu::DeviceProfile;

/// The key native snapshots are stored under: `git describe` of the working
/// tree (tags → commit, `-dirty` suffix), or `untracked` outside a checkout.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--tags", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "untracked".to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let want = |key: &str| mode_selected(&cli.modes, key);
    let mut records: Vec<BenchRecord> = Vec::new();
    let mut failed = false;

    let ctx_a100 = ExperimentContext::standard(DeviceProfile::a100()).with_threads(cli.threads);
    let ctx_rtx = ExperimentContext::standard(DeviceProfile::rtx2080()).with_threads(cli.threads);

    if want("fig2") {
        println!("== Figure 2: mixed designs on 2D_27628_bjtcai (A100) ==");
        for row in figure2(&ctx_a100) {
            println!("  {:<42} {:>8.1} GFLOPS", row.design, row.gflops);
        }
        println!();
    }

    // The corpus sweep feeds Figures 9a, 9b, 10, 11, 12 and 13.
    let needs_corpus = ["fig9a", "fig9b", "fig10", "fig11", "fig12", "fig13"]
        .iter()
        .any(|k| want(k));
    if needs_corpus {
        for (device_label, ctx) in [("A100", &ctx_a100), ("RTX 2080", &ctx_rtx)] {
            // The RTX sweep is only needed for Figure 9.
            if device_label == "RTX 2080" && !(want("fig9a") || want("fig9b")) {
                continue;
            }
            println!("== Corpus sweep on {device_label} ==");
            let results = evaluate_corpus(ctx);
            records.extend(
                results
                    .iter()
                    .map(|r| BenchRecord::from_corpus_result(device_label, r)),
            );

            if want("fig9a") {
                println!("-- Figure 9a: overall performance vs matrix size --");
                println!(
                    "  {:<22} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>11}",
                    "matrix", "nnz", "ACSR", "CSR-Ad", "CSR5", "Merge", "HYB", "AlphaSparse"
                );
                for r in &results {
                    let g = |b: alpha_baselines::Baseline| {
                        r.pfs.report_for(b).map(|p| p.gflops).unwrap_or(0.0)
                    };
                    println!(
                        "  {:<22} {:>9} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>11.1}",
                        r.name,
                        r.stats.nnz,
                        g(alpha_baselines::Baseline::Acsr),
                        g(alpha_baselines::Baseline::CsrAdaptive),
                        g(alpha_baselines::Baseline::Csr5),
                        g(alpha_baselines::Baseline::Merge),
                        g(alpha_baselines::Baseline::Hyb),
                        r.alphasparse.best_report.gflops
                    );
                }
                let mean = geometric_mean(
                    &results
                        .iter()
                        .map(|r| r.mean_speedup_over_artificial())
                        .collect::<Vec<_>>(),
                );
                println!("  average speedup over the five artificial formats: {mean:.2}x");
                println!("  (paper: 3.2x on A100, 2.0x on RTX 2080)\n");
            }

            if want("fig9b") && device_label == "RTX 2080" {
                println!("-- Figure 9b: what separates fast from slow cases --");
                let mut sorted: Vec<&CorpusResult> = results.iter().collect();
                sorted.sort_by(|a, b| {
                    a.alphasparse
                        .best_report
                        .gflops
                        .partial_cmp(&b.alphasparse.best_report.gflops)
                        .unwrap()
                });
                let half = sorted.len() / 2;
                let lower = &sorted[..half];
                let upper = &sorted[half..];
                let mean = |xs: &[&CorpusResult], f: &dyn Fn(&CorpusResult) -> f64| {
                    xs.iter().map(|r| f(r)).sum::<f64>() / xs.len().max(1) as f64
                };
                println!(
                    "  upper half: avg row length {:.1}, row variance {:.0}",
                    mean(upper, &|r| r.stats.avg_row_len),
                    mean(upper, &|r| r.stats.row_len_variance)
                );
                println!(
                    "  lower half: avg row length {:.1}, row variance {:.0}",
                    mean(lower, &|r| r.stats.avg_row_len),
                    mean(lower, &|r| r.stats.row_len_variance)
                );
                println!(
                    "  (paper: upper part has 1.9x higher avg row length, 20x lower variance)\n"
                );
            }

            if device_label == "A100" {
                if want("fig10") {
                    println!("-- Figure 10: distribution of speedup over PFS --");
                    for (bucket, count) in fig10_histogram(&results) {
                        println!("  {:<10} {:>4} matrices", bucket, count);
                    }
                    let wins = results
                        .iter()
                        .filter(|r| r.speedup_over_pfs() >= 1.0)
                        .count();
                    println!(
                        "  AlphaSparse >= PFS in {:.1}% of cases (paper: 99.3%)\n",
                        100.0 * wins as f64 / results.len().max(1) as f64
                    );
                }
                if want("fig11") {
                    println!("-- Figure 11: speedup over PFS vs size and irregularity --");
                    for r in &results {
                        println!(
                            "  {:<22} nnz {:>9}  variance {:>12.0}  speedup {:>5.2}x",
                            r.name,
                            r.stats.nnz,
                            r.stats.row_len_variance,
                            r.speedup_over_pfs()
                        );
                    }
                    let (reg, irr) = speedup_by_regularity(&results, |r| r.speedup_over_pfs());
                    println!(
                        "  average speedup: regular {reg:.2}x, irregular {irr:.2}x (paper: 1.4x vs 1.6x)\n"
                    );
                }
                if want("fig12") {
                    println!("-- Figure 12: speedup over TACO --");
                    let speedups: Vec<f64> =
                        results.iter().map(|r| r.speedup_over_taco()).collect();
                    let (reg, irr) = speedup_by_regularity(&results, |r| r.speedup_over_taco());
                    println!(
                        "  average {:.1}x, max {:.1}x, regular {reg:.1}x, irregular {irr:.1}x (paper: 18.1x average)\n",
                        geometric_mean(&speedups),
                        speedups.iter().fold(0.0f64, |a, &b| a.max(b))
                    );
                }
                if want("fig13") {
                    println!("-- Figure 13: search iterations vs irregularity --");
                    let (reg, irr) = fig13_iterations(&results);
                    println!(
                        "  average iterations: regular {reg:.0}, irregular {irr:.0} (paper: irregular needs ~3.5x more)\n"
                    );
                }
            }
        }
    }

    // `native` is opt-in only (not under `all`): it measures real wall-clock
    // throughput on this host, not a paper artifact.
    if want("native") {
        println!(
            "== Native execution: measured GFLOP/s, generated kernels vs baselines (host CPU) =="
        );
        let config = NativeModeConfig {
            kernel_threads: cli.threads,
            ..NativeModeConfig::default()
        };
        println!(
            "   fleet of {} matrices ({} rows, ~{}-{} nnz/row density ladder); search optimises measured time",
            config.fleet_size,
            config.rows,
            config.avg_row_len,
            config.avg_row_len << 2
        );
        println!(
            "   host SIMD: {} (set {}=1 to force scalar kernels)\n",
            alpha_cpu::cpu_features::summary(),
            alpha_cpu::cpu_features::NO_SIMD_ENV
        );
        match native_mode(config) {
            Ok(results) => {
                println!(
                    "  {:<18} {:>9} {:>9} {:>9} {:>9} {:>11} {:>9} {:>10} {:>9} {:>9} {:>7}",
                    "matrix",
                    "CSR",
                    "ELL",
                    "HYB",
                    "Merge",
                    "generated",
                    "speedup",
                    "pool µs",
                    "scal 1T",
                    "simd 1T",
                    "simd×"
                );
                for r in &results {
                    let g = |name: &str| {
                        r.baselines
                            .iter()
                            .find(|b| b.format == name)
                            .map(|b| b.gflops)
                            .unwrap_or(0.0)
                    };
                    // `pool µs` is the generated kernel's pooled median.
                    // The last three columns are the SIMD differential:
                    // the same winning design forced scalar vs as-lowered,
                    // both on one thread.
                    println!(
                        "  {:<18} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>11.2} {:>8.2}x {:>10.1} {:>9.2} {:>9.2} {:>6.2}x",
                        r.name,
                        g("CSR-scalar"),
                        g("ELL"),
                        g("HYB"),
                        g("Merge"),
                        r.generated.gflops,
                        r.speedup_over_best_baseline(),
                        r.generated.measured_median_us.unwrap_or(0.0),
                        r.scalar.gflops,
                        r.simd_single_thread_gflops,
                        r.simd_speedup()
                    );
                }
                println!("  winning kernels (resolved vectorization, library shape):");
                for r in &results {
                    println!(
                        "    {:<18} {:<18} {}",
                        r.name,
                        r.generated.simd.as_deref().unwrap_or("scalar"),
                        r.generated.kernel_shape.as_deref().unwrap_or("none")
                    );
                    println!("    {:<18} loop: {}", "", r.loop_summary);
                }
                let speedups: Vec<f64> = results
                    .iter()
                    .map(NativeMatrixResult::speedup_over_best_baseline)
                    .collect();
                println!(
                    "  geometric-mean speedup over the best baseline: {:.2}x",
                    geometric_mean(&speedups)
                );
                let simd_speedups: Vec<f64> = results
                    .iter()
                    .map(NativeMatrixResult::simd_speedup)
                    .filter(|&s| s > 0.0)
                    .collect();
                if !simd_speedups.is_empty() {
                    println!(
                        "  single-thread SIMD-vs-scalar speedup of the winners: \
                         geomean {:.2}x, best {:.2}x",
                        geometric_mean(&simd_speedups),
                        simd_speedups.iter().fold(0.0f64, |a, &b| a.max(b))
                    );
                }
                let telemetry: Vec<f64> = results
                    .iter()
                    .filter_map(|r| r.generated.telemetry_overhead_pct)
                    .collect();
                if !telemetry.is_empty() {
                    println!(
                        "  telemetry overhead on the single-thread hot path: \
                         mean {:+.2}% across the fleet (budget: < 2%)",
                        telemetry.iter().sum::<f64>() / telemetry.len() as f64
                    );
                }
                // How the pool resolved every worker slot of every job of
                // this run: the hit rate of its spin window.
                let [hot, woken, retracted] = ["hot", "woken", "retracted"].map(|path| {
                    alpha_telemetry::global()
                        .counter("parallel_dispatch_total", &[("path", path)])
                        .get()
                });
                println!(
                    "  pool dispatch: {hot} hot, {woken} woken, {retracted} retracted \
                     ({:.1}% of worker slots found their worker polling)",
                    100.0 * hot as f64 / (hot + woken + retracted).max(1) as f64
                );
                // What the tunes above paid for: every candidate is lowered
                // and verified, but a kernel is timed once however many
                // graphs lower to it.
                let [timed, reused, infeasible] =
                    ["timed", "reused", "infeasible"].map(|outcome| {
                        alpha_telemetry::global()
                            .counter("cpu_eval_total", &[("outcome", outcome)])
                            .get()
                    });
                println!(
                    "  native evaluations: {} candidates, {timed} kernels timed, \
                     {reused} answered from an identical kernel",
                    timed + reused + infeasible
                );
                // How those candidates were designed: through one Designer
                // per tune, which converts the matrix once per distinct
                // converting chain.
                let searched = |name, labels: &[(&'static str, &str)]| {
                    alpha_telemetry::global().counter(name, labels).get()
                };
                println!(
                    "  designer: {} designs, {} conversions built, {} reused",
                    searched("search_designs_total", &[]),
                    searched("search_design_conversions_total", &[("outcome", "built")]),
                    searched("search_design_conversions_total", &[("outcome", "reused")]),
                );
                // Where a candidate's time went, stage by stage (means, so
                // they add up), against what a candidate cost the tunes.
                let snapshot = alpha_telemetry::global().snapshot();
                let (mut means, mut p50s, mut evaluator_ms) = (Vec::new(), Vec::new(), 0.0);
                for stage in alpha_cpu::eval::EVAL_STAGES {
                    let Some(observed) =
                        snapshot.histogram("cpu_eval_stage_us", &[("stage", stage)])
                    else {
                        continue;
                    };
                    let mean_ms = observed.sum as f64 / observed.count.max(1) as f64 / 1e3;
                    evaluator_ms += mean_ms;
                    means.push(format!("{stage} {mean_ms:.2}"));
                    p50s.push(format!("{:.2}", observed.quantile(0.5) / 1e3));
                }
                let tune_wall_ms: f64 = results.iter().map(|r| r.generated.wall_secs * 1e3).sum();
                println!(
                    "  candidate budget: {} = {evaluator_ms:.2} ms of {:.2} ms tune wall per \
                     candidate (stage means; p50 {})",
                    means.join(" + "),
                    tune_wall_ms / (timed + reused + infeasible).max(1) as f64,
                    p50s.join(" / "),
                );
                println!(
                    "  (wall-clock numbers carry allocator-placement and scheduler noise;\n\
                     \x20  treat deltas under ~30% as ties)\n"
                );
                let mut native_records: Vec<BenchRecord> = Vec::new();
                for r in results {
                    native_records.push(r.generated);
                    native_records.push(r.scalar);
                    native_records.extend(r.baselines);
                }
                for record in &mut native_records {
                    record.threads = cli.threads;
                }
                // The per-version snapshot: keyed by `git describe` so
                // reruns of the same tree replace their own entry while
                // other versions' throughput history survives.
                let native_path = std::env::var("BENCH_NATIVE_PATH")
                    .unwrap_or_else(|_| "BENCH_native.json".to_string());
                let key = git_describe();
                match write_native_snapshot(&native_path, &key, &native_records) {
                    Ok(()) => println!(
                        "  snapshotted {} native record(s) under \"{key}\" in {native_path}\n",
                        native_records.len()
                    ),
                    Err(e) => eprintln!(
                        "  warning: could not write native snapshot to {native_path}: {e}\n"
                    ),
                }
                records.extend(native_records);
            }
            Err(e) => eprintln!("  native comparison failed: {e}\n"),
        }
    }

    // `warm` is opt-in only (not under `all`): it measures the serving
    // layer's amortisation, not a paper artifact.
    if want("warm") {
        println!("== Cold vs warm: a 12-matrix fleet through a persistent DesignStore (A100) ==");
        let store_dir =
            std::env::temp_dir().join(format!("alphasparse_reproduce_warm_{}", std::process::id()));
        match warm_vs_cold(DeviceProfile::a100(), &store_dir, 12, 40, cli.threads) {
            Ok(cmp) => {
                println!(
                    "  cold pass: {:>8.2} s wall, {:>6} fresh kernel evaluations",
                    cmp.cold_wall_secs, cmp.cold_fresh_evaluations
                );
                println!(
                    "  warm pass: {:>8.2} s wall, {:>6} fresh kernel evaluations (store reopened from disk)",
                    cmp.warm_wall_secs, cmp.warm_fresh_evaluations
                );
                println!(
                    "  search-time amortisation: {:.1}x faster once designs are stored\n",
                    cmp.speedup()
                );
            }
            Err(e) => eprintln!("  warm comparison failed: {e}\n"),
        }
        let _ = std::fs::remove_dir_all(&store_dir);
    }

    // `serve` is opt-in only (not under `all`): a closed-loop load test of
    // the networked daemon swept over increasing connection counts.  One
    // warm store is shared across the sweep, so only the first point pays
    // for tuning and the later points measure the event loop itself.
    // Busy sheds are retried and reported, never a run failure.
    if want("serve") && cli.trace {
        // `--trace` swaps the sweep for one traced request batch: every
        // request carries a trace id across the wire, the daemon's spans
        // come back over `Request::Trace`, and the stitched Chrome trace
        // plus the flight recorder's attribution of the slowest request
        // are the artifacts (fast enough for a CI smoke step).
        println!("== Serve: traced request batch against the alpha-net daemon (loopback) ==");
        match traced_serve_run(cli.threads) {
            Ok(report) => {
                println!(
                    "  stitched Chrome trace: {} ({} client spans, {} server spans)",
                    report.trace_path.display(),
                    report.client_spans,
                    report.server_spans
                );
                println!(
                    "  {} distinct trace ids, {} tune request(s) traced end-to-end \
                     (client.submit -> net.admission -> net.queue_wait -> net.tune_exec -> net.reply)",
                    report.trace_ids, report.complete_tune_traces
                );
                println!(
                    "  client/server clock offset estimate: {} us",
                    report.clock_offset_us
                );
                match &report.slowest {
                    Some(slow) => {
                        println!(
                            "  slowest request (trace id {:#018x}): total {} us = queue wait {} us + exec {} us + unattributed {} us\n",
                            slow.trace_id,
                            slow.total_us,
                            slow.queue_wait_us,
                            slow.exec_us,
                            slow.unattributed_us()
                        );
                    }
                    None => println!("  flight recorder had no completed request to attribute\n"),
                }
            }
            Err(e) => {
                eprintln!("  traced serve run FAILED: {e}\n");
                failed = true;
            }
        }
    } else if want("serve") {
        println!("== Serve: closed-loop load sweep against the alpha-net daemon (loopback) ==");
        let config = ServeLoadConfig {
            threads: cli.threads,
            ..ServeLoadConfig::default()
        };
        const SWEEP: [usize; 5] = [4, 16, 64, 128, 256];
        println!(
            "   {} matrices, {:?} closed-loop clients, {} SpMV/job, queue capacity {}\n",
            config.fleet_size, SWEEP, config.spmv_per_job, config.queue_capacity
        );
        match serve_sweep(config, &SWEEP) {
            Ok(reports) => {
                let print_class = |name: &str, s: &alpha_bench::LatencySummary, n: usize| {
                    println!(
                        "  {name:<5} {n:>5} requests  {:>8.1} req/s  p50 {:>9.0} us  p95 {:>9.0} us  p99 {:>9.0} us",
                        s.requests_per_sec, s.p50_us, s.p95_us, s.p99_us
                    );
                };
                for report in &reports {
                    println!("  -- {} concurrent clients --", report.config.clients);
                    print_class(
                        "tune",
                        &report.tune_summary(),
                        report.tune_latencies_us.len(),
                    );
                    // The tune latency decomposed: admission-queue wait vs
                    // server-side execution, so pool improvements
                    // (execution) are attributable separately from backlog
                    // (queueing).
                    print_class(
                        "queue",
                        &report.tune_queue_summary(),
                        report.tune_queue_wait_us.len(),
                    );
                    print_class(
                        "exec",
                        &report.tune_exec_summary(),
                        report.tune_exec_us.len(),
                    );
                    print_class(
                        "spmv",
                        &report.spmv_summary(),
                        report.spmv_latencies_us.len(),
                    );
                    // The daemon's own view of the same traffic, digested
                    // from its telemetry registry: transport-free numbers
                    // next to the client-observed ones (classes marked *).
                    if let Some(s) = report.server_tune_exec {
                        print_class("exec*", &s.latency, s.count as usize);
                    }
                    if let Some(s) = report.server_spmv {
                        print_class("spmv*", &s.latency, s.count as usize);
                    }
                    if let Some(ratio) = report.spmv_p99_divergence() {
                        let flag = if report.divergence_flagged() {
                            "  << FLAGGED: client p99 more than 2x the daemon's \
                             (transport/event-loop bound, not kernel bound)"
                        } else {
                            ""
                        };
                        println!("  client/server SpMV p99 divergence: {ratio:.2}x{flag}");
                    }
                    println!(
                        "  sheds (Busy, retried): {} tune + {} spmv, store-served jobs: {}/{}",
                        report.backpressure_hits,
                        report.shed_spmv,
                        report.store_served_jobs,
                        report.tune_latencies_us.len()
                    );
                    let [stored, replayed, searched] = report.tune_paths;
                    println!(
                        "  tunes answered: {stored} from stored winners, {replayed} by replayed \
                         search, {searched} by fresh search"
                    );
                    println!("  wall-clock: {:.2} s\n", report.wall_secs);
                    records.extend(report.records());
                }
                let p99_at = |clients: usize| {
                    reports
                        .iter()
                        .find(|r| r.config.clients == clients)
                        .map(|r| r.spmv_summary().p99_us)
                };
                if let (Some(base), Some(high)) = (p99_at(SWEEP[0]), p99_at(128)) {
                    println!(
                        "  SpMV p99 at 128 clients vs {} clients: {:.2}x\n",
                        SWEEP[0],
                        if base > 0.0 { high / base } else { f64::NAN }
                    );
                }
            }
            Err(e) => {
                eprintln!("  serve load sweep FAILED: {e}\n");
                failed = true;
            }
        }
    }

    if want("table3") {
        println!("== Table III: pruning ablation on the 13 named matrices (A100) ==");
        println!(
            "  {:<22} {:>12} {:>12} {:>12} {:>12}",
            "matrix", "h (no prune)", "h (prune)", "GF (no prune)", "GF (prune)"
        );
        let rows = table3(&ctx_a100);
        records.extend(rows.iter().map(|row| row.record.clone()));
        for row in &rows {
            println!(
                "  {:<22} {:>12.2} {:>12.2} {:>12.1} {:>12.1}",
                row.matrix,
                row.hours_no_pruning,
                row.hours_pruning,
                row.gflops_no_pruning,
                row.gflops_pruning
            );
        }
        if !rows.is_empty() {
            let avg =
                |f: &dyn Fn(&Table3Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;
            println!(
                "  average: {:.2} h -> {:.2} h, {:.1} -> {:.1} GFLOPS (paper: 8.0 h -> 3.2 h, 198.6 -> 231.0)\n",
                avg(&|r| r.hours_no_pruning),
                avg(&|r| r.hours_pruning),
                avg(&|r| r.gflops_no_pruning),
                avg(&|r| r.gflops_pruning)
            );
        }
    }

    if want("fig14") {
        println!("== Figure 14: case study on scfxm1-2r (A100) ==");
        let result = figure14(&ctx_a100);
        records.push(result.record.clone());
        println!(
            "-- (a) winning operator graph --\n{}",
            result.operator_graph
        );
        println!("-- (b) performance comparison --");
        for row in &result.comparison {
            println!("  {:<20} {:>8.1} GFLOPS", row.design, row.gflops);
        }
        println!("-- (c) ablation of the key optimisations --");
        println!(
            "  origin (no compression, no pruning): {:>8.1} GFLOPS",
            result.gflops_origin
        );
        println!(
            "  + format compression:                {:>8.1} GFLOPS ({:+.0}%)",
            result.gflops_compression,
            100.0 * (result.gflops_compression / result.gflops_origin.max(1e-9) - 1.0)
        );
        println!(
            "  + pruning (full system):             {:>8.1} GFLOPS ({:+.0}%)",
            result.gflops_full,
            100.0 * (result.gflops_full / result.gflops_origin.max(1e-9) - 1.0)
        );
        println!("  (paper: +32% from compression, +78% in total)\n");
    }

    // Every record carries the `--threads` override it ran under.
    for record in &mut records {
        record.threads = cli.threads;
    }

    // Only (over)write the trajectory file when this run actually measured
    // something — `reproduce fig2` must not clobber a full run's records.
    if records.is_empty() {
        println!("no searches measured in this run; BENCH_results.json left untouched");
    } else {
        // The path can be redirected (e.g. into a results/ tree); missing
        // parent directories are created by write_results_json.  An
        // unwritable path is a clear, non-zero-exit error — the measurements
        // of a long run should never vanish with a shrug.
        let results_path = std::env::var("BENCH_RESULTS_PATH")
            .unwrap_or_else(|_| "BENCH_results.json".to_string());
        match write_results_json(&results_path, &records) {
            Ok(()) => println!(
                "wrote {} measurement record(s) to {results_path} (A100 cache: {:?})",
                records.len(),
                ctx_a100.cache.stats()
            ),
            Err(e) => {
                eprintln!(
                    "error: could not write benchmark results to {results_path}: {e}\n\
                     hint: set BENCH_RESULTS_PATH to a writable location"
                );
                std::process::exit(1);
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
