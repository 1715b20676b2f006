//! `reproduce` — prints the rows/series of every table and figure of the
//! paper's evaluation, regenerated on the simulator, and — asked for by
//! name — how the default (measured) tune compares with the cost model's on
//! this host.
//!
//! ```text
//! cargo run --release -p alpha-bench --bin reproduce -- all
//! cargo run --release -p alpha-bench --bin reproduce -- fig9a fig10 table3 ...
//! cargo run --release -p alpha-bench --bin reproduce -- host
//! ```
//!
//! Every figure pins the cost model (`alpha-gpu`'s `SimEvaluator`), so its
//! output is the same on any machine.  The corpus sweep and Table III spread
//! their matrices over the process-wide pool; each search evaluates its
//! candidates one at a time, and `host`, which times, runs serially.  The
//! binary takes no flags: an unknown mode or any flag prints the error and
//! exits non-zero.  The binary writes no file; the repository's
//! measured numbers come from `benchmark/`.

use alpha_bench::*;
use alpha_gpu::DeviceProfile;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let modes = match parse_cli(&args) {
        Ok(modes) => modes,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let want = |key: &str| mode_selected(&modes, key);

    let ctx_a100 = ExperimentContext::standard(DeviceProfile::a100());
    let ctx_rtx = ExperimentContext::standard(DeviceProfile::rtx2080());

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
                        r.alphasparse.best_gflops
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
                        .best_gflops
                        .partial_cmp(&b.alphasparse.best_gflops)
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

    if want("table3") {
        println!("== Table III: pruning ablation on the 13 named matrices (A100) ==");
        println!(
            "  {:<22} {:>12} {:>12} {:>12} {:>12}",
            "matrix", "h (no prune)", "h (prune)", "GF (no prune)", "GF (prune)"
        );
        let rows = table3(&ctx_a100);
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

    if want(HOST_MODE) {
        let rows = host_comparison(&ctx_a100);
        println!(
            "== The two evaluators on this host: {} named stand-ins ==",
            rows.len()
        );
        println!(
            "  {:<18} {:>9} {:>9} {:>10} {:>9} {:>8} {:>6} {:>6}  {:<22} {:<40} winner (model)",
            "matrix",
            "tune ms",
            "(model)",
            "win ratio",
            "vs preset",
            "programs",
            "evals",
            "timed",
            "best preset",
            "winner (measured)"
        );
        for row in &rows {
            println!(
                "  {:<18} {:>9.1} {:>9.1} {:>9.3}x {:>8.3}x {:>8} {:>6} {:>6}  {:<22} {:<40} {}",
                row.matrix,
                1e3 * row.measured_tune_s,
                1e3 * row.simulated_tune_s,
                row.winner_ratio(),
                row.gain_over_preset(),
                row.preset_programs,
                row.evaluations,
                row.programs_timed,
                row.preset,
                row.measured_shape,
                row.simulated_shape
            );
        }
        let geomean =
            |f: &dyn Fn(&HostRow) -> f64| geometric_mean(&rows.iter().map(f).collect::<Vec<_>>());
        let gains: Vec<f64> = rows.iter().map(HostRow::gain_over_preset).collect();
        println!(
            "  geomean: tune {:.1} ms vs {:.1} ms (model), winner ratio {:.3}x, {:.3}x the best preset \
             (min {:.3}x, {} of {} below 1.0)",
            1e3 * geomean(&|r| r.measured_tune_s),
            1e3 * geomean(&|r| r.simulated_tune_s),
            geomean(&|r| r.winner_ratio()),
            geometric_mean(&gains),
            gains.iter().copied().fold(f64::INFINITY, f64::min),
            gains.iter().filter(|&&gain| gain < 1.0).count(),
            gains.len()
        );
        let total = |f: &dyn Fn(&HostRow) -> u64| rows.iter().map(f).sum::<u64>();
        println!(
            "  fleet: the measured tunes evaluated {} candidates and timed {} distinct programs",
            total(&|r| r.evaluations),
            total(&|r| r.programs_timed)
        );
        println!(
            "  (win ratio: measured winner's time over the model winner's, below 1 is faster;\n   \
             vs preset: the fastest distinct preset program's time over the measured winner's;\n   \
             programs: the distinct programs the presets lower to, each selected and raced once;\n   \
             evals / timed: the candidates the measured tune evaluated / the programs it timed)\n"
        );
    }

    if want("fig14") {
        println!("== Figure 14: case study on scfxm1-2r (A100) ==");
        let result = figure14(&ctx_a100);
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
}
