//! The repo benchmark: four workloads, end-to-end metrics a user of the
//! system sees, and per-layer metrics measured from outside each crate.
//! `README.md` next to this package has the command, the glossary and the
//! list of public functions the benchmark is allowed to call.

mod compare;
mod fleet;
mod host;
mod json;
mod metrics;
mod prom;
mod scale;
mod serve;
mod speed;
mod spmv_local;
mod stats;
mod trace;
mod tune_cold;

use fleet::Ops;
use metrics::{Report, END_TO_END, PER_LAYER};
use scale::{Counts, Sizes, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{ThreadTrace, Tracer};

/// What every subject needs to run.
pub struct Ctx<'a> {
    pub sizes: &'a Sizes,
    pub counts: Counts,
    pub seed: u64,
    /// Kernel threads, `min(nproc, 4)`.
    pub threads: usize,
    /// Closed-loop client connections of `serve_warm`, at most `nproc`.
    pub connections: usize,
    pub ops: &'a Ops,
    pub tracer: &'a Tracer,
    /// Directory the design stores of this run live in; removed at exit.
    pub scratch: &'a Path,
}

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    smoke: bool,
    out_dir: PathBuf,
}

const USAGE: &str = "usage:
  benchmark run --workload <tune_cold|spmv_local|serve_warm|serve_mixed> --seed <u64>
                [--seconds <n>] [--trace <0|1>] [--smoke] [--out-dir <dir>]
  benchmark compare <set-a-dir> <set-b-dir> [--benchmark-json <path>]";

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: Workload::TuneCold,
        seed: 0,
        seconds: scale::REFERENCE_SECONDS,
        traced: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let (mut have_workload, mut have_seed) = (false, false);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = iter.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workload =
                    Workload::parse(value).ok_or(format!("unknown workload {value}"))?;
                have_workload = true;
            }
            "--seed" => {
                parsed.seed = number()?;
                have_seed = true;
            }
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.traced = number()? != 0,
            "--out-dir" => parsed.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown option {other}")),
        }
    }
    if !have_workload || !have_seed {
        return Err("--workload and --seed are required".to_string());
    }
    Ok(parsed)
}

/// Set-up and timed seconds of each subject of a run.
#[derive(Default)]
struct Phases {
    rows: Vec<(&'static str, f64, f64)>,
}

impl Phases {
    fn clocked<R>(&mut self, subject: &'static str, timed: bool, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        let secs = start.elapsed().as_secs_f64();
        let index = match self.rows.iter().position(|row| row.0 == subject) {
            Some(index) => index,
            None => {
                self.rows.push((subject, 0.0, 0.0));
                self.rows.len() - 1
            }
        };
        let row = &mut self.rows[index];
        *(if timed { &mut row.2 } else { &mut row.1 }) += secs;
        result
    }

    fn setup<R>(&mut self, subject: &'static str, f: impl FnOnce() -> R) -> R {
        self.clocked(subject, false, f)
    }

    fn timed<R>(&mut self, subject: &'static str, f: impl FnOnce() -> R) -> R {
        self.clocked(subject, true, f)
    }
}

/// Sets up the four subjects, runs the timed phase as interleaved rounds over
/// all of them, then derives the metrics.  Set-up time is summed over the
/// subjects; the traced run's replay probes count towards neither phase.
fn run_subjects(
    ctx: &Ctx<'_>,
    trace: &mut ThreadTrace<'_>,
    traced: bool,
    report: &mut Report,
) -> Result<(), String> {
    let mut phases = Phases::default();
    let retries = serve::Retries::default();
    let mut cold = phases.setup("tune_cold", || tune_cold::setup(ctx, trace));
    let mut local = phases.setup("spmv_local", || spmv_local::setup(ctx, trace));
    let mut warm = phases.setup("serve_warm", || serve::warm_setup(ctx, trace, &retries))?;
    let mut mixed = phases.setup("serve_mixed", || serve::mixed_setup(ctx, trace, &retries))?;
    report.set("setup_s", phases.rows.iter().map(|row| row.1).sum());

    let failed_before = ctx.ops.failed();
    let rss_before_mb = host::rss_mb();
    for round in 0..scale::ROUNDS {
        phases.timed("tune_cold", || {
            tune_cold::round(ctx, trace, &mut cold, round)
        });
        phases.timed("spmv_local", || {
            spmv_local::round(ctx, trace, &mut local, round)
        });
        phases.timed("serve_warm", || {
            // The connections measure concurrently, so the host's speed is
            // read here, before they start.
            ctx.tracer.refresh_speed();
            serve::warm_round(ctx, &mut warm, &retries, round)
        });
        phases.timed("serve_mixed", || {
            serve::mixed_round(ctx, trace, &mut mixed, &retries, round)
        });
    }
    let rss_growth_mb = host::rss_mb() - rss_before_mb;
    serve::warm_finish(&mut warm);

    tune_cold::end_to_end(&cold, report);
    spmv_local::end_to_end(&local, report);
    serve::warm_end_to_end(&warm, report);
    serve::mixed_end_to_end(&mixed, report);
    report.set("peak_rss_mb", host::peak_rss_mb());
    let readings_us: Vec<f64> = ctx
        .tracer
        .speed()
        .readings()
        .iter()
        .map(|s| s * 1e6)
        .collect();
    if !readings_us.is_empty() {
        let (q1, median, q3) = stats::quartiles(&readings_us);
        report.note(format!(
            "host speed: {} probe readings, quartiles {q1:.0} / {median:.0} / {q3:.0} us against the \
             reference {:.0} us; timings are reported at the reference speed",
            readings_us.len(),
            scale::SPEED_REFERENCE_US
        ));
    }
    for (subject, setup_secs, timed_secs) in &phases.rows {
        report.note(format!(
            "subject {subject:<12} set-up {setup_secs:>6.2} s, timed phase {timed_secs:>6.2} s"
        ));
    }

    if traced {
        let generate_ms: Vec<f64> = cold
            .subjects()
            .chain(local.subjects())
            .chain(serve::subjects(&warm, &mixed))
            .map(|s| s.generate_secs * 1e3)
            .collect();
        report.set("matrix.generate_ms", stats::geomean(&generate_ms));
        report.set("net.busy_retries", retries.count() as f64);
        report.set("net.failed_ops", (ctx.ops.failed() - failed_before) as f64);
        let jobs = serve::jobs_finished(&warm, &mixed);
        report.set("net.rss_mb_per_job", rss_growth_mb / jobs.max(1) as f64);
        tune_cold::layers(ctx, trace, &cold, report);
        spmv_local::layers(ctx, trace, &local, report)?;
        serve::mixed_layers(&mixed, report);
        serve::warm_layers(ctx, trace, &mut warm, report)?;
        report.set("cpu.max_scaled_error", ctx.ops.max_error());
    }
    // Tear-down (daemon shutdown, joining its threads, removing the stores)
    // happens when the subjects drop.
    Ok(())
}

/// The outcome of one run: the report and the operation ledger.
struct Outcome {
    report: Report,
    attempted: u64,
    failed: u64,
    /// Set when the run could not complete; no result may be printed.
    error: Option<String>,
}

fn run(args: &RunArgs) -> Outcome {
    let nproc = host::nproc();
    let sizes = if args.smoke {
        &scale::SMOKE
    } else {
        &scale::FULL
    };
    let counts = if args.smoke {
        scale::SMOKE_COUNTS
    } else {
        Counts::of(args.workload).scaled(args.seconds)
    };
    let scratch = args.out_dir.join(format!("tmp-{}", std::process::id()));
    let ops = Ops::default();
    let threads = nproc.min(scale::MAX_KERNEL_THREADS);
    let tracer = Tracer::with_speed(
        args.traced,
        speed::SpeedProbe::new(threads, Some(scale::SPEED_REFERENCE_US / 1e6)),
    );
    let ctx = Ctx {
        sizes,
        counts,
        seed: args.seed,
        threads,
        connections: nproc.min(scale::MAX_CONNECTIONS),
        ops: &ops,
        tracer: &tracer,
        scratch: &scratch,
    };
    let mut report = Report::default();
    report.note(format!(
        "host: nproc {nproc}, kernel threads {}, connections {}, cpu {}, LLC {} bytes, commit {}",
        ctx.threads,
        ctx.connections,
        alpha_cpu::cpu_features::summary(),
        host::llc_bytes(),
        host::git_describe(),
    ));
    report.note(format!(
        "run: workload {}, seed {}, seconds {}, traced {}, scale {}, counts {counts:?}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.traced,
        if args.smoke { "smoke" } else { "full" },
    ));

    let error = std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("{}: {e}", scratch.display()))
        .and_then(|()| {
            let mut trace = tracer.thread();
            run_subjects(&ctx, &mut trace, args.traced, &mut report)
        })
        .err();
    // The subjects removed their own stores; this removes the parent.
    let _ = std::fs::remove_dir_all(&scratch);

    if args.traced && error.is_none() {
        let spans = tracer.spans();
        let span_cost_ns = trace::span_cost_ns(scale::SPAN_CALIBRATION_SPANS);
        let root_ns: u64 = spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        // What recording cost, against the time spent inside the recorded
        // calls: the distortion the layer numbers carry.
        report.set(
            "trace.overhead_pct",
            spans.len() as f64 * span_cost_ns / (root_ns.max(1) as f64) * 100.0,
        );
        report.note(format!(
            "trace: {} spans at {span_cost_ns:.0} ns each",
            spans.len()
        ));
        let mut totals: Vec<_> = trace::self_times(&spans).into_iter().collect();
        totals.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        for (name, t) in totals {
            report.note(format!(
                "span {name:<28} count {:>8}  total {:>10.3} ms  self {:>10.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        let path = args
            .out_dir
            .join(format!("{}.trace.json", args.workload.name()));
        if let Err(e) = std::fs::write(&path, trace::chrome_trace_json(&spans)) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    Outcome {
        report,
        attempted: ops.attempted(),
        failed: ops.failed(),
        error,
    }
}

/// Prints the run and writes its result file.  Returns the process exit code.
fn finish(args: &RunArgs, outcome: &Outcome) -> i32 {
    let section = if args.traced { PER_LAYER } else { END_TO_END };
    let report = &outcome.report;
    for note in &report.notes {
        println!("{note}");
    }
    for shape in &report.winner_shapes {
        println!("winner {shape}");
    }
    for line in report
        .lines(END_TO_END)
        .iter()
        .chain(&report.lines(PER_LAYER))
    {
        println!("{line}");
    }
    println!(
        "operations: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    if let Some(error) = &outcome.error {
        eprintln!("benchmark failed: {error}");
        return 1;
    }
    let missing = report.missing(section);
    if !missing.is_empty() {
        eprintln!("benchmark failed: no finite value for {missing:?}");
        return 1;
    }
    let correct = outcome.failed == 0;
    let result = format!(
        "\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}",
        outcome.attempted.max(1),
        outcome.failed,
        report.metrics_json(section)
    );
    let shapes: Vec<String> = report
        .winner_shapes
        .iter()
        .map(|s| json::quote(s))
        .collect();
    let file = format!(
        "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"winner_shapes\": [{}], {result}}}\n",
        json::quote(args.workload.name()),
        args.seed,
        args.traced,
        shapes.join(", ")
    );
    let path = args.out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.traced as u8
    ));
    if let Err(e) = std::fs::write(&path, file) {
        eprintln!("cannot write {}: {e}", path.display());
    }
    println!("{{{result}}}");
    if correct {
        0
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        Some((command, rest)) if command == "run" => match parse_run_args(rest) {
            Ok(run_args) => finish(&run_args, &run(&run_args)),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
        },
        Some((command, rest)) if command == "compare" => match compare::main(rest) {
            Ok(clean) => i32::from(!clean),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                2
            }
        },
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let args = parse_run_args(&strings(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(args.workload, Workload::ServeMixed);
        assert_eq!((args.seed, args.seconds, args.traced), (7, 15, true));
        assert!(!args.smoke);
        assert!(parse_run_args(&strings(&["--workload", "tune_cold"])).is_err());
        assert!(parse_run_args(&strings(&["--workload", "nope", "--seed", "1"])).is_err());
        assert!(parse_run_args(&strings(&["--seed"])).is_err());
    }

    /// All four workloads at the smoke scale, untraced and traced: every
    /// metric of the section the run reports is emitted with a finite value
    /// and no operation fails.
    #[test]
    fn smoke_scale_emits_every_metric() {
        let out_dir = std::env::temp_dir().join(format!("benchmark-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&out_dir).expect("temp dir");
        for workload in Workload::ALL {
            for traced in [false, true] {
                let args = RunArgs {
                    workload,
                    seed: 3,
                    seconds: scale::REFERENCE_SECONDS,
                    traced,
                    smoke: true,
                    out_dir: out_dir.clone(),
                };
                let outcome = run(&args);
                assert_eq!(outcome.error, None, "{workload:?} traced={traced}");
                assert_eq!(outcome.failed, 0, "{workload:?} traced={traced}");
                assert!(outcome.attempted > 0);
                let section = if traced { PER_LAYER } else { END_TO_END };
                assert_eq!(
                    outcome.report.missing(section),
                    Vec::<&str>::new(),
                    "{workload:?} traced={traced}"
                );
                assert_eq!(finish(&args, &outcome), 0);
            }
        }
        assert!(out_dir.join("serve_warm.trace.json").is_file());
        let result = std::fs::read_to_string(out_dir.join("tune_cold-seed3-trace0.json"))
            .expect("result file");
        let doc = json::parse(&result).expect("result file is JSON");
        assert_eq!(
            doc.get("correct").and_then(json::Value::as_bool),
            Some(true)
        );
        std::fs::remove_dir_all(&out_dir).expect("temp dir removal");
    }
}
