//! `benchmark compare <set-a> <set-b>`: judges set B (a change) against set A
//! (its parent) with the bounds `BENCHMARK.json` fixes.
//!
//! A set is a directory of result files as `benchmark run` writes them
//! (`--out-dir`).  Only untraced runs carry end-to-end metrics; traced result
//! files in a set are ignored.

use crate::json::{self, Value};
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::path::Path;

/// The result files of one set, by workload.
#[derive(Default)]
struct Set {
    /// workload -> metric -> one value per run.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// workload -> the distinct winner-shape lists its runs printed.
    shapes: BTreeMap<String, Vec<Vec<String>>>,
    failed_runs: usize,
}

fn load_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::default();
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .filter(|path| !path.to_string_lossy().ends_with(".trace.json"))
        .collect();
    paths.sort();
    for path in paths {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("traced").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("{}: no workload", path.display()))?
            .to_string();
        if doc.get("correct").and_then(Value::as_bool) != Some(true) {
            set.failed_runs += 1;
        }
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or(format!("{}: no metrics", path.display()))?;
        let by_metric = set.values.entry(workload.clone()).or_default();
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Value::as_f64) {
                by_metric.entry(name.clone()).or_default().push(value);
            }
        }
        let shapes: Vec<String> = doc
            .get("winner_shapes")
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|s| s.as_str().map(str::to_string))
            .collect();
        let lists = set.shapes.entry(workload).or_default();
        if !lists.contains(&shapes) {
            lists.push(shapes);
        }
    }
    if set.values.is_empty() {
        return Err(format!("{}: no untraced result files", dir.display()));
    }
    Ok(set)
}

/// One end-to-end metric of `BENCHMARK.json`.
struct Gate {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn load_gates(path: &Path) -> Result<Vec<Gate>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or(format!("{}: no end_to_end list", path.display()))?
        .iter()
        .map(|metric| {
            let text = |key: &str| metric.get(key).and_then(Value::as_str);
            Some(Gate {
                name: text("name")?.to_string(),
                lower_is_better: text("better")? == "lower",
                bound: metric.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<Gate>>>()
        .ok_or(format!("{}: malformed end_to_end entry", path.display()))
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

/// Judges the runs of a change (`b`) against its parent's (`a`).
///
/// * **worse** — the change's median is worse than the parent's by more than
///   the bound;
/// * **unresolved** — either side's quartile spread, as a share of its
///   median, is wider than the bound, so the bound cannot be checked — unless
///   every run of the change reads better than every run of the parent;
/// * **better** — the median improved by more than the spread between the
///   parent's own runs;
/// * **same** — otherwise.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let ((a_q1, a_med, a_q3), (b_q1, b_med, b_q3)) = (quartiles(a), quartiles(b));
    // Positive = the change is worse, as a share of the parent's median.
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (b_med - a_med) / a_med.abs();
    let spread = |q1: f64, med: f64, q3: f64| (q3 - q1) / med.abs();
    let (a_spread, b_spread) = (spread(a_q1, a_med, a_q3), spread(b_q1, b_med, b_q3));
    let all_better = b.iter().all(|b| a.iter().all(|a| sign * (b - a) < 0.0));
    if all_better {
        return Verdict::Better;
    }
    if a_spread > bound || b_spread > bound {
        return Verdict::Unresolved;
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > a_spread && worse_by < 0.0 {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Prints one row per (workload, metric).  Returns whether no row is worse or
/// unresolved, no run failed and the `spmv_local` winner shapes agree.
pub fn main(args: &[String]) -> Result<bool, String> {
    let (mut dirs, mut benchmark_json) = (Vec::new(), "BENCHMARK.json".to_string());
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--benchmark-json" {
            benchmark_json = iter.next().ok_or("--benchmark-json needs a path")?.clone();
        } else {
            dirs.push(arg);
        }
    }
    let [a_dir, b_dir] = dirs[..] else {
        return Err("compare takes two set directories".to_string());
    };
    let gates = load_gates(Path::new(&benchmark_json))?;
    let (a, b) = (load_set(Path::new(a_dir))?, load_set(Path::new(b_dir))?);

    let mut clean = a.failed_runs + b.failed_runs == 0;
    if !clean {
        println!(
            "runs with failed operations: {} in A, {} in B",
            a.failed_runs, b.failed_runs
        );
    }
    println!(
        "{:<12} {:<32} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "B-A %", "bound"
    );
    for (workload, a_metrics) in &a.values {
        let Some(b_metrics) = b.values.get(workload) else {
            println!("{workload:<12} missing from set B");
            clean = false;
            continue;
        };
        for gate in &gates {
            let (Some(a_runs), Some(b_runs)) =
                (a_metrics.get(&gate.name), b_metrics.get(&gate.name))
            else {
                println!("{workload:<12} {:<32} missing from a set", gate.name);
                clean = false;
                continue;
            };
            let verdict = judge(a_runs, b_runs, gate.lower_is_better, gate.bound);
            clean &= matches!(verdict, Verdict::Same | Verdict::Better);
            let ((a_q1, a_med, a_q3), (b_q1, b_med, b_q3)) = (quartiles(a_runs), quartiles(b_runs));
            println!(
                "{workload:<12} {:<32} {a_med:>14.5} {:>8.2} {b_med:>14.5} {:>8.2} {:>+8.2} {:>6.2}  {}",
                gate.name,
                (a_q3 - a_q1) / a_med * 100.0,
                (b_q3 - b_q1) / b_med * 100.0,
                (b_med - a_med) / a_med * 100.0,
                gate.bound,
                format!("{verdict:?}").to_lowercase(),
            );
        }
    }
    // Every run measures the spmv_local subject, so every workload's files
    // carry its winner list; the designs are chosen by the deterministic
    // evaluator and must not change between two sets of one commit.
    let distinct = |set: &Set| -> Vec<Vec<String>> {
        let mut lists: Vec<_> = set.shapes.values().flatten().cloned().collect();
        lists.sort();
        lists.dedup();
        lists
    };
    if distinct(&a) != distinct(&b) {
        println!("winner kernel_shape() lists of spmv_local differ between the sets (same seeds?)");
        clean = false;
    } else {
        println!("winner kernel_shape() lists of spmv_local agree between the sets");
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let parent = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound and within the parent's spread.
        assert_eq!(
            judge(&parent, &[100.2, 101.1, 99.3, 100.4, 99.9], true, 0.05),
            Verdict::Same
        );
        // Median 8% worse, bound 5%.
        assert_eq!(
            judge(&parent, &[108.0, 109.0, 107.0, 108.5, 107.5], true, 0.05),
            Verdict::Worse
        );
        // The same numbers are an improvement when higher is better.
        assert_eq!(
            judge(&parent, &[108.0, 109.0, 107.0, 108.5, 107.5], false, 0.05),
            Verdict::Better
        );
        // Improved by more than the parent's spread, though runs overlap.
        assert_eq!(
            judge(&parent, &[97.0, 99.2, 96.0, 97.5, 96.5], true, 0.05),
            Verdict::Better
        );
        // A spread wider than the bound cannot be judged ...
        let noisy = [100.0, 120.0, 80.0, 110.0, 90.0];
        assert_eq!(
            judge(&noisy, &[101.0, 119.0, 82.0, 108.0, 93.0], true, 0.05),
            Verdict::Unresolved
        );
        // ... unless every run of the change beats every run of the parent.
        assert_eq!(
            judge(&noisy, &[60.0, 70.0, 65.0, 75.0, 62.0], true, 0.05),
            Verdict::Better
        );
    }

    #[test]
    fn sets_load_from_result_files_and_skip_traced_runs() {
        let dir = std::env::temp_dir().join(format!("benchmark-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let file = |name: &str, traced: bool, value: f64| {
            let text = format!(
                "{{\"workload\": \"spmv_local\", \"seed\": 1, \"traced\": {traced}, \
                 \"winner_shapes\": [\"uniform:rows\"], \"correct\": true, \"attempted\": 5, \
                 \"failed\": 0, \"metrics\": {{\"setup_s\": {{\"value\": {value}, \"unit\": \"s\"}}}}}}"
            );
            std::fs::write(dir.join(name), text).expect("write");
        };
        file("spmv_local-seed1-trace0.json", false, 2.0);
        file("spmv_local-seed2-trace0.json", false, 3.0);
        file("spmv_local-seed1-trace1.json", true, 9.0);
        std::fs::write(dir.join("spmv_local.trace.json"), "{\"traceEvents\":[]}").expect("write");
        let set = load_set(&dir).expect("set loads");
        assert_eq!(set.values["spmv_local"]["setup_s"], [2.0, 3.0]);
        assert_eq!(set.shapes["spmv_local"], [vec!["uniform:rows".to_string()]]);
        assert_eq!(set.failed_runs, 0);
        std::fs::remove_dir_all(&dir).expect("temp dir removal");
    }
}
