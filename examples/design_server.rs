//! Design server: batch-tune a 20-matrix synthetic fleet through a
//! persistent `DesignStore`, twice, and show the serving economics — the
//! first pass pays for the search, the second is answered from stored
//! designs with zero fresh kernel evaluations.
//!
//! ```text
//! cargo run --release --example design_server
//! ```

use alpha_matrix::gen::PatternFamily;
use alpha_serve::{DesignStore, TuneRequest, TuningService};
use alphasparse::{DeviceProfile, SearchConfig};
use std::time::Instant;

fn main() {
    let store_dir =
        std::env::temp_dir().join(format!("alphasparse_design_server_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);

    // A 20-matrix fleet mixing every synthetic pattern family at two sizes —
    // the stand-in for "the matrices our users keep sending us".
    let device = DeviceProfile::a100();
    let requests: Vec<TuneRequest> = (0..20)
        .map(|i| {
            let family = PatternFamily::ALL[i % PatternFamily::ALL.len()];
            let rows = if i % 2 == 0 { 2_048 } else { 8_192 };
            TuneRequest::new(family.generate(rows, 8, 7_000 + i as u64), device.clone())
        })
        .collect();
    println!(
        "fleet: {} matrices ({} pattern families), device {}",
        requests.len(),
        PatternFamily::ALL.len(),
        device.name
    );

    let config = SearchConfig {
        device: device.clone(),
        max_iterations: 40,
        mutations_per_seed: 3,
        ..SearchConfig::default()
    };

    let mut pass_stats: Vec<(f64, usize, usize)> = Vec::new();
    for pass in 1..=2 {
        // Each pass opens the store fresh, like a newly started server
        // process would.
        let store = DesignStore::open(&store_dir).expect("store opens");
        let service = TuningService::new(store, config.clone());

        // Two waves of 10, like traffic trickling in: the second wave's cold
        // searches warm-start from the winners the first wave just stored.
        let start = Instant::now();
        let mut served = Vec::new();
        for wave in requests.chunks(10) {
            served.extend(service.tune_batch(wave));
        }
        let wall = start.elapsed().as_secs_f64();

        let mut fresh = 0usize;
        let mut warm_started = 0usize;
        let mut total_gflops = 0.0;
        for result in &served {
            let tune = result.as_ref().expect("tuning succeeds");
            fresh += tune.fresh_evaluations;
            warm_started += tune.warm_started as usize;
            total_gflops += tune.tuned.gflops();
        }
        service.store().flush().expect("store flushes");

        let served_free = served
            .iter()
            .filter(|r| r.as_ref().unwrap().fresh_evaluations == 0)
            .count();
        println!("\npass {pass}: {wall:.2} s wall-clock");
        println!("  fresh kernel evaluations: {fresh}");
        println!(
            "  requests served entirely from the store: {served_free}/{}",
            served.len()
        );
        println!("  requests warm-started from similar matrices: {warm_started}");
        println!(
            "  mean measured throughput of the fleet: {:.1} GFLOPS",
            total_gflops / served.len() as f64
        );
        let stats = service.store().stats();
        println!(
            "  store tier: {} memory hits, {} disk loads, {} cold starts",
            stats.memory_hits, stats.disk_loads, stats.cold_starts
        );
        pass_stats.push((wall, fresh, served_free));
    }

    let (cold_wall, cold_fresh, _) = pass_stats[0];
    let (warm_wall, warm_fresh, warm_free) = pass_stats[1];
    println!("\n== serving economics ==");
    println!(
        "  store hit rate on the second pass: {:.0}%  ({} of {} requests, {} -> {} fresh evaluations)",
        100.0 * warm_free as f64 / requests.len() as f64,
        warm_free,
        requests.len(),
        cold_fresh,
        warm_fresh,
    );
    println!(
        "  wall-clock: {cold_wall:.2} s cold -> {warm_wall:.2} s warm ({:.1}x faster)",
        cold_wall / warm_wall.max(1e-9)
    );
    println!("  (store directory: {})", store_dir.display());

    let _ = std::fs::remove_dir_all(&store_dir);
}
