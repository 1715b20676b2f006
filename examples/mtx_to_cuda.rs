//! End-to-end Matrix Market pipeline: write an `.mtx` file, feed it to the
//! tuner exactly the way the paper's artifact does ("users only need to input
//! a Matrix Market file"), and save the generated CUDA-like kernel source
//! next to it.
//!
//! ```text
//! cargo run --release --example mtx_to_cuda [path/to/matrix.mtx]
//! ```

use alpha_matrix::{gen, mm};
use alphasparse::{AlphaSparse, DeviceProfile};
use std::path::PathBuf;

fn main() {
    let arg = std::env::args().nth(1);
    let mtx_path: PathBuf = match arg {
        Some(path) => PathBuf::from(path),
        None => {
            // No input supplied: synthesise a demonstration matrix and write
            // it to a temporary .mtx file first.
            let dir = std::env::temp_dir().join("alphasparse_demo");
            std::fs::create_dir_all(&dir).expect("create temp dir");
            let path = dir.join("demo_circuit.mtx");
            let matrix = gen::rmat(4_096, 40_000, 99);
            let mut file = std::fs::File::create(&path).expect("create mtx");
            mm::write_matrix_market(&mut file, &matrix.to_coo()).expect("write mtx");
            println!("wrote demonstration matrix to {}", path.display());
            path
        }
    };

    let tuner = AlphaSparse::new(DeviceProfile::a100()).with_search_budget(60);
    let tuned = tuner.auto_tune_mtx(&mtx_path).expect("tuning succeeds");

    let stats = tuned.matrix_stats();
    println!(
        "tuned {}: {} rows, {} nnz -> {:.1} measured GFLOPS",
        mtx_path.display(),
        stats.rows,
        stats.nnz,
        tuned.gflops()
    );
    println!("format arrays:");
    for (partition, name, compressed) in tuned.format().array_inventory() {
        println!(
            "  partition {partition}: {name}{}",
            if compressed {
                "  [compressed to a closed form]"
            } else {
                ""
            }
        );
    }

    let out_path = mtx_path.with_extension("alphasparse.cu");
    std::fs::write(&out_path, tuned.source()).expect("write generated source");
    println!("generated kernel written to {}", out_path.display());
}
