//! Snapshot tests for both source emitters.
//!
//! The emitted CUDA-like and Rust sources are user-facing artifacts: their
//! exact shape is part of the contract ("output is code").  These tests pin
//! the full text for a small deterministic matrix, so any change to either
//! emitter is a conscious, reviewed diff of the checked-in snapshot instead
//! of a silent drift.
//!
//! To regenerate after an intentional emitter change:
//! `UPDATE_SNAPSHOTS=1 cargo test -p alpha-codegen --test emit_snapshots`

use alpha_codegen::{generate, GeneratorOptions};
use alpha_graph::presets;
use alpha_matrix::{CooMatrix, CsrMatrix};
use std::path::PathBuf;

/// A fixed 8x8 matrix with two entries per row — fully deterministic, and
/// regular enough that Model-Driven Format Compression fires (both emitters
/// must show closed-form index functions).
fn fixture() -> CsrMatrix {
    let mut coo = CooMatrix::new(8, 8);
    for r in 0..8 {
        coo.push(r, r, 1.0 + r as f32);
        coo.push(r, (r + 3) % 8, 0.5);
    }
    CsrMatrix::from_coo(&coo)
}

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(name)
}

fn assert_snapshot(name: &str, actual: &str) {
    let path = snapshot_path(name);
    if std::env::var_os("UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read snapshot {}: {e}\nregenerate with UPDATE_SNAPSHOTS=1 \
             cargo test -p alpha-codegen --test emit_snapshots",
            path.display()
        )
    });
    assert_eq!(
        expected, actual,
        "emitted source for {name} drifted from its snapshot; if the change \
         is intentional, regenerate with UPDATE_SNAPSHOTS=1"
    );
}

fn sources_for(graph: &alpha_graph::OperatorGraph) -> (String, String) {
    let generated = generate(graph, &fixture(), GeneratorOptions::default()).unwrap();
    (generated.source(), generated.rust_source())
}

#[test]
fn csr_scalar_cuda_and_rust_snapshots() {
    let (cuda, rust) = sources_for(&presets::csr_scalar());
    assert_snapshot("csr_scalar_cuda.txt", &cuda);
    assert_snapshot("csr_scalar_rust.txt", &rust);
}

#[test]
fn nnz_split_cuda_and_rust_snapshots() {
    let (cuda, rust) = sources_for(&presets::csr5_like(4));
    assert_snapshot("csr5_like_cuda.txt", &cuda);
    assert_snapshot("csr5_like_rust.txt", &rust);
}

#[test]
fn emitters_agree_on_compression_decisions() {
    // Both artifacts must document the same closed-form arrays: an array the
    // native backend computes must not appear as a load in the CUDA text.
    let (cuda, rust) = sources_for(&presets::csr_scalar());
    assert!(cuda.contains("origin_rows") && cuda.contains("Model-Driven Format Compression"));
    assert!(rust.contains("origin_rows") && rust.contains("closed form"));
    // The fixture has two entries in every row: row_offsets is linear, so the
    // Rust loop computes the bounds instead of loading them.
    assert!(rust.contains("let start = 2 * row;"));
}
