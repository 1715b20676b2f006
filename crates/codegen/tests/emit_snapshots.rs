//! Snapshot tests for the CUDA-like source emitter.
//!
//! The emitted CUDA-like source is the user-facing artifact: its exact shape
//! is part of the contract ("output is code").  These tests pin the full
//! text for a small deterministic matrix, so any change to the emitter is a
//! conscious, reviewed diff of the checked-in snapshot instead of a silent
//! drift.
//!
//! To regenerate after an intentional emitter change:
//! `UPDATE_SNAPSHOTS=1 cargo test -p alpha-codegen --test emit_snapshots`

use alpha_codegen::{generate, GeneratorOptions};
use alpha_graph::presets;
use alpha_matrix::{CooMatrix, CsrMatrix};
use std::path::PathBuf;

/// A fixed 8x8 matrix with two entries per row — fully deterministic, and
/// regular enough that Model-Driven Format Compression fires (the source
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

fn source_for(graph: &alpha_graph::OperatorGraph) -> String {
    generate(graph, &fixture(), GeneratorOptions::default())
        .unwrap()
        .source()
}

#[test]
fn csr_scalar_cuda_snapshot() {
    assert_snapshot("csr_scalar_cuda.txt", &source_for(&presets::csr_scalar()));
}

#[test]
fn nnz_split_cuda_snapshot() {
    assert_snapshot("csr5_like_cuda.txt", &source_for(&presets::csr5_like(4)));
}

#[test]
fn compressed_arrays_are_documented_not_loaded() {
    // The fixture has two entries in every row: row_offsets is linear, so the
    // kernel computes the row bounds instead of loading them.
    let cuda = source_for(&presets::csr_scalar());
    assert!(cuda.contains("origin_rows") && cuda.contains("Model-Driven Format Compression"));
    assert!(cuda.contains(
        "row_offsets eliminated by Model-Driven Format Compression: value(i) = 0 + 2 * i"
    ));
    assert!(!cuda.contains("load row_offsets"));
}
