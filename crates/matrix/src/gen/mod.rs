//! Synthetic sparse-matrix generators.
//!
//! The paper evaluates on 843 matrices from the SuiteSparse Matrix Collection;
//! this workspace has no access to that collection, so these generators stand
//! in for it (see DESIGN.md, substitution table).  Each generator controls the
//! axes along which the paper slices its results — matrix size, average row
//! length and row-length variance — so the evaluation harness can sweep the
//! same parameter space.
//!
//! All generators are deterministic given their `seed` argument.

mod banded;
mod block;
mod powerlaw;
mod random;
mod rmat;
pub mod rng;

pub use banded::{banded, fem_stencil_2d};
pub use block::{block_diagonal, dense_row_blocks};
pub use powerlaw::{powerlaw, scale_free};
pub use random::{uniform_random, uniform_random_variance};
pub use rmat::rmat;

use crate::csr::CsrMatrix;

/// The sparsity-pattern families the corpus generator can draw from.  The
/// families map onto the application domains the paper cites (FEM / circuit /
/// graph / optimisation / power-network matrices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternFamily {
    /// Uniformly random positions, near-constant row lengths (regular).
    UniformRandom,
    /// Power-law distributed row lengths (scale-free graphs; highly irregular).
    PowerLaw,
    /// Narrow band around the diagonal (stencil / FEM-like; very regular).
    Banded,
    /// Dense square blocks on the diagonal (multi-physics / block-structured).
    BlockDiagonal,
    /// Recursive-matrix (RMAT) graphs with community structure (irregular).
    Rmat,
}

impl PatternFamily {
    /// All families, in a stable order (used by the corpus sweep).
    pub const ALL: [PatternFamily; 5] = [
        PatternFamily::UniformRandom,
        PatternFamily::PowerLaw,
        PatternFamily::Banded,
        PatternFamily::BlockDiagonal,
        PatternFamily::Rmat,
    ];

    /// Generates a matrix of roughly `rows x rows` with about
    /// `rows * avg_row_len` non-zeros from this family.
    pub fn generate(self, rows: usize, avg_row_len: usize, seed: u64) -> CsrMatrix {
        match self {
            PatternFamily::UniformRandom => uniform_random(rows, rows, avg_row_len, seed),
            PatternFamily::PowerLaw => powerlaw(rows, rows, avg_row_len, 2.1, seed),
            PatternFamily::Banded => banded(rows, (avg_row_len / 2).max(1), seed),
            PatternFamily::BlockDiagonal => block_diagonal(rows, avg_row_len.clamp(2, 64), seed),
            PatternFamily::Rmat => rmat(rows, rows.saturating_mul(avg_row_len), seed),
        }
    }

    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            PatternFamily::UniformRandom => "uniform",
            PatternFamily::PowerLaw => "powerlaw",
            PatternFamily::Banded => "banded",
            PatternFamily::BlockDiagonal => "block",
            PatternFamily::Rmat => "rmat",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MatrixStats;

    #[test]
    fn families_generate_nonempty_matrices() {
        for family in PatternFamily::ALL {
            let m = family.generate(256, 8, 3);
            assert!(m.nnz() > 0, "{} produced an empty matrix", family.name());
            assert_eq!(m.rows(), 256);
        }
    }

    #[test]
    fn powerlaw_is_more_irregular_than_uniform() {
        let uniform = PatternFamily::UniformRandom.generate(2_000, 16, 11);
        let pl = PatternFamily::PowerLaw.generate(2_000, 16, 11);
        let su = MatrixStats::from_csr(&uniform);
        let sp = MatrixStats::from_csr(&pl);
        assert!(sp.row_len_variance > su.row_len_variance);
    }

    #[test]
    fn generation_is_deterministic() {
        for family in PatternFamily::ALL {
            let a = family.generate(128, 6, 5);
            let b = family.generate(128, 6, 5);
            assert_eq!(a, b, "{} is not deterministic", family.name());
        }
    }

    #[test]
    fn every_generator_is_bitwise_pinned() {
        // BLAKE2b-256 digests of every generator's output: the corpus, the
        // tunes and the reproduced figures all start here, so a change to
        // how a matrix is built must leave these bits alone.  At the larger
        // shape powerlaw has rows of more than 64 entries and every rmat
        // row is pushed unsorted (its self-loop first).
        let hex =
            |m: &CsrMatrix| -> String { m.digest().iter().map(|b| format!("{b:02x}")).collect() };
        let mut cases: Vec<(String, CsrMatrix)> = Vec::new();
        for family in PatternFamily::ALL {
            for (rows, avg_row_len, seed) in [(256, 8, 3), (2_048, 24, 7)] {
                let name = format!("{}({rows},{avg_row_len},{seed})", family.name());
                cases.push((name, family.generate(rows, avg_row_len, seed)));
            }
        }
        cases.push(("scale_free".into(), scale_free(1_024, 1_024, 12, 5)));
        cases.push(("fem_stencil_2d".into(), fem_stencil_2d(40, 5)));
        cases.push((
            "dense_row_blocks".into(),
            dense_row_blocks(1_024, 6, 300, 5),
        ));
        cases.push((
            "uniform_random_variance".into(),
            uniform_random_variance(512, 1_024, 48, 40, 5),
        ));
        let pinned = [
            "9f81da199d6358de4bbea918955817f39268ef5f6c3de0de563fb593aba54e83",
            "18ae879a8a7f2ce8096e7dc0dcbd43bf2746dec99c717917fd43e81acecd088b",
            "fa116d56487c849c30df66dc239bfdd150b87eb3d16c5a1c16fa78ac850121dc",
            "04d6370c77413e373281d92edebb120821a8dcecd09ac4e3ac024bfcc6e12f58",
            "98476230c600028f8634fcbe61b5b90f6f0736409ba06d1380a8033af43f7220",
            "feff3b64ebb15343fcb623d06e8d1ed905c26b5c270d4e713e87849fdce77f1a",
            "91c8bbd556d733d81bc911a2e9bb63ed1ce0a26dcd07ca9bda913e2e53285ac9",
            "7d564e3cde0624e354f8be94a3c2e6aba9f78ee4752e5570a9b7152152c68b9f",
            "57ac481d7bd38d9aca5d4f33371fc987862ad2c482662b4d93174be726e3ca3e",
            "a8790ed115535fb03a01ab31632064bc7338aa42da68258fee2c4172bccd2f39",
            "09aef7d16bf277974407c2a54168a3e7e2cdc0eb42d4596bb6a6d276a13962d4",
            "73795b04019a8b5f27696d471e9bd082b82b28028bf22de5a184a4db04ecde12",
            "4bbbec3c379d5dca9892eb0745de385d6a772b0d4e66a44760cd09aa13f6aae4",
            "552ab6724ba22b324c38f4e254930489348d60a3e2d806b3cf8c5a6041f8e56e",
        ];
        assert_eq!(cases.len(), pinned.len());
        let long_rows = &cases[3]; // powerlaw at the larger shape
        assert!(long_rows.1.max_row_len() > 64, "{}", long_rows.0);
        for ((name, matrix), digest) in cases.iter().zip(pinned) {
            assert_eq!(hex(matrix), digest, "{name}");
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = PatternFamily::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PatternFamily::ALL.len());
    }
}
