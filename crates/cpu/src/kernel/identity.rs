//! The identity of what a [`NativeKernel`] executes.
//!
//! The operator graph describes a GPU program: thread-block size, rows per
//! block, warp or shared-memory reduction style are all graph coordinates
//! that lowering never reads.  Many graphs therefore lower to one and the
//! same CPU kernel, and a wall-clock measurement belongs to that kernel, not
//! to the graph.  [`NativeKernel::identity`] names the kernel by hashing
//! everything a run reads, and nothing it does not, so a design and its
//! GPU-only variants compare equal and one timing serves them all (see
//! [`NativeEvaluator`](crate::NativeEvaluator)).

use super::{IndexFn, NativeKernel, NativePartition, PartitionExec};
use crate::specialized::PrefetchClass;
use alpha_matrix::Scalar;
use std::hash::{Hash, Hasher};

/// What a [`NativeKernel`] executes, as a comparable value: a 64-bit hash
/// of everything a run reads (see [`NativeKernel::identity`]).  Valid within
/// one process; never stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelIdentity(u64);

/// Independent accumulators a stream is striped over.  A stripe adds to each
/// of them without reading any other, so the pass vectorizes and runs at the
/// speed the streams arrive from memory: about 0.15 ms for the 2 MB of a
/// 262 k-non-zero kernel, where a byte-serial FNV takes 2-3 ms.
const LANES: usize = 8;

/// Stream elements one stripe consumes: two 32-bit elements per lane word.
const STRIPE: usize = 2 * LANES;

/// Stripes between two scrambles of the accumulators.
const STRIPES_PER_BLOCK: usize = 16;

/// One key per lane and stripe of a block (SplitMix64 outputs).  Keys make
/// the products position-dependent inside a block; the scramble after each
/// block makes the blocks' order matter.
static KEYS: [[u64; LANES]; STRIPES_PER_BLOCK] = {
    let mut keys = [[0; LANES]; STRIPES_PER_BLOCK];
    let mut state: u64 = 0x243F_6A88_85A3_08D3;
    let mut stripe = 0;
    while stripe < STRIPES_PER_BLOCK {
        let mut lane = 0;
        while lane < LANES {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            keys[stripe][lane] = z ^ (z >> 31);
            lane += 1;
        }
        stripe += 1;
    }
    keys
};

/// Folds `word` into `state`: a 64×64→128-bit multiply whose halves are
/// xored, so every input bit reaches the low and the high bits of the next
/// state (a plain wrapping multiply only carries differences upwards).
#[inline(always)]
fn fold(state: u64, word: u64) -> u64 {
    let product = u128::from(state ^ word) * 0x9E37_79B9_7F4A_7C15_u128;
    product as u64 ^ (product >> 64) as u64
}

/// The striped hash.  Scalars and small `Hash` values are folded into lane 0
/// one word at a time (the [`Hasher`] impl); streams go through
/// [`Striped::stream`].
struct Striped {
    lanes: [u64; LANES],
}

impl Striped {
    fn new() -> Self {
        Striped { lanes: KEYS[0] }
    }

    /// Absorbs a whole stream of 32-bit elements, length first (two streams
    /// never run into each other).  Each lane word `d` of a stripe adds
    /// `lo(d ^ key) * hi(d ^ key)` to its own lane and `d` itself to the
    /// neighbouring one — the accumulate step of XXH3, whose 32×32→64-bit
    /// products exist as vector instructions down to SSE2 — and every block
    /// of stripes ends with a [`fold`] of each lane.
    fn stream<T: Copy>(&mut self, data: &[T], bits: impl Fn(T) -> u32) {
        self.write_usize(data.len());
        for block in data.chunks(STRIPE * STRIPES_PER_BLOCK) {
            let mut stripes = block.chunks_exact(STRIPE);
            for (stripe, keys) in (&mut stripes).zip(&KEYS) {
                let mut words = [0u64; LANES];
                for (word, pair) in words.iter_mut().zip(stripe.chunks_exact(2)) {
                    *word = u64::from(bits(pair[0])) | u64::from(bits(pair[1])) << 32;
                }
                for lane in 0..LANES {
                    let keyed = words[lane] ^ keys[lane];
                    self.lanes[lane] = self.lanes[lane]
                        .wrapping_add((keyed & 0xFFFF_FFFF) * (keyed >> 32))
                        .wrapping_add(words[lane ^ 1]);
                }
            }
            // Fewer elements than a stripe: the tail of the last block.
            for &element in stripes.remainder() {
                self.write_u32(bits(element));
            }
            for lane in &mut self.lanes {
                *lane = fold(*lane, 0);
            }
        }
    }

    fn index_fn(&mut self, f: &IndexFn) {
        match f {
            IndexFn::Identity => self.write_u8(0),
            IndexFn::Affine { base, slope } => {
                self.write_u8(1);
                self.write_i64(*base);
                self.write_i64(*slope);
            }
            // The loops read a materialised model exactly as they read a
            // stored table; which of the two it is, the shape says.
            IndexFn::Model(table) | IndexFn::Table(table) => {
                self.write_u8(2);
                self.stream(table, |v| v);
            }
        }
    }

    fn partition(&mut self, p: &NativePartition) {
        let matrix = &p.matrix;
        self.write_usize(matrix.rows());
        self.write_usize(matrix.cols());
        self.stream(matrix.row_offsets(), |v| v);
        self.stream(matrix.col_indices(), |v| v);
        self.stream(matrix.values(), Scalar::to_bits);
        self.write_usize(p.col_offset);
        p.shape.hash(self);
        // A loop without prefetch instructions never reads the distance.
        self.write_usize(match p.shape.prefetch {
            PrefetchClass::Stream => p.simd.prefetch,
            PrefetchClass::None => 0,
        });
        self.index_fn(&p.origin);
        match &p.exec {
            // The worker cuts follow from the sub-matrix row offsets above.
            PartitionExec::Rows { row_offsets, .. } => self.index_fn(row_offsets),
            PartitionExec::Nnz {
                nnz_per_thread,
                row_starts,
                ..
            } => {
                self.write_usize(*nnz_per_thread);
                self.index_fn(row_starts);
            }
        }
    }
}

impl Hasher for Striped {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.lanes[0] = fold(self.lanes[0], u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.lanes
            .iter()
            .fold(LANES as u64, |acc, &lane| fold(acc, lane))
    }
}

impl NativeKernel {
    /// The identity of what this kernel executes: equal for two kernels that
    /// run the same streams through the same loops under the same work
    /// split, whatever graphs they were lowered from — so their `y` is
    /// bitwise equal at every worker count and one timing serves both.
    /// Covers, per partition, the sub-matrix streams (row offsets, column
    /// indices, value bits), the column offset, the bound
    /// [`KernelShape`](crate::KernelShape), the prefetch distance its loop
    /// uses, the `origin` map and the work-split state; labels, format
    /// accounting and the telemetry handle are not part of it.  One pass
    /// over the kernel's streams, at the speed they arrive from memory.
    pub fn identity(&self) -> KernelIdentity {
        let mut hash = Striped::new();
        hash.write_usize(self.rows);
        hash.write_usize(self.cols);
        hash.write_usize(self.nnz);
        hash.write_usize(self.partitions.len());
        for partition in &self.partitions {
            hash.partition(partition);
        }
        KernelIdentity(hash.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{Backend, ResolvedSimd};
    use alpha_codegen::{generate, GeneratedSpmv, GeneratorOptions};
    use alpha_graph::{presets, OperatorGraph, SimdLaneMapping};
    use alpha_matrix::{gen, CsrMatrix};

    fn generated(graph: &OperatorGraph, matrix: &CsrMatrix) -> GeneratedSpmv {
        generate(graph, matrix, GeneratorOptions::default()).expect("generation succeeds")
    }

    fn lowered(graph: &OperatorGraph, matrix: &CsrMatrix) -> NativeKernel {
        let generated = generated(graph, matrix);
        NativeKernel::new(generated.kernel.metadata(), &generated.format)
    }

    /// Portable nnz lanes: bound directly, so the env override that pins
    /// `resolve` scalar does not empty these tests.
    fn nnz_lanes(lanes: usize, prefetch: usize) -> ResolvedSimd {
        ResolvedSimd {
            lanes,
            mapping: SimdLaneMapping::Nnz,
            prefetch,
            backend: Backend::Portable,
        }
    }

    /// The sub-matrix of `p` with `edit` applied to its streams.
    fn edited(
        p: &NativePartition,
        edit: impl FnOnce(&mut Vec<u32>, &mut Vec<Scalar>),
    ) -> CsrMatrix {
        let m = &p.matrix;
        let (mut cols, mut values) = (m.col_indices().to_vec(), m.values().to_vec());
        edit(&mut cols, &mut values);
        CsrMatrix::from_raw(m.rows(), m.cols(), m.row_offsets().to_vec(), cols, values)
            .expect("edited streams stay a matrix")
    }

    #[test]
    fn lowering_the_same_design_twice_reproduces_the_identity() {
        let matrix = gen::powerlaw(700, 700, 9, 2.0, 5);
        for (name, graph) in presets::all_presets() {
            let generated = generated(&graph, &matrix);
            let (metadata, format) = (generated.kernel.metadata(), &generated.format);
            assert_eq!(
                NativeKernel::new(metadata, format).identity(),
                NativeKernel::new(metadata, format).identity(),
                "{name}"
            );
            // What a run does not read is not part of it.
            assert_eq!(
                NativeKernel::new(metadata, format).identity(),
                NativeKernel::new(metadata, format)
                    .without_telemetry()
                    .identity(),
                "{name}"
            );
        }
    }

    #[test]
    fn gpu_only_coordinates_of_the_graph_do_not_reach_the_identity() {
        // Thread-block size, rows per thread block, reduction style: the
        // native lowering reads none of them.
        let matrix = gen::powerlaw(700, 700, 9, 2.0, 5);
        let base = lowered(&presets::csr_scalar(), &matrix).identity();
        for graph in crate::eval::tests::gpu_only_variants() {
            assert_eq!(lowered(&graph, &matrix).identity(), base, "{graph:?}");
        }
        // A different format is a different kernel.
        assert_ne!(lowered(&presets::sell_like(), &matrix).identity(), base);
        assert_ne!(lowered(&presets::csr5_like(64), &matrix).identity(), base);
    }

    #[test]
    fn everything_a_run_reads_reaches_the_identity() {
        let matrix = gen::powerlaw(700, 700, 9, 2.0, 5);
        // A sorted design: its origin map is a stored table.
        let kernel = lowered(&presets::sell_like(), &matrix);
        let base = kernel.identity();
        let changed = |what: &str, edit: &dyn Fn(&mut NativeKernel)| {
            let mut twin = lowered(&presets::sell_like(), &matrix);
            assert_eq!(twin.identity(), base);
            edit(&mut twin);
            assert_ne!(twin.identity(), base, "{what} must change the identity");
        };
        // One bit of one value, in the striped part and in the tail.
        let nnz = kernel.partitions[0].matrix.nnz();
        assert!(!nnz.is_multiple_of(STRIPE) && nnz > STRIPE * STRIPES_PER_BLOCK);
        for at in [3, STRIPE * STRIPES_PER_BLOCK + 5, nnz - 1] {
            changed("a value bit", &|k| {
                let p = &mut k.partitions[0];
                p.matrix = edited(p, |_, values| {
                    values[at] = Scalar::from_bits(values[at].to_bits() ^ 1)
                })
                .into();
            });
            changed("a column index", &|k| {
                let p = &mut k.partitions[0];
                p.matrix = edited(p, |cols, _| cols[at] = (cols[at] + 1) % 700).into();
            });
        }
        // Two equal-length rows trading places leave every length and every
        // sum alone; only the order of the stream says so.
        changed("the order of the stream", &|k| {
            let p = &mut k.partitions[0];
            p.matrix = edited(p, |cols, values| {
                cols.swap(0, STRIPE);
                values.swap(0, STRIPE);
            })
            .into();
            assert_ne!(p.matrix.col_indices()[0], p.matrix.col_indices()[STRIPE]);
        });
        changed("an origin entry", &|k| {
            let IndexFn::Table(origin) = &mut k.partitions[0].origin else {
                panic!("a sorted design stores its origin map");
            };
            origin.swap(0, 1);
        });
        changed("the column offset", &|k| k.partitions[0].col_offset += 1);
        changed("the output length", &|k| k.rows += 1);
        changed("the bound loop", &|k| {
            k.partitions[0].bind(nnz_lanes(4, 0)).unwrap()
        });

        // Lane count and prefetch distance of a vector loop.
        let mut vector = lowered(&presets::sell_like(), &matrix);
        vector.partitions[0].bind(nnz_lanes(8, 16)).unwrap();
        let mut twin = lowered(&presets::sell_like(), &matrix);
        for (lanes, prefetch) in [(4, 16), (8, 64), (8, 0)] {
            twin.partitions[0].bind(nnz_lanes(lanes, prefetch)).unwrap();
            assert_ne!(twin.identity(), vector.identity(), "x{lanes}+pf{prefetch}");
        }
        twin.partitions[0].bind(nnz_lanes(8, 16)).unwrap();
        assert_eq!(twin.identity(), vector.identity());

        // The work split of an nnz partition.
        let split =
            |nnz_per_thread| lowered(&presets::csr5_like(nnz_per_thread), &matrix).identity();
        assert_eq!(split(64), split(64));
        assert_ne!(split(64), split(32));
        let mut twin = lowered(&presets::csr5_like(64), &matrix);
        let PartitionExec::Nnz { nnz_per_thread, .. } = &mut twin.partitions[0].exec else {
            panic!("csr5_like lowers to an nnz partition");
        };
        *nnz_per_thread += 1;
        assert_ne!(twin.identity(), split(64));
    }

    #[test]
    fn a_scalar_loop_never_reads_the_prefetch_distance() {
        // Row lanes on an nnz partition run scalar, and so does any plan
        // under the env override: the distance rides along unread.
        let matrix = gen::uniform_random(600, 600, 8, 3);
        let mut kernel = lowered(&presets::csr5_like(64), &matrix);
        let base = kernel.identity();
        kernel.partitions[0]
            .bind(ResolvedSimd {
                mapping: SimdLaneMapping::Rows,
                ..nnz_lanes(4, 32)
            })
            .unwrap();
        assert!(kernel.partitions[0].shape.label().ends_with(":scalar"));
        assert_eq!(kernel.identity(), base);
    }
}
