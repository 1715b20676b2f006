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
//!
//! A hash is good enough to share a *timing*, never to skip a
//! *verification*: two different programs may collide.  So the same list is
//! also kept as a [`Program`] record — the sub-matrices by allocation,
//! everything else by value — and a kernel that [`Program::is`] a verified
//! one is exactly that program, compared, not hashed.  The Designer hands
//! every candidate on one conversion the same allocation (content-equal
//! conversions included), which is what makes that comparison hit.

use super::{IndexFn, NativeKernel, NativePartition, PartitionExec};
use crate::specialized::{KernelShape, PrefetchClass};
use alpha_matrix::{ContentHasher, CsrMatrix};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Weak};

/// What a [`NativeKernel`] executes, as a comparable value: a 64-bit hash
/// of everything a run reads (see [`NativeKernel::identity`]).  Valid within
/// one process; never stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelIdentity(u64);

/// What the identity hashes of one partition, and in which order.
fn partition(hash: &mut ContentHasher, p: &NativePartition) {
    // The sub-matrix by its memoised fingerprint: the conversions a tune's
    // candidates share (one `Arc<CsrMatrix>` each) are streamed once.
    hash.word(p.matrix.fingerprint());
    hash.write_usize(p.col_offset);
    p.shape.hash(hash);
    hash.write_usize(prefetch_read(p));
    index_fn(hash, &p.origin);
    match &p.exec {
        // The worker cuts follow from the sub-matrix row offsets above.
        PartitionExec::Rows { row_offsets, .. } => index_fn(hash, row_offsets),
        PartitionExec::Nnz {
            nnz_per_thread,
            row_starts,
            ..
        } => {
            hash.write_usize(*nnz_per_thread);
            index_fn(hash, row_starts);
        }
    }
}

/// The prefetch distance `p`'s loop reads: a loop without prefetch
/// instructions never reads it.
fn prefetch_read(p: &NativePartition) -> usize {
    match p.shape.prefetch {
        PrefetchClass::Stream => p.simd.prefetch,
        PrefetchClass::None => 0,
    }
}

fn index_fn(hash: &mut ContentHasher, f: &IndexFn) {
    match f {
        IndexFn::Identity => hash.write_u8(0),
        IndexFn::Affine { base, slope } => {
            hash.write_u8(1);
            hash.write_i64(*base);
            hash.write_i64(*slope);
        }
        // The loops read a materialised model exactly as they read a
        // stored table; which of the two it is, the shape says.
        IndexFn::Model(table) | IndexFn::Table(table) => {
            hash.write_u8(2);
            hash.stream(table, |v| v);
        }
    }
}

impl NativeKernel {
    /// The identity of what this kernel executes: equal for two kernels that
    /// run the same streams through the same loops under the same work
    /// split, whatever graphs they were lowered from — so their `y` is
    /// bitwise equal at every worker count and one timing serves both.
    /// Covers, per partition, the sub-matrix streams (row offsets, column
    /// indices, value bits), the column offset, the bound
    /// [`KernelShape`], the prefetch distance its loop
    /// uses, the `origin` map and the work-split state; labels, format
    /// accounting and the telemetry handle are not part of it.  Each
    /// sub-matrix enters by its memoised
    /// [`fingerprint`](alpha_matrix::CsrMatrix::fingerprint) — one
    /// memory-speed pass per distinct conversion, not per kernel.
    pub fn identity(&self) -> KernelIdentity {
        let mut hash = ContentHasher::new();
        hash.write_usize(self.rows);
        hash.write_usize(self.cols);
        hash.write_usize(self.nnz);
        hash.write_usize(self.partitions.len());
        for p in &self.partitions {
            partition(&mut hash, p);
        }
        KernelIdentity(hash.finish())
    }
}

/// What a run of a kernel on some worker count reads, kept to recognise that
/// very program again: the [`NativeKernel::identity`] list, compared instead
/// of hashed.
pub(crate) struct Program {
    rows: usize,
    cols: usize,
    nnz: usize,
    workers: usize,
    partitions: Vec<ProgramPartition>,
}

struct ProgramPartition {
    /// The sub-matrix by its allocation.  Weak, so the record holds no
    /// stream; yet while it lives the address cannot be reused, and the
    /// value behind it cannot change (an `Arc` with a weak reference is
    /// never handed out mutably).
    matrix: Weak<CsrMatrix>,
    col_offset: usize,
    shape: KernelShape,
    prefetch: usize,
    origin: IndexFn,
    exec: PartitionExec,
}

/// True when two partitions' loops read the same work-split state — what
/// [`partition`] hashes of it: the loop pointers follow from the shape, the
/// worker cuts from the sub-matrix.
fn same_split(a: &PartitionExec, b: &PartitionExec) -> bool {
    match (a, b) {
        (
            PartitionExec::Rows { row_offsets, .. },
            PartitionExec::Rows {
                row_offsets: other, ..
            },
        ) => row_offsets == other,
        (
            PartitionExec::Nnz {
                nnz_per_thread,
                row_starts,
                ..
            },
            PartitionExec::Nnz {
                nnz_per_thread: other_nnz,
                row_starts: other,
                ..
            },
        ) => nnz_per_thread == other_nnz && row_starts == other,
        _ => false,
    }
}

impl Program {
    /// The record of `kernel` running on `workers` workers.
    pub(crate) fn of(kernel: &NativeKernel, workers: usize) -> Self {
        Program {
            rows: kernel.rows,
            cols: kernel.cols,
            nnz: kernel.nnz,
            workers,
            partitions: kernel
                .partitions
                .iter()
                .map(|p| ProgramPartition {
                    matrix: Arc::downgrade(&p.matrix),
                    col_offset: p.col_offset,
                    shape: p.shape,
                    prefetch: prefetch_read(p),
                    origin: p.origin.clone(),
                    exec: p.exec.clone(),
                })
                .collect(),
        }
    }

    /// False once a sub-matrix the program ran on is gone: no kernel can be
    /// this program again, and the record only pins allocations.
    pub(crate) fn is_live(&self) -> bool {
        self.partitions.iter().all(|p| p.matrix.strong_count() > 0)
    }

    /// True when `kernel` on `workers` workers runs exactly this program:
    /// the very sub-matrix allocations, and every other thing a run reads
    /// equal by value — so its `y` is bitwise this program's on any input.
    pub(crate) fn is(&self, kernel: &NativeKernel, workers: usize) -> bool {
        (self.rows, self.cols, self.nnz, self.workers)
            == (kernel.rows, kernel.cols, kernel.nnz, workers)
            && self.partitions.len() == kernel.partitions.len()
            && self
                .partitions
                .iter()
                .zip(&kernel.partitions)
                .all(|(r, p)| {
                    std::ptr::eq(r.matrix.as_ptr(), Arc::as_ptr(&p.matrix))
                        && r.col_offset == p.col_offset
                        && r.shape == p.shape
                        && r.prefetch == prefetch_read(p)
                        && r.origin == p.origin
                        && same_split(&r.exec, &p.exec)
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{Backend, ResolvedSimd};
    use alpha_codegen::{generate, GeneratedSpmv, GeneratorOptions};
    use alpha_graph::{presets, OperatorGraph, SimdLaneMapping};
    use alpha_matrix::hash::{STRIPE, STRIPES_PER_BLOCK};
    use alpha_matrix::{gen, Scalar};

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
    fn a_program_record_is_the_same_program_only_on_the_same_allocations() {
        let matrix = gen::powerlaw(700, 700, 9, 2.0, 5);
        // A sorted design: its origin map is a stored table.
        let sorted = generated(&presets::sell_like(), &matrix);
        let lower = || NativeKernel::new(sorted.kernel.metadata(), &sorted.format);
        let record = Program::of(&lower(), 2);
        // Another lowering of the same plans reads the same allocations.
        assert!(record.is(&lower(), 2));
        assert!(!record.is(&lower(), 1), "the worker count is part of it");

        // Equal content on another allocation shares the identity only.
        let fresh = lowered(&presets::sell_like(), &matrix);
        assert_eq!(fresh.identity(), lower().identity());
        assert!(!record.is(&fresh, 2));

        // Everything the identity hashes, the record compares.
        let differs = |what: &str, edit: &dyn Fn(&mut NativeKernel)| {
            let mut twin = lower();
            edit(&mut twin);
            assert!(!record.is(&twin, 2), "{what} must not be the same program");
        };
        differs("a copied sub-matrix", &|k| {
            let p = &mut k.partitions[0];
            p.matrix = Arc::new((*p.matrix).clone());
        });
        differs("an origin entry", &|k| {
            let IndexFn::Table(origin) = &mut k.partitions[0].origin else {
                panic!("a sorted design stores its origin map");
            };
            origin.swap(0, 1);
        });
        differs("the column offset", &|k| k.partitions[0].col_offset += 1);
        differs("the output length", &|k| k.rows += 1);
        differs("the bound loop", &|k| {
            k.partitions[0].bind(nnz_lanes(4, 0)).unwrap()
        });
        let mut vector = lower();
        vector.partitions[0].bind(nnz_lanes(8, 16)).unwrap();
        let record = Program::of(&vector, 2);
        vector.partitions[0].bind(nnz_lanes(8, 64)).unwrap();
        assert!(
            !record.is(&vector, 2),
            "the prefetch distance of a vector loop"
        );

        // The work split of an nnz partition.
        let split = generated(&presets::csr5_like(64), &matrix);
        let lower = || NativeKernel::new(split.kernel.metadata(), &split.format);
        let record = Program::of(&lower(), 2);
        let mut twin = lower();
        let PartitionExec::Nnz { nnz_per_thread, .. } = &mut twin.partitions[0].exec else {
            panic!("csr5_like lowers to an nnz partition");
        };
        *nnz_per_thread += 1;
        assert!(!record.is(&twin, 2));
        assert!(record.is(&lower(), 2));

        // The record pins no stream: once the conversion is gone, so is the
        // program.
        assert!(record.is_live());
        drop((twin, split));
        assert!(!record.is_live());
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
