//! What a [`NativeKernel`] executes, as a record: [`Program`].
//!
//! The operator graph describes a GPU program: thread-block size, rows per
//! block, warp or shared-memory reduction style are all graph coordinates
//! that lowering never reads.  Many graphs therefore lower to one and the
//! same CPU kernel, and a verification or a wall-clock measurement belongs to
//! that kernel, not to the graph.  A [`Program`] records everything a run
//! reads, and nothing it does not — the sub-matrices by allocation,
//! everything else by value — so a design and its GPU-only variants are one
//! program, and one verification and one timing serve them all (see
//! [`NativeEvaluator`](crate::NativeEvaluator)).  The
//! [`Designer`](alpha_graph::Designer) of a search hands every candidate on
//! one conversion the same allocation (content-equal conversions included),
//! which is what makes that comparison hit.

use super::{IndexFn, NativeKernel, PartitionExec};
use crate::specialized::KernelShape;
use alpha_matrix::CsrMatrix;
use std::sync::{Arc, Weak};

/// What a run of a [`NativeKernel`] on some worker count reads, kept to
/// recognise that very program again.  Per partition: the sub-matrix
/// allocation, the column offset, the bound [`KernelShape`], the `origin`
/// map and the work-split state; for
/// the kernel its dimensions, non-zero count and worker count.  Labels,
/// format accounting and the telemetry handle are not part of it.
pub struct Program {
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
    origin: IndexFn,
    exec: PartitionExec,
}

/// True when two partitions' loops read the same work-split state: the loop
/// pointers follow from the shape, the worker cuts from the sub-matrix.
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
    pub fn of(kernel: &NativeKernel, workers: usize) -> Self {
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
    pub fn is(&self, kernel: &NativeKernel, workers: usize) -> bool {
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
                        && r.origin == p.origin
                        && same_split(&r.exec, &p.exec)
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{Backend, ResolvedSimd};
    use alpha_codegen::{generate, generate_with, GeneratedSpmv, GeneratorOptions};
    use alpha_graph::{presets, Designer, OperatorGraph, SimdLaneMapping};
    use alpha_matrix::gen;

    fn generated(graph: &OperatorGraph, matrix: &CsrMatrix) -> GeneratedSpmv {
        generate(graph, matrix, GeneratorOptions::default()).expect("generation succeeds")
    }

    fn lowered(generated: &GeneratedSpmv) -> NativeKernel {
        NativeKernel::new(generated.kernel.metadata(), &generated.format)
    }

    /// Portable nnz lanes: bound directly, so the env override that pins
    /// `resolve` scalar does not empty these tests.
    fn nnz_lanes(lanes: usize) -> ResolvedSimd {
        ResolvedSimd {
            lanes,
            mapping: SimdLaneMapping::Nnz,
            backend: Backend::Portable,
        }
    }

    #[test]
    fn lowering_the_same_design_twice_reproduces_the_identity() {
        let matrix = gen::powerlaw(700, 700, 9, 2.0, 5);
        for (name, graph) in presets::all_presets() {
            let generated = generated(&graph, &matrix);
            let record = Program::of(&lowered(&generated), 2);
            assert!(record.is(&lowered(&generated), 2), "{name}");
            // What a run does not read is not part of it.
            assert!(
                record.is(&lowered(&generated).without_telemetry(), 2),
                "{name}"
            );
        }
    }

    #[test]
    fn gpu_only_coordinates_of_the_graph_do_not_reach_the_identity() {
        // Thread-block size, rows per thread block, reduction style: the
        // native lowering reads none of them.
        let matrix = gen::powerlaw(700, 700, 9, 2.0, 5);
        let designer = Designer::new(&matrix);
        let through = |graph: &OperatorGraph| {
            lowered(&generate_with(&designer, graph, GeneratorOptions::default()).unwrap())
        };
        let base = Program::of(&through(&presets::csr_scalar()), 1);
        for graph in crate::eval::tests::gpu_only_variants() {
            assert!(base.is(&through(&graph), 1), "{graph:?}");
        }
        // A different format is a different kernel.
        assert!(!base.is(&through(&presets::sell_like()), 1));
        assert!(!base.is(&through(&presets::csr5_like(64)), 1));
    }

    #[test]
    fn everything_a_run_reads_reaches_the_identity() {
        let matrix = gen::powerlaw(700, 700, 9, 2.0, 5);
        // A sorted design: its origin map is a stored table.
        let sorted = generated(&presets::sell_like(), &matrix);
        let record = Program::of(&lowered(&sorted), 2);
        let differs = |what: &str, edit: &dyn Fn(&mut NativeKernel)| {
            let mut twin = lowered(&sorted);
            assert!(record.is(&twin, 2));
            edit(&mut twin);
            assert!(!record.is(&twin, 2), "{what} must not be the same program");
        };
        // Equal streams on another allocation: a value edit, a column edit
        // or a reordered stream is always one, so this covers them all.
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
            k.partitions[0].bind(nnz_lanes(4)).unwrap()
        });
        assert!(!record.is(&lowered(&sorted), 1), "the worker count");

        // The lane count of a vector loop.
        let mut vector = lowered(&sorted);
        vector.partitions[0].bind(nnz_lanes(8)).unwrap();
        let record = Program::of(&vector, 2);
        vector.partitions[0].bind(nnz_lanes(4)).unwrap();
        assert!(!record.is(&vector, 2), "x4 is not x8");
        vector.partitions[0].bind(nnz_lanes(8)).unwrap();
        assert!(record.is(&vector, 2));

        // The work split of an nnz partition.
        let split = generated(&presets::csr5_like(64), &matrix);
        let record = Program::of(&lowered(&split), 2);
        let mut twin = lowered(&split);
        let PartitionExec::Nnz { nnz_per_thread, .. } = &mut twin.partitions[0].exec else {
            panic!("csr5_like lowers to an nnz partition");
        };
        *nnz_per_thread += 1;
        assert!(!record.is(&twin, 2));
    }

    #[test]
    fn a_program_record_is_the_same_program_only_on_the_same_allocations() {
        let matrix = gen::powerlaw(700, 700, 9, 2.0, 5);
        let sorted = generated(&presets::sell_like(), &matrix);
        let record = Program::of(&lowered(&sorted), 2);
        // Another lowering of the same plans reads the same allocations;
        // a fresh design of the same graph converts into its own.
        assert!(record.is(&lowered(&sorted), 2));
        let fresh = generated(&presets::sell_like(), &matrix);
        assert!(!record.is(&lowered(&fresh), 2));

        // The record pins no stream: once the conversion is gone, so is the
        // program.
        assert!(record.is_live());
        drop(sorted);
        assert!(!record.is_live());
    }

    #[test]
    fn a_row_lane_plan_on_an_nnz_partition_is_the_scalar_program() {
        // Row lanes on an nnz partition run scalar: the plan's lanes ride
        // along unread.
        let matrix = gen::uniform_random(600, 600, 8, 3);
        let split = generated(&presets::csr5_like(64), &matrix);
        let mut kernel = lowered(&split);
        let record = Program::of(&kernel, 1);
        kernel.partitions[0]
            .bind(ResolvedSimd {
                mapping: SimdLaneMapping::Rows,
                ..nnz_lanes(4)
            })
            .unwrap();
        assert!(kernel.partitions[0].shape.label().ends_with(":scalar"));
        assert!(record.is(&kernel, 1));
    }
}
