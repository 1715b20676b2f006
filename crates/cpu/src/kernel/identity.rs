//! What a [`NativeKernel`] executes, as a record, twice over:
//! [`PlannedProgram`] read off the designed plans, and [`Program`] read off
//! the lowered kernel.
//!
//! The operator graph describes a GPU program: thread-block size, rows per
//! block, warp or shared-memory reduction style are all graph coordinates
//! that lowering never reads.  Many graphs therefore lower to one and the
//! same CPU kernel, and a verification or a wall-clock measurement belongs to
//! that kernel, not to the graph.  Both records hold everything a run reads,
//! and nothing it does not, so a design and its GPU-only variants are one
//! program, and one verification and one timing serve them all (see
//! [`NativeEvaluator`](crate::NativeEvaluator)).
//!
//! Both compare by value.  Within one [`Designer`](alpha_graph::Designer) a
//! converted piece is a function of its `origin_rows` and its column band
//! (first column and width), so those values name the sub-matrix; no record
//! holds or compares a stream allocation, and a conversion the Designer
//! rebuilt after evicting it is the program it was.  Records compare only
//! plans and kernels of one Designer ([`Designer::id`](alpha_graph::Designer::id)):
//! another matrix's equal `origin_rows` are other rows.
//!
//! A [`PlannedProgram`] is what the evaluator looks a candidate up by: the
//! plans fix everything lowering reads — the format's index maps are fitted
//! from the plan's `origin_rows` and sub-matrix under the compression
//! option, the work split from its mapping — so a candidate that is a
//! recorded program needs no format, no simulator kernel and no lowering.
//! A [`Program`] is the check of that look-up: the same record taken from
//! the lowered loops, index maps and work split themselves.

use super::{IndexFn, NativeKernel, PartitionExec};
use crate::specialized::KernelShape;
use alpha_codegen::GeneratorOptions;
use alpha_graph::{Mapping, MatrixMetadataSet, SimdPlan};
use std::sync::Arc;

/// What the designed plans of a candidate fix of the kernel they lower to,
/// kept to recognise that very program again before anything is generated.
/// Per partition: the `origin_rows` and column band (which name the
/// sub-matrix within one Designer), the work split and the [`SimdPlan`];
/// for the design the compression option and the matrix dimensions.
/// Mapping and reduction details a CPU loop does not read, padding and
/// resources are not part of it.  Records compare on one evaluator, whose
/// worker count is fixed, and within one Designer.
#[derive(PartialEq)]
pub struct PlannedProgram {
    rows: usize,
    cols: usize,
    nnz: usize,
    compressed: bool,
    partitions: Vec<PlannedPartition>,
}

#[derive(PartialEq)]
struct PlannedPartition {
    origin_rows: Arc<[u32]>,
    /// First column and width of the sub-matrix.
    band: (usize, usize),
    /// `None` for a row partition; an nnz partition's chunk size.
    nnz_per_thread: Option<usize>,
    simd: SimdPlan,
}

impl PlannedProgram {
    /// The record of the program `metadata`, generated under `options`,
    /// lowers to.
    pub fn of(metadata: &MatrixMetadataSet, options: GeneratorOptions) -> Self {
        PlannedProgram {
            rows: metadata.original_rows,
            cols: metadata.original_cols,
            nnz: metadata.original_nnz,
            compressed: options.model_compression,
            partitions: metadata
                .partitions
                .iter()
                .map(|plan| PlannedPartition {
                    origin_rows: plan.origin_rows.clone(),
                    band: (plan.col_offset, plan.matrix.cols()),
                    // Row partitions split by the sub-matrix alone.
                    nnz_per_thread: match plan.mapping {
                        Mapping::NnzSplit { nnz_per_thread } => Some(nnz_per_thread),
                        Mapping::RowPerThread { .. } | Mapping::VectorPerRow { .. } => None,
                    },
                    simd: plan.simd,
                })
                .collect(),
        }
    }

    /// True when `metadata`, designed by the Designer this record's plans
    /// came from and generated under `options`, lowers to exactly this
    /// program: everything lowering reads equal by value (`Arc`'s equality
    /// tries the pointer before the values).
    pub fn is(&self, metadata: &MatrixMetadataSet, options: GeneratorOptions) -> bool {
        *self == PlannedProgram::of(metadata, options)
    }
}

/// What a run of a [`NativeKernel`] on some worker count reads, kept to
/// recognise that very program again — the check of a [`PlannedProgram`]
/// look-up.  Per partition: the sub-matrix's dimensions and column offset,
/// the bound [`KernelShape`], the `origin` map and the work-split state;
/// for the kernel its dimensions, non-zero count and worker count.  Within
/// one Designer the `origin` map and the band name the sub-matrix.  Labels,
/// format accounting, the loop pointers (which follow from the shape), the
/// worker cuts (which follow from the sub-matrix) and the telemetry handle
/// are not part of it.
#[derive(PartialEq)]
pub struct Program {
    rows: usize,
    cols: usize,
    nnz: usize,
    workers: usize,
    partitions: Vec<ProgramPartition>,
}

#[derive(PartialEq)]
struct ProgramPartition {
    /// The sub-matrix's rows, columns and non-zeros.
    dims: (usize, usize, usize),
    col_offset: usize,
    shape: KernelShape,
    origin: IndexFn,
    /// An nnz partition's chunk size and `row_starts`, or a row
    /// partition's `row_offsets`.
    split: (Option<usize>, IndexFn),
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
                    dims: (p.matrix.rows(), p.matrix.cols(), p.matrix.nnz()),
                    col_offset: p.col_offset,
                    shape: p.shape,
                    origin: p.origin.clone(),
                    split: match &p.exec {
                        PartitionExec::Rows { row_offsets, .. } => (None, row_offsets.clone()),
                        PartitionExec::Nnz {
                            nnz_per_thread,
                            row_starts,
                            ..
                        } => (Some(*nnz_per_thread), row_starts.clone()),
                    },
                })
                .collect(),
        }
    }

    /// True when `kernel`, lowered through the Designer this record's kernel
    /// came from, runs exactly this program on `workers` workers: every
    /// thing a run reads equal by value — so its `y` is bitwise this
    /// program's on any input.
    pub fn is(&self, kernel: &NativeKernel, workers: usize) -> bool {
        *self == Program::of(kernel, workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::{Backend, ResolvedSimd};
    use alpha_codegen::{generate, generate_with, GeneratedSpmv};
    use alpha_graph::{presets, Designer, OperatorGraph, SimdLaneMapping};
    use alpha_matrix::{gen, CsrMatrix};

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
        // Within one Designer the origin map and the band name the
        // sub-matrix: a copy of it is the same program.
        let mut copy = lowered(&sorted);
        copy.partitions[0].matrix =
            Arc::new((*sorted.kernel.metadata().partitions[0].matrix).clone());
        assert!(record.is(&copy, 2));
        let differs = |what: &str, edit: &dyn Fn(&mut NativeKernel)| {
            let mut twin = lowered(&sorted);
            assert!(record.is(&twin, 2));
            edit(&mut twin);
            assert!(!record.is(&twin, 2), "{what} must not be the same program");
        };
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
    fn everything_lowering_reads_reaches_the_plan_record() {
        let matrix = gen::powerlaw(700, 700, 9, 2.0, 5);
        let options = GeneratorOptions::default();
        let split = generated(&presets::csr5_like(64), &matrix);
        let metadata = split.kernel.metadata();
        let record = PlannedProgram::of(metadata, options);
        let is_after = |edit: &dyn Fn(&mut MatrixMetadataSet)| {
            let mut twin = metadata.clone();
            edit(&mut twin);
            record.is(&twin, options)
        };
        // What a CPU loop does not read is not part of it, and neither is
        // where the streams live.
        let same = |what: &str, edit: &dyn Fn(&mut MatrixMetadataSet)| {
            assert!(is_after(edit), "{what} must not separate programs")
        };
        same("the resources", &|m| m.partitions[0].threads_per_block *= 2);
        same("the rows per thread block", &|m| {
            m.partitions[0].rows_per_bmtb = Some(32)
        });
        same("the reduction", &|m| {
            m.partitions[0].reduction.global_atomic ^= true
        });
        same("a copied sub-matrix", &|m| {
            let p = &mut m.partitions[0];
            p.matrix = Arc::new((*p.matrix).clone());
        });
        same("a copied origin map", &|m| {
            let p = &mut m.partitions[0];
            p.origin_rows = p.origin_rows.iter().copied().collect();
        });
        let differs = |what: &str, edit: &dyn Fn(&mut MatrixMetadataSet)| {
            assert!(!is_after(edit), "{what} must not be the same program")
        };
        differs("an origin entry", &|m| {
            let p = &mut m.partitions[0];
            let mut origin = p.origin_rows.to_vec();
            origin.swap(0, 1);
            p.origin_rows = origin.into();
        });
        differs("the column offset", &|m| m.partitions[0].col_offset += 1);
        differs("the band width", &|m| {
            let p = &m.partitions[0].matrix;
            let (offsets, cols, values) = (p.row_offsets(), p.col_indices(), p.values());
            let wider = CsrMatrix::from_raw(
                p.rows(),
                p.cols() + 1,
                offsets.to_vec(),
                cols.to_vec(),
                values.to_vec(),
            );
            m.partitions[0].matrix = Arc::new(wider.unwrap());
        });
        differs("the work split", &|m| {
            m.partitions[0].mapping = Mapping::NnzSplit { nnz_per_thread: 32 }
        });
        differs("the loop plan", &|m| {
            m.partitions[0].simd = SimdPlan {
                lanes: 8,
                lane_mapping: SimdLaneMapping::Nnz,
            }
        });
        differs("the output length", &|m| m.original_rows += 1);
        assert!(!record.is(
            metadata,
            GeneratorOptions {
                model_compression: false
            }
        ));
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
