//! Machine-designed format extraction (paper Section V-B).
//!
//! The format of a generated SpMV program is the set of arrays the kernel
//! reads: the non-zero values and column indices (possibly padded and
//! interleaved) plus the index arrays the mapping stage introduced — chunk
//! offsets, row offsets, origin-row permutations, per-thread row starts.
//! This module extracts those arrays from the Matrix Metadata Set and applies
//! Model-Driven Format Compression to the index arrays.
//!
//! Two of the arrays depend on the conversion alone — `origin_rows` and the
//! sub-matrix's `row_offsets` — while a search extracts ~85 formats from
//! 5-22 conversions.  Through a [`Designer`], they are copied and fitted once
//! per conversion the Designer holds ([`Designer::derived`]) and cloned into
//! every format after that; the result is equal, array for array, to a fresh
//! extraction.

use crate::compress::{compress_array, CompressedArray};
use crate::layout::PartitionLayout;
use crate::GeneratorOptions;
use alpha_graph::{Designer, Mapping, MatrixMetadataSet, PartitionPlan};
use std::sync::OnceLock;

/// One named index array of a machine-designed format.
#[derive(Debug, Clone, PartialEq)]
pub struct FormatArray {
    /// Array name (mirrors the naming of the paper's Figure 5:
    /// `origin_rows`, `bmt_nz_offsets`, …).
    pub name: String,
    /// The raw index data.
    pub data: Vec<u32>,
    /// The fitted compression model, when Model-Driven Format Compression
    /// succeeded; a compressed array is computed instead of loaded.
    pub compressed: Option<CompressedArray>,
}

impl FormatArray {
    fn new(name: &str, data: Vec<u32>, try_compress: bool) -> Self {
        let compressed = if try_compress {
            compress_array(&data)
        } else {
            None
        };
        FormatArray {
            name: name.to_string(),
            data,
            compressed,
        }
    }

    /// True if the array was replaced by a fitted model.
    pub fn is_compressed(&self) -> bool {
        self.compressed.is_some()
    }

    /// Bytes this array occupies in simulated device memory.
    pub fn bytes(&self) -> usize {
        match &self.compressed {
            Some(c) => c.compressed_bytes(),
            None => self.data.len() * 4,
        }
    }

    /// Reads entry `i` (through the model when compressed).
    pub fn get(&self, i: usize) -> u32 {
        match &self.compressed {
            Some(c) => c.evaluate(i),
            None => self.data[i],
        }
    }
}

/// The format arrays of one partition.
#[derive(Debug, Clone)]
pub struct PartitionFormat {
    /// Index arrays by name.
    pub arrays: Vec<FormatArray>,
    /// Stored value/column slots including padding.
    pub padded_nnz: usize,
    /// Resolved work-distribution layout.
    pub layout: PartitionLayout,
}

impl PartitionFormat {
    /// Looks up an array by name.
    pub fn array(&self, name: &str) -> Option<&FormatArray> {
        self.arrays.iter().find(|a| a.name == name)
    }

    /// True if the named array exists and was compressed away.
    pub fn is_array_compressed(&self, name: &str) -> bool {
        self.array(name).map(|a| a.is_compressed()).unwrap_or(false)
    }

    /// Total bytes of this partition's format: padded values (4 bytes) +
    /// padded column indices (4 bytes) + the index arrays.
    pub fn bytes(&self) -> usize {
        self.padded_nnz * 8 + self.arrays.iter().map(FormatArray::bytes).sum::<usize>()
    }
}

/// The complete machine-designed format.
#[derive(Debug, Clone)]
pub struct MachineFormat {
    /// One format per partition, in partition order.
    pub partitions: Vec<PartitionFormat>,
}

impl MachineFormat {
    /// Total bytes of the format in simulated device memory.
    pub fn bytes(&self) -> usize {
        self.partitions.iter().map(PartitionFormat::bytes).sum()
    }

    /// Total padded slots across partitions.
    pub fn padded_nnz(&self) -> usize {
        self.partitions.iter().map(|p| p.padded_nnz).sum()
    }

    /// Names of every array, with the partition index and whether it was
    /// compressed (used by reports and EXPERIMENTS.md).
    pub fn array_inventory(&self) -> Vec<(usize, String, bool)> {
        let mut inventory = Vec::new();
        for (i, p) in self.partitions.iter().enumerate() {
            for a in &p.arrays {
                inventory.push((i, a.name.clone(), a.is_compressed()));
            }
        }
        inventory
    }
}

/// Extracts the machine-designed format from a metadata set.
pub fn extract_format(metadata: &MatrixMetadataSet, options: GeneratorOptions) -> MachineFormat {
    extract(metadata, options, |plan| {
        ConversionArrays::fit(plan, options.model_compression)
    })
}

/// [`extract_format`] for a metadata set `designer` designed: the
/// conversion's arrays come from its memo.
pub(crate) fn extract_format_with(
    designer: &Designer<'_>,
    metadata: &MatrixMetadataSet,
    options: GeneratorOptions,
) -> MachineFormat {
    let compress = options.model_compression;
    extract(metadata, options, |plan| {
        let fits = designer.derived(plan, <[OnceLock<ConversionArrays>; 2]>::default);
        fits[compress as usize]
            .get_or_init(|| ConversionArrays::fit(plan, compress))
            .clone()
    })
}

/// The arrays of a partition that depend on its conversion alone, fitted.
#[derive(Clone)]
struct ConversionArrays {
    origin_rows: FormatArray,
    row_offsets: FormatArray,
}

impl ConversionArrays {
    fn fit(plan: &PartitionPlan, compress: bool) -> Self {
        ConversionArrays {
            // Origin-row permutation (identity when no sort/bin/div
            // reordering took place, in which case compression removes it
            // entirely).
            origin_rows: FormatArray::new("origin_rows", plan.origin_rows.to_vec(), compress),
            row_offsets: FormatArray::new(
                "row_offsets",
                plan.matrix.row_offsets().to_vec(),
                compress,
            ),
        }
    }
}

fn extract(
    metadata: &MatrixMetadataSet,
    options: GeneratorOptions,
    mut conversion: impl FnMut(&PartitionPlan) -> ConversionArrays,
) -> MachineFormat {
    let partitions = metadata
        .partitions
        .iter()
        .map(|plan| extract_partition(plan, options, conversion(plan)))
        .collect();
    MachineFormat { partitions }
}

fn extract_partition(
    plan: &PartitionPlan,
    options: GeneratorOptions,
    conversion: ConversionArrays,
) -> PartitionFormat {
    let layout = PartitionLayout::new(plan);
    let compress = options.model_compression;
    let ConversionArrays {
        origin_rows,
        row_offsets,
    } = conversion;
    let mut arrays = vec![origin_rows];

    match plan.mapping {
        Mapping::RowPerThread { .. } => {
            if plan.padding.is_some() {
                // Padded layouts address storage through per-thread chunk
                // offsets (prefix sums of the padded chunk lengths).
                let mut offsets = Vec::with_capacity(layout.padded_chunk_lens.len() + 1);
                let mut acc = 0u32;
                offsets.push(0);
                for &len in &layout.padded_chunk_lens {
                    acc += len;
                    offsets.push(acc);
                }
                arrays.push(FormatArray::new("bmt_nz_offsets", offsets, compress));
                arrays.push(FormatArray::new(
                    "bmt_sizes",
                    layout.padded_chunk_lens.clone(),
                    compress,
                ));
            }
            // Row offsets are always part of the format: unpadded layouts use
            // them to address storage, padded ones to find row boundaries.
            arrays.push(row_offsets);
        }
        Mapping::VectorPerRow { .. } => arrays.push(row_offsets),
        Mapping::NnzSplit { nnz_per_thread } => {
            arrays.push(row_offsets);
            // First row of each thread's chunk, found by binary search over
            // the row offsets (precomputed exactly as CSR5's tile descriptors
            // precompute tile boundaries).
            let nnz = plan.matrix.nnz();
            let threads = nnz.div_ceil(nnz_per_thread.max(1)).max(1);
            let offsets = plan.matrix.row_offsets();
            let mut starts = Vec::with_capacity(threads);
            for t in 0..threads {
                let target = (t * nnz_per_thread).min(nnz) as u32;
                let row = match offsets.binary_search(&target) {
                    Ok(r) => r.min(plan.matrix.rows().saturating_sub(1)),
                    Err(r) => r.saturating_sub(1),
                };
                starts.push(row as u32);
            }
            arrays.push(FormatArray::new("bmt_row_starts", starts, compress));
        }
    }

    if let Some(boundaries) = &plan.bin_boundaries {
        arrays.push(FormatArray::new(
            "bin_offsets",
            boundaries.iter().map(|&b| b as u32).collect(),
            compress,
        ));
    }

    PartitionFormat {
        arrays,
        padded_nnz: layout.padded_nnz,
        layout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpha_graph::{design, presets};
    use alpha_matrix::gen;

    fn format_for(graph: &alpha_graph::OperatorGraph, compress: bool) -> MachineFormat {
        let matrix = gen::powerlaw(300, 300, 8, 2.0, 5);
        let metadata = design(graph, &matrix).unwrap();
        extract_format(
            &metadata,
            GeneratorOptions {
                model_compression: compress,
            },
        )
    }

    #[test]
    fn csr_scalar_format_has_expected_arrays() {
        let format = format_for(&presets::csr_scalar(), true);
        assert_eq!(format.partitions.len(), 1);
        let p = &format.partitions[0];
        assert!(p.array("origin_rows").is_some());
        assert!(p.array("row_offsets").is_some());
        assert!(p.array("bmt_nz_offsets").is_none());
        // Identity origin_rows compresses to a linear model.
        assert!(p.is_array_compressed("origin_rows"));
    }

    #[test]
    fn padded_format_includes_chunk_offsets() {
        let format = format_for(&presets::sell_like(), true);
        let p = &format.partitions[0];
        assert!(p.array("bmt_nz_offsets").is_some());
        assert!(p.array("bmt_sizes").is_some());
        assert!(p.padded_nnz >= 300);
    }

    #[test]
    fn compression_reduces_format_bytes() {
        let with = format_for(&presets::sell_like(), true);
        let without = format_for(&presets::sell_like(), false);
        assert!(with.bytes() <= without.bytes());
        // The sorted origin_rows array resists compression but the identity
        // arrays of the unsorted CSR-scalar design do not.
        let scalar_with = format_for(&presets::csr_scalar(), true);
        let scalar_without = format_for(&presets::csr_scalar(), false);
        assert!(scalar_with.bytes() < scalar_without.bytes());
    }

    #[test]
    fn nnz_split_format_has_row_starts() {
        let format = format_for(&presets::csr5_like(16), true);
        let p = &format.partitions[0];
        let starts = p.array("bmt_row_starts").expect("row starts present");
        // Starts are non-decreasing and within the row range.
        let values: Vec<u32> = (0..starts.data.len()).map(|i| starts.get(i)).collect();
        assert!(values.windows(2).all(|w| w[0] <= w[1]));
        assert!(values.iter().all(|&v| (v as usize) < 300));
    }

    #[test]
    fn binned_format_records_bin_offsets() {
        let format = format_for(&presets::acsr_like(4), true);
        assert!(format.partitions[0].array("bin_offsets").is_some());
    }

    #[test]
    fn branched_format_has_one_partition_per_branch() {
        let format = format_for(&presets::row_split_hybrid(3), true);
        assert_eq!(format.partitions.len(), 3);
        let inventory = format.array_inventory();
        assert!(inventory
            .iter()
            .any(|(p, name, _)| *p == 2 && name == "row_offsets"));
    }

    #[test]
    fn the_memoised_extraction_equals_a_fresh_one() {
        // Every preset twice, with and without compression, through one
        // Designer: the second visit of each conversion reads the memo.
        for matrix in [
            gen::powerlaw(300, 300, 8, 2.0, 5),
            gen::uniform_random(256, 256, 8, 3),
        ] {
            let designer = Designer::new(&matrix);
            for compress in [true, false, true] {
                let options = GeneratorOptions {
                    model_compression: compress,
                };
                for (name, graph) in alpha_graph::presets::all_presets() {
                    let metadata = designer.design(&graph).unwrap();
                    let memoised = extract_format_with(&designer, &metadata, options);
                    let fresh = extract_format(&metadata, options);
                    assert_eq!(memoised.partitions.len(), fresh.partitions.len());
                    for (m, f) in memoised.partitions.iter().zip(&fresh.partitions) {
                        assert_eq!(m.arrays, f.arrays, "{name} compress={compress}");
                        assert_eq!(m.padded_nnz, f.padded_nnz, "{name}");
                    }
                }
            }
        }
    }

    #[test]
    fn format_array_get_reads_through_model() {
        let format = format_for(&presets::csr_scalar(), true);
        let origin = format.partitions[0].array("origin_rows").unwrap();
        assert!(origin.is_compressed());
        for i in (0..300).step_by(37) {
            assert_eq!(origin.get(i), i as u32);
        }
    }
}
