//! The generated kernel (paper Section V-C): plain data, the designed
//! metadata.  Each backend builds its executor from it and the extracted
//! [`MachineFormat`] — `alpha-cpu`'s `NativeKernel`, `alpha-gpu`'s
//! `SimKernel` — and [`emit`](crate::emit) prints it as CUDA-like source.

use crate::format::MachineFormat;
use alpha_graph::{MatrixMetadataSet, SimdPlan};

/// A machine-designed SpMV kernel generated from an operator graph.
pub struct GeneratedKernel {
    metadata: MatrixMetadataSet,
    format_bytes: usize,
    name: String,
}

impl GeneratedKernel {
    /// Builds the kernel from the designed metadata and the extracted format.
    pub fn new(metadata: MatrixMetadataSet, format: &MachineFormat) -> Self {
        assert_eq!(
            metadata.partitions.len(),
            format.partitions.len(),
            "metadata and format must describe the same partitions"
        );
        let name = format!(
            "alphasparse[{}]",
            metadata
                .partitions
                .first()
                .map(|p| p.describe())
                .unwrap_or_else(|| "empty".to_string())
        );
        GeneratedKernel {
            format_bytes: format.bytes(),
            name,
            metadata,
        }
    }

    /// The designed metadata this kernel was built from.
    pub fn metadata(&self) -> &MatrixMetadataSet {
        &self.metadata
    }

    /// Human-readable kernel name: the first partition's design.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total bytes of the format arrays the kernel reads.
    pub fn format_bytes(&self) -> usize {
        self.format_bytes
    }

    /// Overwrites each partition's vectorization directive; see
    /// [`GeneratedSpmv::set_simd_plans`](crate::GeneratedSpmv::set_simd_plans).
    pub(crate) fn set_simd_plans(&mut self, plans: &[SimdPlan]) {
        assert_eq!(
            plans.len(),
            self.metadata.partitions.len(),
            "one SIMD plan per partition"
        );
        for (partition, plan) in self.metadata.partitions.iter_mut().zip(plans) {
            partition.simd = *plan;
        }
    }
}
