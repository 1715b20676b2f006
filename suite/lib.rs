//! Workspace-level umbrella crate (`alpha-suite`).  Hosts the runnable
//! examples in `examples/` and the cross-crate integration tests in `tests/`;
//! re-exports the public API of the member crates for convenience.
//!
//! The top-level API crate is the `alphasparse` package (`crates/core`); its
//! lib name matches the package name, so `pub use alphasparse` re-exports it
//! verbatim.  The remaining members are re-exported under the short module
//! names used throughout the docs (`matrix`, `graph`, `codegen`, `gpu`,
//! `search`, `baselines`, `serve`).
pub use alphasparse;

pub use alpha_baselines as baselines;
pub use alpha_codegen as codegen;
pub use alpha_cpu as cpu;
pub use alpha_gpu as gpu;
pub use alpha_graph as graph;
pub use alpha_matrix as matrix;
pub use alpha_net as net;
pub use alpha_search as search;
pub use alpha_serve as serve;
pub use alpha_telemetry as telemetry;

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_reexports_resolve() {
        // One symbol per member proves every re-export links.
        let _ = crate::matrix::IRREGULARITY_VARIANCE_THRESHOLD;
        let _ = crate::gpu::WARP_SIZE;
        let _ = crate::graph::presets::csr_scalar();
        let _ = crate::codegen::GeneratorOptions::default();
        let _ = crate::cpu::TimingHarness::default();
        let _ = crate::search::SearchConfig::default();
        let _ = crate::baselines::Baseline::figure9_set();
        let _ = crate::net::PROTOCOL_VERSION;
        let _ = crate::serve::STORE_LAYOUT_VERSION;
        let _ = crate::telemetry::BUCKET_BOUNDS;
        let _ = crate::alphasparse::AlphaSparse::new(crate::gpu::DeviceProfile::a100());
    }
}
