//! Runtime probe of the host's SIMD capability.
//!
//! The vectorized microkernels in [`crate::simd`] are selected **per kernel
//! build**, not per compile: the same binary runs the AVX2 gather path on a
//! machine that has it and falls back to portable lane code everywhere else.
//! This module is the single source of truth for that decision, and its
//! [`summary`] string is printed on the benchmark's `host:` line so
//! measurements from different hosts stay distinguishable.
//!
//! Setting the environment variable [`NO_SIMD_ENV`] (to any non-empty value
//! other than `0`) force-disables vectorization process-wide — CI uses this
//! to keep the scalar fallback exercised on hosts that do have AVX2.

use std::sync::OnceLock;

/// Environment variable that force-disables SIMD execution when set to a
/// non-empty value other than `0` (e.g. `ALPHA_CPU_NO_SIMD=1`).
pub const NO_SIMD_ENV: &str = "ALPHA_CPU_NO_SIMD";

/// Which vector extension the host offers to the microkernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdSupport {
    /// x86_64 AVX2: 8×f32 vectors with hardware gather.
    Avx2,
    /// aarch64 NEON: 4×f32 vectors (gathers emulated with lane loads).
    Neon,
    /// No usable vector extension; lane kernels run as portable code.
    None,
}

impl SimdSupport {
    /// Short label used in bench records (`avx2` / `neon` / `scalar`).
    pub fn label(self) -> &'static str {
        match self {
            SimdSupport::Avx2 => "avx2",
            SimdSupport::Neon => "neon",
            SimdSupport::None => "scalar",
        }
    }
}

/// Raw hardware probe, ignoring the [`NO_SIMD_ENV`] override.  The answer
/// cannot change over a process lifetime, so it is cached.
pub fn detect_hardware() -> SimdSupport {
    static DETECTED: OnceLock<SimdSupport> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdSupport::Avx2;
            }
            SimdSupport::None
        }
        #[cfg(target_arch = "aarch64")]
        {
            if std::arch::is_aarch64_feature_detected!("neon") {
                return SimdSupport::Neon;
            }
            SimdSupport::None
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            SimdSupport::None
        }
    })
}

/// True when [`NO_SIMD_ENV`] requests scalar-only execution.  Read on every
/// call (kernel builds are cold), so tests and harnesses can toggle it.
pub fn force_scalar() -> bool {
    match std::env::var(NO_SIMD_ENV) {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

/// The SIMD support level execution should actually use: the hardware probe,
/// unless the environment override demands scalar.
pub fn active() -> SimdSupport {
    if force_scalar() {
        SimdSupport::None
    } else {
        detect_hardware()
    }
}

/// One-line host description for bench records, e.g. `x86_64:avx2` or
/// `x86_64:scalar(forced)`.
pub fn summary() -> String {
    let arch = std::env::consts::ARCH;
    if force_scalar() {
        format!("{arch}:scalar(forced)")
    } else {
        format!("{arch}:{}", detect_hardware().label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_stable_and_labelled() {
        let first = detect_hardware();
        assert_eq!(first, detect_hardware());
        assert!(["avx2", "neon", "scalar"].contains(&first.label()));
    }

    #[test]
    fn summary_names_the_architecture() {
        assert!(summary().starts_with(std::env::consts::ARCH));
    }

    #[test]
    fn x86_hosts_with_avx2_report_it() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(detect_hardware(), SimdSupport::Avx2);
        }
    }
}
