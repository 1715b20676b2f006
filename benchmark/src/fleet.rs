//! Inputs and the correctness ledger shared by every subject.
//!
//! All inputs derive from `--seed`: matrix `i` of a fleet is
//! `PatternFamily::generate(rows, row_len, seed + offset + i)` and its `x` is
//! a non-constant vector in `[-1, 1)` seeded the same way.  The program under
//! test only ever receives the generated inputs.

use crate::scale::ERROR_TOLERANCE;
use crate::trace::ThreadTrace;
use crate::Ctx;
use alpha_matrix::gen::PatternFamily;
use alpha_matrix::{max_scaled_error, CsrMatrix, Scalar};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// One generated matrix with its input vector and reference product.
pub struct Subject {
    pub family: PatternFamily,
    pub matrix: CsrMatrix,
    pub x: Vec<Scalar>,
    /// `CsrMatrix::spmv(x)`, what every local and remote `y` is checked
    /// against.
    pub y_ref: Vec<Scalar>,
    /// Seconds `PatternFamily::generate` took.
    pub generate_secs: f64,
}

impl Subject {
    pub fn name(&self) -> &'static str {
        self.family.name()
    }

    pub fn nnz(&self) -> f64 {
        self.matrix.nnz() as f64
    }
}

/// A non-constant vector in `[-1, 1)` (splitmix64 stream).
pub fn seeded_x(len: usize, seed: u64) -> Vec<Scalar> {
    let mut state = seed ^ 0x5851_F42D_4C95_7F2D;
    (0..len)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0) as Scalar
        })
        .collect()
}

/// Generates one subject; the call into `alpha-matrix` is recorded as a span.
pub fn subject(
    trace: &mut ThreadTrace<'_>,
    family: PatternFamily,
    rows: usize,
    row_len: usize,
    seed: u64,
) -> Subject {
    let (matrix, generate_secs) = trace.timed("matrix.generate", seed, || {
        family.generate(rows, row_len, seed)
    });
    let x = seeded_x(matrix.cols(), seed);
    let y_ref = matrix.spmv(&x).expect("x has the matrix's column count");
    Subject {
        family,
        matrix,
        x,
        y_ref,
        generate_secs,
    }
}

/// `count` subjects with the families cycling, matrix `i` from `seed + i`.
pub fn fleet(
    trace: &mut ThreadTrace<'_>,
    families: &[PatternFamily],
    count: usize,
    rows: usize,
    row_len: usize,
    seed: u64,
) -> Vec<Subject> {
    (0..count)
        .map(|i| {
            let family = families[i % families.len()];
            subject(trace, family, rows, row_len, seed + i as u64)
        })
        .collect()
}

/// `calls` timed, checked executions of `run` into `y`, after a fresh reading
/// of the host's speed.  Returns the call times in nanoseconds.
pub fn timed_calls(
    ctx: &Ctx<'_>,
    trace: &mut ThreadTrace<'_>,
    span: &'static str,
    subject: &Subject,
    y: &mut [Scalar],
    calls: usize,
    run: impl Fn(&[Scalar], &mut [Scalar]) -> Result<(), String>,
) -> Vec<f64> {
    ctx.tracer.refresh_speed();
    let mut call_ns = Vec::with_capacity(calls);
    for _ in 0..calls {
        let op = ctx.ops.attempt();
        let (result, secs) = trace.timed(span, op, || run(&subject.x, y));
        match result {
            Ok(()) => {
                ctx.ops.check(span, y, &subject.y_ref);
                call_ns.push(secs * 1e9);
            }
            Err(e) => ctx.ops.fail(&format!("{span} on {}: {e}", subject.name())),
        }
    }
    call_ns
}

/// Operations attempted and failed, and the worst error seen, across every
/// thread of a run.  An operation is one tune or one SpMV call; it fails on a
/// wrong result, an error other than a retried `Busy`, or a missed deadline.
#[derive(Default)]
pub struct Ops {
    attempted: AtomicU64,
    failed: AtomicU64,
    max_error_bits: AtomicU32,
}

impl Ops {
    /// Counts one operation and returns its id (the id spans carry).
    pub fn attempt(&self) -> u64 {
        self.attempted.fetch_add(1, Ordering::Relaxed)
    }

    /// Counts the current operation as failed.
    pub fn fail(&self, what: &str) {
        if self.failed.fetch_add(1, Ordering::Relaxed) < 10 {
            eprintln!("FAILED operation: {what}");
        }
    }

    /// Checks one result against its reference; a wrong length or an error
    /// above the tolerance fails the operation.
    pub fn check(&self, what: &str, y: &[Scalar], y_ref: &[Scalar]) {
        if y.len() != y_ref.len() {
            return self.fail(&format!(
                "{what}: {} rows, expected {}",
                y.len(),
                y_ref.len()
            ));
        }
        // `max_scaled_error` folds with `f32::max`, which drops NaN, so a NaN
        // in `y` has to be looked for separately.
        if y.iter().any(|v| !v.is_finite()) {
            return self.fail(&format!("{what}: non-finite value in y"));
        }
        let error = max_scaled_error(y, y_ref);
        // Non-negative floats order like their bit patterns.
        self.max_error_bits
            .fetch_max(error.to_bits(), Ordering::Relaxed);
        if error > ERROR_TOLERANCE {
            self.fail(&format!("{what}: max scaled error {error:e}"));
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    pub fn max_error(&self) -> f64 {
        f32::from_bits(self.max_error_bits.load(Ordering::Relaxed)) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    #[test]
    fn x_is_seeded_bounded_and_not_constant() {
        let x = seeded_x(1_000, 9);
        assert_eq!(x, seeded_x(1_000, 9));
        assert_ne!(x, seeded_x(1_000, 10));
        assert!(x.iter().all(|v| (-1.0..1.0).contains(v)));
        assert!(x.iter().any(|v| *v < -0.5) && x.iter().any(|v| *v > 0.5));
    }

    #[test]
    fn fleet_cycles_families_and_advances_the_seed() {
        let tracer = Tracer::new(false);
        let mut trace = tracer.thread();
        let families = [PatternFamily::UniformRandom, PatternFamily::Banded];
        let fleet = fleet(&mut trace, &families, 3, 64, 4, 5);
        let names: Vec<_> = fleet.iter().map(Subject::name).collect();
        assert_eq!(names, ["uniform", "banded", "uniform"]);
        assert_ne!(fleet[0].matrix, fleet[2].matrix);
        assert_eq!(fleet[0].y_ref.len(), 64);
    }

    #[test]
    fn ledger_counts_wrong_results_and_nans_as_failures() {
        let ops = Ops::default();
        let y_ref = [1.0, 2.0, 3.0];
        ops.attempt();
        ops.check("exact", &[1.0, 2.0, 3.0], &y_ref);
        ops.attempt();
        ops.check("close", &[1.0, 2.0001, 3.0], &y_ref);
        assert_eq!(ops.failed(), 0);
        ops.attempt();
        ops.check("wrong", &[1.0, 2.5, 3.0], &y_ref);
        ops.attempt();
        ops.check("nan", &[f32::NAN, 2.0, 3.0], &y_ref);
        ops.attempt();
        ops.check("short", &[1.0], &y_ref);
        assert_eq!((ops.attempted(), ops.failed()), (5, 3));
        assert!(ops.max_error() >= 0.19);
    }
}
