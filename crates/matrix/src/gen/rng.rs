//! A tiny, dependency-free, deterministic pseudo-random number generator used
//! by the matrix generators (splitmix64 state update, xorshift-style output
//! mixing).  The generators must be reproducible across runs and platforms so
//! that every experiment in EXPERIMENTS.md refers to the exact same corpus.

/// Deterministic 64-bit PRNG (splitmix64).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.  Different seeds give independent
    /// streams for all practical purposes.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.  `bound` must be non-zero.
    pub fn next_below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0, "next_below requires a positive bound");
        // Multiply-shift rejection-free mapping; bias is negligible for the
        // bounds used here (all far below 2^32).
        (((self.next_u64() >> 11) as u128 * bound as u128) >> 53) as usize
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform value (single precision) in `[-1, 1)`, the distribution used
    /// for non-zero values across the corpus.
    pub fn next_value(&mut self) -> f32 {
        (self.next_f64() * 2.0 - 1.0) as f32
    }

    /// Samples `count` distinct values from `[0, bound)`, sorted.  Uses
    /// rejection for sparse draws (`distinct_sorted`) and a partial
    /// Fisher–Yates shuffle when `count` is a large fraction of `bound`.
    pub fn sample_distinct(&mut self, bound: usize, count: usize) -> Vec<usize> {
        let count = count.min(bound);
        if count == 0 {
            return Vec::new();
        }
        if count * 3 < bound {
            return distinct_sorted(bound, count, || self.next_below(bound));
        }
        // Dense draw: shuffle a full index range and truncate.
        let mut all: Vec<usize> = (0..bound).collect();
        for i in 0..count {
            let j = i + self.next_below(bound - i);
            all.swap(i, j);
        }
        all.truncate(count);
        all.sort_unstable();
        all
    }
}

/// The first `count` distinct values `draw` returns, each below `bound`,
/// sorted: a rejection draw that tests membership by scanning what it has
/// drawn when it is short, and with a bitmap of `bound` bits when it is
/// long, then sorts once.  O(count) per value drawn at worst, and never a
/// bitmap of more than `SHORT_DRAW` words per value.  `count` must not
/// exceed the values `draw` can return, or it never ends.
pub(crate) fn distinct_sorted(
    bound: usize,
    count: usize,
    mut draw: impl FnMut() -> usize,
) -> Vec<usize> {
    let mut chosen = Vec::with_capacity(count);
    if count <= SHORT_DRAW || bound.div_ceil(64) > count * SHORT_DRAW {
        while chosen.len() < count {
            let candidate = draw();
            if !chosen.contains(&candidate) {
                chosen.push(candidate);
            }
        }
    } else {
        let mut seen = vec![0u64; bound.div_ceil(64)];
        while chosen.len() < count {
            let candidate = draw();
            let (word, bit) = (candidate / 64, 1u64 << (candidate % 64));
            if seen[word] & bit == 0 {
                seen[word] |= bit;
                chosen.push(candidate);
            }
        }
    }
    chosen.sort_unstable();
    chosen
}

/// The longest rejection draw that tests membership by scanning; also the
/// most bitmap words a longer draw may spend per value drawn.
const SHORT_DRAW: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert!(rng.next_below(17) < 17);
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(4);
        for _ in 0..1_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn sample_distinct_has_no_duplicates_and_is_sorted() {
        let mut rng = SplitMix64::new(5);
        // Short, dense, full, empty, bitmap and long-scan draws.
        let draws = [
            (100usize, 10usize),
            (100, 90),
            (8, 8),
            (50, 0),
            (1_000, 100),
            (1 << 20, 100),
        ];
        for &(bound, count) in &draws {
            let sample = rng.sample_distinct(bound, count);
            assert_eq!(sample.len(), count.min(bound));
            assert!(sample.windows(2).all(|w| w[0] < w[1]));
            assert!(sample.iter().all(|&v| v < bound));
        }
    }

    #[test]
    fn values_are_roughly_centered() {
        let mut rng = SplitMix64::new(6);
        let mean: f32 = (0..10_000).map(|_| rng.next_value()).sum::<f32>() / 10_000.0;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
    }
}
