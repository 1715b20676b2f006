//! The workspace's fast content hash: a 64-bit striped hash that runs at the
//! speed its input arrives from memory.  It spreads accidental differences,
//! not chosen ones — a crafted pair of inputs collides cheaply — so where a
//! hash must stand in for the content, the digest is BLAKE2b-256
//! ([`CsrMatrix::digest`](crate::CsrMatrix::digest)).
//!
//! [`CsrMatrix::fingerprint`](crate::CsrMatrix::fingerprint) identifies a
//! matrix with it — the root of every durable store key.  Streams of 32-bit
//! elements are striped
//! over eight independent accumulators (the accumulate step of XXH3, whose
//! 32×32→64-bit products exist as vector instructions down to SSE2), so a
//! pass over the 2 MB of a 262 k-non-zero matrix takes about 0.15 ms where a
//! byte-serial FNV takes 2–3 ms.  Elements are combined by value, never by
//! reinterpreting memory, so the hash of a given content is the same on
//! every host and in every build.

use crate::Scalar;

/// Independent accumulators a stream is striped over.  A stripe adds to each
/// of them without reading any other, so the pass vectorizes.
const LANES: usize = 8;

/// Stream elements one stripe consumes: two 32-bit elements per lane word.
const STRIPE: usize = 2 * LANES;

/// Stripes between two scrambles of the accumulators (a block is 256
/// elements, 1 KiB).
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

/// The striped hash.  Single words are folded into lane 0
/// ([`ContentHasher::word`]), streams go through [`ContentHasher::stream`].
pub struct ContentHasher {
    lanes: [u64; LANES],
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher { lanes: KEYS[0] }
    }
}

impl ContentHasher {
    /// A hasher in its initial state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one word: the value itself, never its native-endian bytes.
    #[inline]
    pub fn word(&mut self, word: u64) {
        self.lanes[0] = fold(self.lanes[0], word);
    }

    /// Absorbs a whole stream of 32-bit elements, length first (two streams
    /// never run into each other).  Each lane word `d` of a stripe — element
    /// `2i` in its low half, `2i + 1` in its high half — adds
    /// `lo(d ^ key) * hi(d ^ key)` to its own lane and `d` itself to the
    /// neighbouring one, and every block of stripes ends with a 128-bit
    /// folded multiply of each lane.  The fewer-than-a-stripe tail of the
    /// last block is absorbed as single words.
    pub fn stream<T: Copy>(&mut self, data: &[T], bits: impl Fn(T) -> u32) {
        self.word(data.len() as u64);
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
            for &element in stripes.remainder() {
                self.word(u64::from(bits(element)));
            }
            for lane in &mut self.lanes {
                *lane = fold(*lane, 0);
            }
        }
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.lanes
            .iter()
            .fold(LANES as u64, |acc, &lane| fold(acc, lane))
    }
}

/// What [`CsrMatrix::fingerprint`](crate::CsrMatrix::fingerprint) computes,
/// over the parts of a CSR matrix: both dimensions, then the three streams.
pub(crate) fn csr_fingerprint(
    rows: usize,
    cols: usize,
    row_offsets: &[u32],
    col_indices: &[u32],
    values: &[Scalar],
) -> u64 {
    let mut hash = ContentHasher::new();
    hash.word(rows as u64);
    hash.word(cols as u64);
    hash.stream(row_offsets, |v| v);
    hash.stream(col_indices, |v| v);
    hash.stream(values, Scalar::to_bits);
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The same hash written position by position, with no slicing: lane
    /// `l` of stripe `s` of the block starting at `b` reads elements
    /// `b + 16 s + 2 l` (low half) and `b + 16 s + 2 l + 1` (high half).
    #[allow(clippy::needless_range_loop)] // positions are the point
    fn reference(rows: u64, cols: u64, streams: [&[u32]; 3]) -> u64 {
        let mut lanes = KEYS[0];
        lanes[0] = fold(fold(lanes[0], rows), cols);
        for data in streams {
            lanes[0] = fold(lanes[0], data.len() as u64);
            let mut b = 0;
            while b < data.len() {
                let len = (data.len() - b).min(256);
                for s in 0..len / 16 {
                    let word = |l: usize| {
                        let at = b + 16 * s + 2 * l;
                        u64::from(data[at]) | u64::from(data[at + 1]) << 32
                    };
                    let before = lanes;
                    for l in 0..8 {
                        let keyed = word(l) ^ KEYS[s][l];
                        lanes[l] = before[l]
                            .wrapping_add((keyed & 0xFFFF_FFFF) * (keyed >> 32))
                            .wrapping_add(word(l ^ 1));
                    }
                }
                for at in b + len / 16 * 16..b + len {
                    lanes[0] = fold(lanes[0], u64::from(data[at]));
                }
                lanes = lanes.map(|lane| fold(lane, 0));
                b += len;
            }
        }
        lanes.iter().fold(8, |acc, &lane| fold(acc, lane))
    }

    /// A deterministic stream of `len` elements.
    fn elements(len: usize, salt: u32) -> Vec<u32> {
        (0..len as u32)
            .map(|i| (i ^ salt).wrapping_mul(0x9E37_79B1).rotate_left(i % 32))
            .collect()
    }

    fn fingerprint(rows: usize, cols: usize, streams: [&[u32]; 3]) -> u64 {
        let values: Vec<Scalar> = streams[2].iter().map(|&v| Scalar::from_bits(v)).collect();
        csr_fingerprint(rows, cols, streams[0], streams[1], &values)
    }

    #[test]
    fn fingerprint_matches_the_position_by_position_reference() {
        // Empty, shorter than a stripe, whole stripes, whole blocks, and one
        // off either side of each boundary.
        let lengths = [
            0, 1, 15, 16, 17, 31, 32, 255, 256, 257, 271, 272, 511, 512, 513, 1000,
        ];
        for (i, &a) in lengths.iter().enumerate() {
            let b = lengths[(i + 5) % lengths.len()];
            let (offsets, columns, values) = (elements(a, 1), elements(b, 2), elements(b, 3));
            let streams = [&offsets[..], &columns[..], &values[..]];
            assert_eq!(
                fingerprint(a, b, streams),
                reference(a as u64, b as u64, streams),
                "lengths {a} and {b}"
            );
        }
    }

    #[test]
    fn fingerprint_of_striped_streams_is_pinned_by_a_golden_value() {
        // 300 × 300, three entries per row: 301 offsets and 900 non-zeros run
        // through whole blocks, whole stripes and a tail.  The constant was
        // computed outside this crate; an auto-vectorised build (CI runs this
        // under `-Ctarget-cpu=native` too) must reproduce it bit for bit.
        let offsets: Vec<u32> = (0..=300).map(|r| 3 * r).collect();
        let (mut columns, mut values) = (Vec::new(), Vec::new());
        for r in 0..300u32 {
            let mut row = [r, (r + 1) % 300, (r + 7) % 300];
            row.sort_unstable();
            for (j, c) in row.into_iter().enumerate() {
                columns.push(c);
                values.push(0.5 * (r % 13) as Scalar - j as Scalar);
            }
        }
        assert_eq!(
            csr_fingerprint(300, 300, &offsets, &columns, &values),
            0x7d6b_3678_90bf_895b
        );
    }

    #[test]
    fn fingerprint_changes_with_every_bit_of_every_element() {
        // 41 offsets (two stripes and a tail) and 300 non-zeros (a block, two
        // stripes and a tail): every position class of the construction.
        let (offsets, columns, values) = (elements(41, 4), elements(300, 5), elements(300, 6));
        let base = fingerprint(40, 50, [&offsets, &columns, &values]);
        for bit in 0..64 {
            let flipped = 1usize << bit;
            let streams = [&offsets[..], &columns[..], &values[..]];
            assert_ne!(
                fingerprint(40 ^ flipped, 50, streams),
                base,
                "rows bit {bit}"
            );
            assert_ne!(
                fingerprint(40, 50 ^ flipped, streams),
                base,
                "cols bit {bit}"
            );
        }
        for which in 0..3 {
            let mut streams = [offsets.clone(), columns.clone(), values.clone()];
            for at in 0..streams[which].len() {
                for bit in 0..32 {
                    streams[which][at] ^= 1 << bit;
                    let [a, b, c] = &streams;
                    assert_ne!(
                        fingerprint(40, 50, [a, b, c]),
                        base,
                        "stream {which}, element {at}, bit {bit}"
                    );
                    streams[which][at] ^= 1 << bit;
                }
            }
        }
    }

    #[test]
    fn fingerprint_separates_stream_boundaries_and_degenerate_shapes() {
        let e = elements(600, 7);
        let none: &[u32] = &[];
        let swap = |a, b| {
            let mut swapped = e.clone();
            swapped.swap(a, b);
            swapped
        };
        let (across_a_stripe, across_a_block) = (swap(3, 19), swap(3, 259));
        let cases: Vec<(usize, usize, [&[u32]; 3])> = vec![
            // A 0 × 0 matrix, and shapes with no non-zeros.
            (0, 0, [&[0], none, none]),
            (0, 1, [&[0], none, none]),
            (1, 0, [&[0, 0], none, none]),
            (2, 0, [&[0, 0, 0], none, none]),
            // One element moving across each stream boundary.
            (3, 9, [&e[..4], &e[4..9], &e[9..14]]),
            (3, 9, [&e[..5], &e[5..9], &e[9..14]]),
            (3, 9, [&e[..4], &e[4..10], &e[10..14]]),
            (3, 9, [&e[..4], &e[4..9], &e[9..13]]),
            // Lengths off the 16-element stripe and the 256-element block.
            (3, 9, [&e[..4], &e[..15], &e[..15]]),
            (3, 9, [&e[..4], &e[..16], &e[..16]]),
            (3, 9, [&e[..4], &e[..17], &e[..17]]),
            (3, 9, [&e[..4], &e[..255], &e[..255]]),
            (3, 9, [&e[..4], &e[..256], &e[..256]]),
            (3, 9, [&e[..4], &e[..257], &e[..257]]),
            (3, 9, [&e[..4], &e[..600], &e[..600]]),
            // The same elements, two of them swapped across a stripe and
            // across a block.
            (3, 9, [&e[..4], &e[..600], &across_a_stripe]),
            (3, 9, [&e[..4], &e[..600], &across_a_block]),
        ];
        let distinct: HashSet<u64> = cases
            .iter()
            .map(|&(rows, cols, streams)| fingerprint(rows, cols, streams))
            .collect();
        assert_eq!(distinct.len(), cases.len());
    }
}
