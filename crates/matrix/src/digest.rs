//! BLAKE2b-256 (RFC 7693) over a canonical encoding of a CSR matrix: what
//! [`CsrMatrix::digest`](crate::CsrMatrix::digest) computes.
//!
//! The workspace's fast [`ContentHasher`](crate::ContentHasher) names a
//! matrix wherever a collision costs time and nothing else: every user of
//! [`CsrMatrix::fingerprint`](crate::CsrMatrix::fingerprint) that could
//! serve the wrong content compares it first.  It does not resist a crafted
//! collision — its products vanish for chosen inputs, and two offsetting
//! changes inside one block then cancel.  A digest that *stands in* for the
//! content, where nobody compares (a daemon answering a tune named by
//! digest, without the matrix), needs a collision-resistant hash.  BLAKE2b
//! is one, and the fastest such hash in portable 64-bit code (its rounds are
//! 64-bit adds, xors and rotates), so that is the digest, written out here
//! because the workspace takes no dependencies.  It is paid once per matrix
//! value (the result is memoised in the matrix) and costs about 2 ms per
//! megabyte on a 2-vCPU x86-64 host, some fifteen times the fingerprint.

use crate::Scalar;

/// BLAKE2b's initial state (SHA-512's).
const IV: [u64; 8] = [
    0x6a09e667f3bcc908,
    0xbb67ae8584caa73b,
    0x3c6ef372fe94f82b,
    0xa54ff53a5f1d36f1,
    0x510e527fade682d1,
    0x9b05688c2b3e6c1f,
    0x1f83d9abfb41bd6b,
    0x5be0cd19137e2179,
];

/// The message-word schedule of each round; rounds 10 and 11 reuse rows 0
/// and 1.
const SIGMA: [[usize; 16]; 10] = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15],
    [14, 10, 4, 8, 9, 15, 13, 6, 1, 12, 0, 2, 11, 7, 5, 3],
    [11, 8, 12, 0, 5, 2, 15, 13, 10, 14, 3, 6, 7, 1, 9, 4],
    [7, 9, 3, 1, 13, 12, 11, 14, 2, 6, 5, 10, 4, 0, 15, 8],
    [9, 0, 5, 7, 2, 4, 10, 15, 14, 1, 11, 12, 6, 8, 3, 13],
    [2, 12, 6, 10, 0, 11, 8, 3, 4, 13, 7, 5, 15, 14, 1, 9],
    [12, 5, 1, 15, 14, 13, 4, 10, 0, 7, 6, 3, 9, 2, 8, 11],
    [13, 11, 7, 14, 12, 1, 3, 9, 5, 0, 15, 4, 8, 6, 2, 10],
    [6, 15, 14, 9, 11, 3, 0, 8, 12, 2, 13, 7, 1, 4, 10, 5],
    [10, 2, 8, 4, 7, 6, 1, 5, 15, 11, 9, 14, 3, 12, 13, 0],
];

/// Bytes per compressed block.
const BLOCK: usize = 128;

/// An incremental BLAKE2b with a 32-byte output and no key.
pub(crate) struct Blake2b256 {
    state: [u64; 8],
    /// The block being filled.  A full block stays here until more input
    /// arrives: the last block is compressed differently, by `finish`.
    pending: [u8; BLOCK],
    filled: usize,
    /// Bytes compressed so far.
    compressed: u128,
}

impl Blake2b256 {
    pub(crate) fn new() -> Self {
        let mut state = IV;
        // Parameter block: digest length 32, no key, fanout 1, depth 1.
        state[0] ^= 0x0101_0000 ^ 32;
        Blake2b256 {
            state,
            pending: [0; BLOCK],
            filled: 0,
            compressed: 0,
        }
    }

    /// Absorbs `bytes`.
    pub(crate) fn update(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self.filled == BLOCK {
                self.compressed += BLOCK as u128;
                compress(&mut self.state, &self.pending, self.compressed, false);
                self.filled = 0;
            }
            if self.filled == 0 && bytes.len() > BLOCK {
                // Whole blocks with more input after them go straight from
                // the caller's slice.
                let (block, rest) = bytes.split_at(BLOCK);
                self.compressed += BLOCK as u128;
                let block = block.try_into().expect("a whole block");
                compress(&mut self.state, block, self.compressed, false);
                bytes = rest;
                continue;
            }
            let take = bytes.len().min(BLOCK - self.filled);
            self.pending[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
        }
    }

    /// Compresses the zero-padded last block and returns the digest.
    pub(crate) fn finish(mut self) -> [u8; 32] {
        self.compressed += self.filled as u128;
        self.pending[self.filled..].fill(0);
        compress(&mut self.state, &self.pending, self.compressed, true);
        let mut digest = [0; 32];
        for (out, word) in digest.chunks_exact_mut(8).zip(self.state) {
            out.copy_from_slice(&word.to_le_bytes());
        }
        digest
    }
}

/// The mixing function on four words of the working vector.
#[inline(always)]
fn mix(v: &mut [u64; 16], [a, b, c, d]: [usize; 4], x: u64, y: u64) {
    v[a] = v[a].wrapping_add(v[b]).wrapping_add(x);
    v[d] = (v[d] ^ v[a]).rotate_right(32);
    v[c] = v[c].wrapping_add(v[d]);
    v[b] = (v[b] ^ v[c]).rotate_right(24);
    v[a] = v[a].wrapping_add(v[b]).wrapping_add(y);
    v[d] = (v[d] ^ v[a]).rotate_right(16);
    v[c] = v[c].wrapping_add(v[d]);
    v[b] = (v[b] ^ v[c]).rotate_right(63);
}

/// The compression function: absorbs one block into `state`.  `counter` is
/// the message length up to the end of this block.
fn compress(state: &mut [u64; 8], block: &[u8; BLOCK], counter: u128, last: bool) {
    let mut m = [0u64; 16];
    for (word, bytes) in m.iter_mut().zip(block.chunks_exact(8)) {
        *word = u64::from_le_bytes(bytes.try_into().expect("8 bytes"));
    }
    let mut v = [0u64; 16];
    v[..8].copy_from_slice(state);
    v[8..].copy_from_slice(&IV);
    v[12] ^= counter as u64;
    v[13] ^= (counter >> 64) as u64;
    if last {
        v[14] = !v[14];
    }
    for round in 0..12 {
        let s = &SIGMA[round % 10];
        mix(&mut v, [0, 4, 8, 12], m[s[0]], m[s[1]]);
        mix(&mut v, [1, 5, 9, 13], m[s[2]], m[s[3]]);
        mix(&mut v, [2, 6, 10, 14], m[s[4]], m[s[5]]);
        mix(&mut v, [3, 7, 11, 15], m[s[6]], m[s[7]]);
        mix(&mut v, [0, 5, 10, 15], m[s[8]], m[s[9]]);
        mix(&mut v, [1, 6, 11, 12], m[s[10]], m[s[11]]);
        mix(&mut v, [2, 7, 8, 13], m[s[12]], m[s[13]]);
        mix(&mut v, [3, 4, 9, 14], m[s[14]], m[s[15]]);
    }
    for (i, word) in state.iter_mut().enumerate() {
        *word ^= v[i] ^ v[i + 8];
    }
}

/// Absorbs a stream of 32-bit elements: its length as a little-endian
/// `u64`, then each element's little-endian bytes, staged a kilobyte at a
/// time (by value, never by reinterpreting memory).
fn absorb<T: Copy>(hash: &mut Blake2b256, data: &[T], bits: impl Fn(T) -> u32) {
    hash.update(&(data.len() as u64).to_le_bytes());
    let mut staged = [0u8; 1024];
    for chunk in data.chunks(staged.len() / 4) {
        for (out, &element) in staged.chunks_exact_mut(4).zip(chunk) {
            out.copy_from_slice(&bits(element).to_le_bytes());
        }
        hash.update(&staged[..4 * chunk.len()]);
    }
}

/// What [`CsrMatrix::digest`](crate::CsrMatrix::digest) computes:
/// BLAKE2b-256 of both dimensions as little-endian `u64`s, then the row
/// offsets, column indices and value bits, each stream length first.  Every
/// part has a fixed width or a stated length, so two different matrices
/// never encode to the same bytes.
pub(crate) fn csr_digest(
    rows: usize,
    cols: usize,
    row_offsets: &[u32],
    col_indices: &[u32],
    values: &[Scalar],
) -> [u8; 32] {
    let mut hash = Blake2b256::new();
    hash.update(&(rows as u64).to_le_bytes());
    hash.update(&(cols as u64).to_le_bytes());
    absorb(&mut hash, row_offsets, |v| v);
    absorb(&mut hash, col_indices, |v| v);
    absorb(&mut hash, values, Scalar::to_bits);
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(digest: [u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn blake2b256(message: &[u8]) -> String {
        let mut hash = Blake2b256::new();
        hash.update(message);
        hex(hash.finish())
    }

    /// `len` bytes counting modulo 251, so no block repeats another.
    fn counting(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn blake2b256_matches_reference_digests() {
        // Computed outside this crate (Python's `hashlib.blake2b` with
        // `digest_size=32`).  The empty message, a short one, and lengths
        // around the block size: a message of exactly one or two blocks
        // ends with a full last block, which is compressed as the last.
        let cases: [(Vec<u8>, &str); 6] = [
            (
                Vec::new(),
                "0e5751c026e543b2e8ab2eb06099daa1d1e5df47778f7787faab45cdf12fe3a8",
            ),
            (
                b"abc".to_vec(),
                "bddd813c634239723171ef3fee98579b94964e3bb1cb3e427262c8c068d52319",
            ),
            (
                counting(128),
                "c3582f71ebb2be66fa5dd750f80baae97554f3b015663c8be377cfcb2488c1d1",
            ),
            (
                counting(129),
                "f7f3c46ba2564ff4c4c162da1f5b605f9f1c4aa6a20652a9f9a337c1a2f5b9c9",
            ),
            (
                counting(256),
                "582f782226018ec33076bd8d1c42413530ac7e1126260ffc0f306ba3befc3f24",
            ),
            (
                vec![b'a'; 1_000_000],
                "0741850f36cba4259628355d1073e24ddb9ca0e1bfac36fd39ae5dc2101e23a4",
            ),
        ];
        for (message, expected) in cases {
            assert_eq!(blake2b256(&message), expected, "{} bytes", message.len());
        }
    }

    #[test]
    fn split_updates_digest_like_one() {
        // Every split point of a message crossing three blocks, and a
        // byte-at-a-time feed: the pending block must carry over exactly.
        let message = counting(300);
        let whole = blake2b256(&message);
        for split in 0..=message.len() {
            let mut hash = Blake2b256::new();
            hash.update(&message[..split]);
            hash.update(&message[split..]);
            assert_eq!(hex(hash.finish()), whole, "split at {split}");
        }
        let mut hash = Blake2b256::new();
        for byte in &message {
            hash.update(std::slice::from_ref(byte));
        }
        assert_eq!(hex(hash.finish()), whole);
    }

    #[test]
    fn csr_digest_changes_with_every_bit_of_every_part() {
        // 300 elements: the staging buffer's 256-element chunks and a tail.
        let elements = |len: u32, salt: u32| -> Vec<u32> {
            (0..len)
                .map(|i| i.wrapping_mul(0x9E37_79B9) ^ salt)
                .collect()
        };
        let (offsets, columns, values) = (elements(41, 4), elements(300, 5), elements(300, 6));
        let digest = |rows: usize, cols: usize, streams: [&[u32]; 3]| {
            let values: Vec<Scalar> = streams[2].iter().map(|&v| Scalar::from_bits(v)).collect();
            csr_digest(rows, cols, streams[0], streams[1], &values)
        };
        let base = digest(40, 50, [&offsets, &columns, &values]);
        for bit in 0..64 {
            let streams = [&offsets[..], &columns[..], &values[..]];
            assert_ne!(digest(40 ^ 1 << bit, 50, streams), base, "rows bit {bit}");
            assert_ne!(digest(40, 50 ^ 1 << bit, streams), base, "cols bit {bit}");
        }
        for which in 0..3 {
            let mut streams = [offsets.clone(), columns.clone(), values.clone()];
            for at in [0, 1, 17, 255, 256, streams[which].len() - 1] {
                let at = at.min(streams[which].len() - 1);
                for bit in 0..32 {
                    streams[which][at] ^= 1 << bit;
                    let [a, b, c] = &streams;
                    assert_ne!(
                        digest(40, 50, [a, b, c]),
                        base,
                        "stream {which}, element {at}, bit {bit}"
                    );
                    streams[which][at] ^= 1 << bit;
                }
            }
        }
        // Moving the boundary between two streams is not the same matrix
        // either, though the bytes run on unchanged: the stream lengths
        // are part of the encoding.
        let mut shorter = columns.clone();
        let moved = shorter.pop().expect("non-empty");
        let mut longer = vec![moved];
        longer.extend_from_slice(&values);
        assert_ne!(digest(40, 50, [&offsets, &shorter, &longer]), base);
    }
}
