//! A hand-rolled SHA-256 — the integrity hash for every persisted artifact.
//!
//! Two subsystems address bytes by this hash: the certificate store in
//! `layered-cert` (the file name *is* the SHA-256 of the certificate's
//! canonical bytes) and the arena snapshots in [`space::snapshot`]
//! (the header names the hash of the rest of the file), so any flipped
//! byte — on disk, in transit, or from a buggy encoder — changes the
//! address and is caught by a re-hash on read. FNV (used for per-state
//! fingerprints in [`artifact`](crate::artifact)) is too easy to collide
//! for an address; SHA-256 is implemented here rather than pulled in
//! because the workspace builds `--offline` with no registry dependencies.
//!
//! The implementation is the plain FIPS 180-4 compression function over
//! 64-byte blocks with standard Merkle–Damgård padding, checked against
//! the published test vectors below.
//!
//! [`space::snapshot`]: crate::space::snapshot

/// First 32 bits of the fractional parts of the square roots of the first
/// 8 primes — the SHA-256 initial hash value (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

/// First 32 bits of the fractional parts of the cube roots of the first 64
/// primes — the SHA-256 round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

/// One compression round over a 64-byte block (FIPS 180-4 §6.2.2).
fn compress(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 64];
    for (t, chunk) in block.chunks_exact(4).enumerate() {
        w[t] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// An incremental SHA-256: [`update`](Self::update) with the message in
/// pieces, then [`finish`](Self::finish). The digest depends only on the
/// concatenated bytes, not on how they were split, so a caller can hash a
/// header and a body without first copying them into one buffer.
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes of the current, not yet compressed block.
    block: [u8; 64],
    /// How many bytes of `block` are filled.
    filled: usize,
    /// Total message length so far, in bytes.
    len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256 {
            state: H0,
            block: [0; 64],
            filled: 0,
            len: 0,
        }
    }
}

impl Sha256 {
    /// Appends `bytes` to the message.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.filled > 0 {
            let (head, rest) = bytes.split_at(bytes.len().min(64 - self.filled));
            for (dst, src) in self.block.iter_mut().skip(self.filled).zip(head) {
                *dst = *src;
            }
            self.filled += head.len();
            bytes = rest;
            if self.filled < 64 {
                return;
            }
            compress(&mut self.state, &self.block);
            self.filled = 0;
        }
        let mut blocks = bytes.chunks_exact(64);
        for block in blocks.by_ref() {
            compress(&mut self.state, block);
        }
        let rem = blocks.remainder();
        self.block[..rem.len()].copy_from_slice(rem);
        self.filled = rem.len();
    }

    /// The digest of everything appended so far.
    #[must_use]
    pub fn finish(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros, and the 64-bit big-endian message bit length.
        let bit_len = self.len.wrapping_mul(8);
        let mut tail = [0u8; 128];
        tail[..self.filled].copy_from_slice(&self.block[..self.filled]);
        tail[self.filled] = 0x80;
        let tail_len = if self.filled < 56 { 64 } else { 128 };
        tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
        for block in tail[..tail_len].chunks_exact(64) {
            compress(&mut self.state, block);
        }
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// [`finish`](Self::finish) as 64 lowercase hex characters.
    #[must_use]
    pub fn finish_hex(self) -> String {
        let digest = self.finish();
        let mut out = String::with_capacity(64);
        for b in digest {
            out.push(char::from_digit(u32::from(b >> 4), 16).unwrap_or('0'));
            out.push(char::from_digit(u32::from(b & 0xf), 16).unwrap_or('0'));
        }
        out
    }
}

/// SHA-256 of `bytes` as the raw 32-byte digest.
#[must_use]
pub fn sha256(bytes: &[u8]) -> [u8; 32] {
    let mut h = Sha256::default();
    h.update(bytes);
    h.finish()
}

/// SHA-256 of `bytes` as 64 lowercase hex characters — the form used as a
/// certificate address (file name, URL path segment, index field) and as
/// the `sha256` field of an arena snapshot header.
#[must_use]
pub fn sha256_hex(bytes: &[u8]) -> String {
    let mut h = Sha256::default();
    h.update(bytes);
    h.finish_hex()
}

/// Whether `s` is a well-formed content address: exactly 64 lowercase
/// hex characters.
#[must_use]
pub fn is_hash(s: &str) -> bool {
    s.len() == 64
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_test_vectors() {
        // FIPS 180-4 / NIST CAVP known-answer vectors.
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256_hex(&msg),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn padding_boundaries() {
        // Messages straddling the 55/56/63/64-byte padding edge cases all
        // hash without panicking and produce distinct digests.
        let mut seen = std::collections::BTreeSet::new();
        for len in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let msg = vec![0x5au8; len];
            assert!(seen.insert(sha256_hex(&msg)), "collision at len {len}");
        }
    }

    /// The incremental digest equals the one-shot digest however the
    /// message is split: the FIPS vectors in pieces of every size, and
    /// pseudo-random messages at random split points.
    #[test]
    fn incremental_digest_matches_one_shot() {
        let digest_of_pieces = |pieces: &[&[u8]]| {
            let mut h = Sha256::default();
            for piece in pieces {
                h.update(piece);
            }
            h.finish_hex()
        };
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [&[u8]; 4] = [
            b"",
            b"abc",
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            &million_a,
        ];
        for msg in vectors {
            let want = sha256_hex(msg);
            for piece in [1, 3, 55, 56, 63, 64, 65, 1000] {
                let pieces: Vec<&[u8]> = msg.chunks(piece).collect();
                assert_eq!(digest_of_pieces(&pieces), want, "pieces of {piece}");
            }
        }
        // xorshift64: a fixed pseudo-random byte stream and split points.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200 {
            let len = (next() % 300) as usize;
            let msg: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let mut cuts: Vec<usize> = (0..next() % 5)
                .map(|_| (next() as usize) % (len + 1))
                .collect();
            cuts.sort_unstable();
            let mut pieces = Vec::new();
            let mut at = 0;
            for cut in cuts {
                pieces.push(&msg[at..cut]);
                at = cut;
            }
            pieces.push(&msg[at..]);
            assert_eq!(digest_of_pieces(&pieces), sha256_hex(&msg), "{len} bytes");
        }
    }

    #[test]
    fn is_hash_accepts_addresses_only() {
        let h = sha256_hex(b"x");
        assert!(is_hash(&h));
        assert!(!is_hash(&h[..63]));
        assert!(!is_hash(&format!("{}G", &h[..63])));
        assert!(!is_hash(&h.to_uppercase()));
        assert!(!is_hash(""));
    }
}
