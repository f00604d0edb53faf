//! Streaming XXH64 (seed 0): the integrity checksum of the on-disk
//! segmented formats.
//!
//! The segmented trace and pre-resolved stream files hash every payload
//! byte on write and again on open, so the checksum sits on the
//! streamed path's critical loop. XXH64 consumes 32 bytes per step in
//! four independent 64-bit lanes, where byte-serial FNV-1a pays one
//! dependent multiply per byte. It is an *integrity* hash, not an
//! identity hash: store keys keep FNV-1a, because file names and pinned
//! digests depend on its exact values.
//!
//! The digest depends only on the bytes fed, never on how they were
//! split across [`Checksum64::update`] calls.
//!
//! ```
//! use ebcp_types::checksum::{checksum64, Checksum64};
//!
//! let mut h = Checksum64::new();
//! h.update(b"ab");
//! h.update(b"c");
//! assert_eq!(h.finish(), checksum64(b"abc"));
//! assert_eq!(checksum64(b"abc"), 0x44bc_2cf5_ad77_0999);
//! ```

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes consumed per step (four 8-byte lanes).
const STRIPE: usize = 32;

#[inline(always)]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn merge(acc: u64, lane: u64) -> u64 {
    (acc ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
}

#[inline(always)]
fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte slice"))
}

/// Incremental XXH64 state (seed 0).
#[derive(Clone, Debug)]
pub struct Checksum64 {
    lanes: [u64; 4],
    /// Bytes of a partial stripe carried to the next `update`.
    tail: [u8; STRIPE],
    tail_len: usize,
    total: u64,
}

impl Default for Checksum64 {
    fn default() -> Self {
        Checksum64::new()
    }
}

impl Checksum64 {
    /// A fresh state.
    #[must_use]
    pub const fn new() -> Self {
        Checksum64 {
            lanes: [P1.wrapping_add(P2), P2, 0, 0u64.wrapping_sub(P1)],
            tail: [0; STRIPE],
            tail_len: 0,
            total: 0,
        }
    }

    /// Folds whole stripes into the lanes, kept in locals so the four
    /// dependency chains run in parallel.
    #[inline(always)]
    fn stripes(&mut self, bytes: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for s in bytes.chunks_exact(STRIPE) {
            let s: &[u8; STRIPE] = s.try_into().expect("stripe-sized chunk");
            a = round(a, le64(&s[0..8]));
            b = round(b, le64(&s[8..16]));
            c = round(c, le64(&s[16..24]));
            d = round(d, le64(&s[24..32]));
        }
        self.lanes = [a, b, c, d];
    }

    /// Folds `bytes` into the state.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.tail_len > 0 {
            let take = (STRIPE - self.tail_len).min(bytes.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < STRIPE {
                return;
            }
            let tail = self.tail;
            self.stripes(&tail);
            self.tail_len = 0;
        }
        let whole = bytes.len() / STRIPE * STRIPE;
        self.stripes(&bytes[..whole]);
        let rest = &bytes[whole..];
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The digest of everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = if self.total >= STRIPE as u64 {
            let h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            merge(merge(merge(merge(h, a), b), c), d)
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let mut rest = &self.tail[..self.tail_len];
        while rest.len() >= 8 {
            h = (h ^ round(0, le64(rest)))
                .rotate_left(27)
                .wrapping_mul(P1)
                .wrapping_add(P4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let k = u64::from(u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")));
            h = (h ^ k.wrapping_mul(P1))
                .rotate_left(23)
                .wrapping_mul(P2)
                .wrapping_add(P3);
            rest = &rest[4..];
        }
        for &byte in rest {
            h = (h ^ u64::from(byte).wrapping_mul(P5))
                .rotate_left(11)
                .wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// One-shot XXH64 (seed 0) of `bytes`.
#[must_use]
pub fn checksum64(bytes: &[u8]) -> u64 {
    let mut h = Checksum64::new();
    h.update(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reference_vectors() {
        assert_eq!(checksum64(b""), 0xef46_db37_51d8_e999);
        assert_eq!(checksum64(b"a"), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(checksum64(b"abc"), 0x44bc_2cf5_ad77_0999);
    }

    fn sample(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9).rotate_left(13) as u8)
            .collect()
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        let data = sample(64);
        for len in [0, 1, 31, 32, 33, 63, 64] {
            let whole = checksum64(&data[..len]);
            for cut in 0..=len {
                let mut h = Checksum64::new();
                h.update(&data[..cut]);
                h.update(&data[cut..len]);
                assert_eq!(h.finish(), whole, "len {len}, cut {cut}");
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let data = sample(256);
        let clean = checksum64(&data);
        let mut flipped = data.clone();
        for bit in 0..data.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&flipped), clean, "bit {bit}");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    proptest! {
        /// Feeding the bytes in arbitrary pieces never changes the digest.
        #[test]
        fn random_splits_match_one_shot(
            data in proptest::collection::vec(any::<u8>(), 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut h = Checksum64::new();
            let mut from = 0;
            for c in cuts {
                h.update(&data[from..c]);
                from = c;
            }
            h.update(&data[from..]);
            prop_assert_eq!(h.finish(), checksum64(&data));
        }
    }
}
