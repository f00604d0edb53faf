//! The lane kernels of the hot replay loops, as plain portable loops.
//!
//! Three integer kernels back the lockstep replay path and the cache
//! tag scan: a broadcast add over lane-indexed `u64` arrays, an
//! any-lane deadline test, and a 4-way set scan. Every operation is
//! exact integer arithmetic (wrapping adds and compares), so the
//! simulation output never depends on the host CPU, and the loops are
//! short enough for the compiler to vectorize or unroll as it sees fit.
//! Hand-vectorized SSE2/AVX2 variants measured no lockstep speedup
//! beyond run-to-run noise, so there is one portable kernel set.

/// The kernel set the replay loops run. There is exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdTier {
    /// The portable kernels of this module.
    Scalar,
}

impl SimdTier {
    /// Human-readable kernel-set name, printed in benchmark host
    /// headers so recorded timings say which kernels produced them.
    pub fn label(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
        }
    }
}

/// The kernel set in use. It is always [`SimdTier::Scalar`]; the
/// function stays because benchmark reports print its label next to
/// their host fingerprint, and older reports name other tiers there.
pub fn tier() -> SimdTier {
    SimdTier::Scalar
}

/// Adds `inc` to every element of `xs` (wrapping).
///
/// The lockstep replay uses this to advance every lane's cycle counter
/// by the shared per-entry increment in one pass.
#[inline]
pub fn add_broadcast(xs: &mut [u64], inc: u64) {
    for x in xs {
        *x = x.wrapping_add(inc);
    }
}

/// Returns `true` if any lane's next event deadline falls within the
/// entry about to be replayed: `next_ev[i] <= cycle[i] + step`
/// (unsigned, wrapping add — idle lanes carry `u64::MAX`).
///
/// # Panics
///
/// Panics if the two slices differ in length (debug builds).
#[inline]
pub fn any_due(next_ev: &[u64], cycle: &[u64], step: u64) -> bool {
    debug_assert_eq!(next_ev.len(), cycle.len());
    next_ev
        .iter()
        .zip(cycle)
        .any(|(&ne, &cy)| ne <= cy.wrapping_add(step))
}

/// Scans a 4-way set: returns `(hit_way, victim_way)` where `hit_way`
/// is the matching way index or `4` on a miss, and `victim_way` is the
/// replacement choice — the first empty way (`tags[i] == u64::MAX`) if
/// any, else the first way with the smallest LRU stamp.
///
/// Precondition (upheld by the cache): non-empty tags within a set are
/// unique, and live LRU stamps are `>= 1` so empty ways (key 0) always
/// win the strict-`<` argmin.
#[inline(always)]
pub fn scan4(tags: &[u64; 4], lru: &[u32; 4], tag: u64) -> (u32, u32) {
    let mut hit = 4u32;
    let mut victim = 0u32;
    let mut best = u32::MAX;
    for i in 0..4 {
        if tags[i] == tag && hit == 4 {
            hit = i as u32;
        }
        let key = if tags[i] == u64::MAX { 0 } else { lru[i] };
        if key < best {
            best = key;
            victim = i as u32;
        }
    }
    (hit, victim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_due_handles_wrapping_sums() {
        // cycle + step wraps past u64::MAX and must wrap, not saturate:
        // each lane alone against the sum taken modulo 2^64 in u128.
        let cycle = [u64::MAX - 1, 5, u64::MAX, 0];
        let next_ev = [3, u64::MAX, u64::MAX - 1, 1];
        for step in [0, 1, 2, u64::MAX] {
            let mut want_any = false;
            for i in 0..4 {
                let sum = (u128::from(cycle[i]) + u128::from(step)) % (1u128 << 64);
                let want = u128::from(next_ev[i]) <= sum;
                want_any |= want;
                assert_eq!(
                    any_due(&next_ev[i..=i], &cycle[i..=i], step),
                    want,
                    "lane {i} step {step}"
                );
            }
            assert_eq!(any_due(&next_ev, &cycle, step), want_any, "step {step}");
        }
        // MAX-1 + 2 wraps to 0, so lane 0 is not due (saturation would be).
        assert!(!any_due(&[3], &[u64::MAX - 1], 2));
    }

    #[test]
    fn add_broadcast_wraps() {
        let mut xs = [0, 7, u64::MAX];
        add_broadcast(&mut xs, 2);
        assert_eq!(xs, [2, 9, 1]);
    }

    #[test]
    fn scan4_prefers_first_empty_way_then_first_lru_tie() {
        let lru = [7, 3, 3, 9];
        // No empties: first of the tied-minimum ways (1) wins.
        let tags = [10, 20, 30, 40];
        assert_eq!(scan4(&tags, &lru, 30), (2, 1));
        assert_eq!(scan4(&tags, &lru, 99), (4, 1));
        // An empty way beats every live stamp.
        let tags = [10, 20, u64::MAX, u64::MAX];
        assert_eq!(scan4(&tags, &lru, 10), (0, 2));
    }
}
