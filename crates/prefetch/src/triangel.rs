//! Triangel-style temporal prefetching with usefulness-sampled
//! metadata filtering (after Ainsworth & Elsman, ISCA 2024,
//! arXiv:2406.10627).
//!
//! Classic temporal (Markov) prefetchers record every observed
//! miss-successor pair, so irregular streams bloat the metadata table
//! and evict the pairs that actually recur. Triangel's contribution is
//! *filtering the training stream*: a small, always-on sample table
//! watches a 1-in-N sample of each PC's miss pairs and checks — on the
//! PC's next miss — whether the sampled successor actually repeated.
//! Each PC carries a signed usefulness counter fed by those sampled
//! checks, and only PCs whose counter stays non-negative are allowed
//! to *train* the main Markov table (everyone may still read it).
//! A thrashy pointer-chase PC thus loses its training rights after a
//! handful of failed samples and stops polluting shared metadata.
//!
//! Adaptation to this reproduction's event model: the engine reports
//! only off-chip load misses and prefetch-buffer hits (no raw L1
//! accesses), so the "temporal stream" here is the per-PC sequence of
//! L2-visible lines, and prefetch-buffer hits extend it exactly as the
//! misses they replaced would have. Tables are set-associative with
//! LRU stamps, matching the other on-chip baselines; all state is
//! deterministic (the 1-in-N sampler is a per-PC miss counter, not a
//! random draw), which the lockstep byte-identity battery requires.

use ebcp_types::{AccessKind, LineAddr, Pc};
use serde::{Deserialize, Serialize};

use crate::api::{Action, MissInfo, PrefetchHitInfo, Prefetcher};

/// Triangel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TriangelConfig {
    /// Per-PC training-state entries (direct-mapped; power of two).
    pub pc_entries: usize,
    /// Sample-table sets (the always-on 1-in-N pair sampler).
    pub sample_sets: usize,
    /// Sample-table ways per set.
    pub sample_ways: usize,
    /// Main Markov metadata-table sets.
    pub markov_sets: usize,
    /// Markov-table ways per set.
    pub markov_ways: usize,
    /// Maximum chained predictions per miss.
    pub degree: usize,
    /// Sample one pair per this many misses of a PC.
    pub sample_rate: u64,
    /// Usefulness counter saturation bound (counts in `[-cap, cap]`).
    pub useful_cap: i32,
}

impl TriangelConfig {
    /// Reference configuration: 1K PC entries, 64×4 sampler,
    /// 4K×8 Markov table, degree 4, 1-in-8 sampling.
    pub const fn default_config() -> Self {
        TriangelConfig {
            pc_entries: 1 << 10,
            sample_sets: 64,
            sample_ways: 4,
            markov_sets: 4 << 10,
            markov_ways: 8,
            degree: 4,
            sample_rate: 8,
            useful_cap: 8,
        }
    }

    /// A shrunk configuration for scaled-down sweeps.
    pub const fn small() -> Self {
        TriangelConfig {
            pc_entries: 256,
            sample_sets: 16,
            sample_ways: 4,
            markov_sets: 512,
            markov_ways: 8,
            degree: 4,
            sample_rate: 8,
            useful_cap: 8,
        }
    }
}

/// Sentinel for "no line recorded yet".
const NO_LINE: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct PcEntry {
    /// Full PC tag (`NO_LINE` = invalid).
    pc: u64,
    /// Last L2-visible line this PC touched.
    last_line: u64,
    /// Armed sample check: the line the sampler predicts this PC
    /// touches next (`NO_LINE` = none armed).
    pending: u64,
    /// Signed usefulness; training rights require `>= 0`.
    useful: i32,
    /// Misses observed (drives the deterministic 1-in-N sampler).
    misses: u64,
}

impl Default for PcEntry {
    fn default() -> Self {
        PcEntry {
            pc: NO_LINE,
            last_line: NO_LINE,
            pending: NO_LINE,
            useful: 0,
            misses: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct PairEntry {
    key: u64,
    next: u64,
    valid: bool,
    lru: u64,
}

/// A set-associative line → successor-line table (shared by the sample
/// table and the main Markov table).
#[derive(Debug, Clone)]
struct PairTable {
    entries: Vec<PairEntry>,
    sets: usize,
    ways: usize,
    stamp: u64,
}

impl PairTable {
    fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0);
        PairTable {
            entries: vec![PairEntry::default(); sets * ways],
            sets,
            ways,
            stamp: 0,
        }
    }

    fn lookup(&mut self, key: u64) -> Option<u64> {
        let base = (key % self.sets as u64) as usize * self.ways;
        self.stamp += 1;
        for i in base..base + self.ways {
            let e = &mut self.entries[i];
            if e.valid && e.key == key {
                e.lru = self.stamp;
                return Some(e.next);
            }
        }
        None
    }

    fn insert(&mut self, key: u64, next: u64) {
        let base = (key % self.sets as u64) as usize * self.ways;
        self.stamp += 1;
        for i in base..base + self.ways {
            if self.entries[i].valid && self.entries[i].key == key {
                self.entries[i].next = next;
                self.entries[i].lru = self.stamp;
                return;
            }
        }
        let victim = (base..base + self.ways)
            .min_by_key(|&i| {
                if self.entries[i].valid {
                    self.entries[i].lru
                } else {
                    0
                }
            })
            .unwrap_or(base);
        self.entries[victim] = PairEntry {
            key,
            next,
            valid: true,
            lru: self.stamp,
        };
    }
}

/// Triangel-style temporal prefetcher with sampled metadata filtering.
///
/// # Examples
///
/// ```
/// use ebcp_prefetch::{Prefetcher, TriangelConfig, TriangelPrefetcher};
/// let p = TriangelPrefetcher::new(TriangelConfig::default_config());
/// assert_eq!(p.name(), "triangel");
/// ```
#[derive(Debug, Clone)]
pub struct TriangelPrefetcher {
    config: TriangelConfig,
    pcs: Vec<PcEntry>,
    sample: PairTable,
    markov: PairTable,
    name: String,
}

impl TriangelPrefetcher {
    /// Creates the prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if `pc_entries` is zero or not a power of two, any table
    /// dimension is zero, or `sample_rate` is zero.
    pub fn new(config: TriangelConfig) -> Self {
        assert!(config.pc_entries.is_power_of_two() && config.pc_entries > 0);
        assert!(config.sample_rate > 0);
        TriangelPrefetcher {
            config,
            pcs: vec![PcEntry::default(); config.pc_entries],
            sample: PairTable::new(config.sample_sets, config.sample_ways),
            markov: PairTable::new(config.markov_sets, config.markov_ways),
            name: "triangel".to_owned(),
        }
    }

    /// Overrides the display name.
    #[must_use]
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_owned();
        self
    }

    fn pc_slot(&self, pc: u64) -> usize {
        (pc.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 13) as usize & (self.config.pc_entries - 1)
    }

    fn handle(&mut self, pc: Pc, line: LineAddr, out: &mut Vec<Action>) {
        let slot = self.pc_slot(pc.get());
        let cap = self.config.useful_cap;
        let mut e = self.pcs[slot];
        if e.pc != pc.get() {
            e = PcEntry {
                pc: pc.get(),
                ..PcEntry::default()
            };
        }

        // Resolve an armed sample check: did the sampled successor
        // actually repeat?
        if e.pending != NO_LINE {
            if e.pending == line.index() {
                e.useful = (e.useful + 1).min(cap);
            } else {
                e.useful = (e.useful - 1).max(-cap);
            }
            e.pending = NO_LINE;
        }

        if e.last_line != NO_LINE {
            e.misses += 1;
            // 1-in-N sampler: record this pair in the sample table.
            if e.misses.is_multiple_of(self.config.sample_rate) {
                self.sample.insert(e.last_line, line.index());
            }
            // Arm a check if the sampler has seen this line before: the
            // PC's next miss should match the sampled successor.
            if let Some(next) = self.sample.lookup(line.index()) {
                e.pending = next;
            }
            // Metadata filtering: only PCs with standing usefulness may
            // train the shared Markov table.
            if e.useful >= 0 {
                self.markov.insert(e.last_line, line.index());
            }
        }
        e.last_line = line.index();

        // Predict: chain Markov successors from the current line.
        if e.useful >= 0 {
            let mut cur = line.index();
            for _ in 0..self.config.degree {
                let Some(next) = self.markov.lookup(cur) else {
                    break;
                };
                out.push(Action::Prefetch {
                    line: LineAddr::from_index(next),
                    origin: 0,
                });
                cur = next;
            }
        }
        self.pcs[slot] = e;
    }
}

impl Prefetcher for TriangelPrefetcher {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_miss(&mut self, info: &MissInfo, out: &mut Vec<Action>) {
        if info.kind != AccessKind::Load {
            return; // data-side temporal streams only
        }
        self.handle(info.pc, info.line, out);
    }

    fn on_prefetch_hit(&mut self, info: &PrefetchHitInfo, out: &mut Vec<Action>) {
        if info.kind != AccessKind::Load {
            return;
        }
        // A buffer hit is the miss the prefetch absorbed: the temporal
        // stream continues through it.
        self.handle(info.pc, info.line, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss(pc: u64, line: u64) -> MissInfo {
        MissInfo {
            line: LineAddr::from_index(line),
            pc: Pc::new(pc),
            kind: AccessKind::Load,
            epoch_trigger: true,
            now: 0,
            core: 0,
        }
    }

    fn drive(p: &mut TriangelPrefetcher, pc: u64, lines: &[u64]) -> Vec<u64> {
        let mut pf = Vec::new();
        for &l in lines {
            let mut out = Vec::new();
            p.on_miss(&miss(pc, l), &mut out);
            pf.extend(out.iter().filter_map(|a| match a {
                Action::Prefetch { line, .. } => Some(line.index()),
                _ => None,
            }));
        }
        pf
    }

    #[test]
    fn recurring_stream_is_predicted() {
        let mut p = TriangelPrefetcher::new(TriangelConfig::small());
        let stream: Vec<u64> = (0..8).map(|i| 0x100 + i * 3).collect();
        let mut seq = stream.clone();
        seq.extend(&stream);
        let pf = drive(&mut p, 0x40, &seq);
        // Second pass walks trained Markov pairs.
        assert!(pf.contains(&stream[1]), "{pf:?}");
        assert!(pf.contains(&stream[2]), "{pf:?}");
    }

    #[test]
    fn predictions_chain_up_to_degree() {
        let mut p = TriangelPrefetcher::new(TriangelConfig {
            degree: 3,
            ..TriangelConfig::small()
        });
        let stream = [10u64, 20, 30, 40, 50, 60];
        let mut seq = stream.to_vec();
        seq.push(10);
        let pf = drive(&mut p, 0x40, &seq);
        // Re-touching the head chains 20, 30, 40 (degree 3).
        assert_eq!(pf, vec![20, 30, 40]);
    }

    #[test]
    fn failed_samples_revoke_training_rights() {
        // A PC whose "successor" never repeats: every armed sample check
        // fails, usefulness goes negative, and prediction stops.
        let mut p = TriangelPrefetcher::new(TriangelConfig {
            sample_rate: 1, // sample every pair: fastest feedback
            ..TriangelConfig::small()
        });
        // Lines alternate A -> x_i where x_i never repeats: the sampled
        // pair (A -> x_i) is re-checked on the next visit to A's
        // successor slot and always mismatches.
        let mut seq = Vec::new();
        for i in 0..40u64 {
            seq.push(0xA);
            seq.push(0x1000 + i);
        }
        let pf = drive(&mut p, 0x40, &seq);
        // Early pairs may predict before usefulness collapses; the tail
        // must be silent.
        let tail = drive(&mut p, 0x40, &[0xA, 0x2000, 0xA, 0x3000]);
        assert!(
            tail.is_empty(),
            "filtered PC must stop predicting: {tail:?}"
        );
        let _ = pf;
    }

    #[test]
    fn filtered_pc_does_not_pollute_shared_metadata() {
        // An irregular PC and a recurring PC share the Markov table.
        // Once filtered, the irregular PC stops training, so the
        // recurring PC's pairs survive even in a tiny table.
        let cfg = TriangelConfig {
            markov_sets: 4,
            markov_ways: 2,
            sample_rate: 1,
            ..TriangelConfig::small()
        };
        let mut p = TriangelPrefetcher::new(cfg);
        // Burn in the irregular PC until it is filtered.
        for i in 0..64u64 {
            drive(&mut p, 0x99, &[0xA, 0x4000 + i]);
        }
        // Now interleave: recurring stream + (filtered) irregular noise.
        // Stream lines land in distinct Markov sets (mod 4).
        let stream = [0x10u64, 0x21, 0x32];
        for i in 0..4u64 {
            for &l in &stream {
                drive(&mut p, 0x40, &[l]);
                drive(&mut p, 0x99, &[0x8000 + i * 16 + l]);
            }
        }
        let pf = drive(&mut p, 0x40, &[0x10]);
        assert!(pf.contains(&0x21), "trained pair must survive: {pf:?}");
    }

    #[test]
    fn instruction_misses_ignored() {
        let mut p = TriangelPrefetcher::new(TriangelConfig::small());
        let mut out = Vec::new();
        for l in [1u64, 2, 3, 1, 2, 3] {
            p.on_miss(
                &MissInfo {
                    kind: AccessKind::InstrFetch,
                    ..miss(0x40, l)
                },
                &mut out,
            );
        }
        assert!(out.is_empty());
    }

    #[test]
    fn prefetch_hits_extend_the_stream() {
        let mut p = TriangelPrefetcher::new(TriangelConfig::small());
        drive(&mut p, 0x40, &[1, 2, 3, 1]);
        // The prefetch-buffer hit on 2 continues training the stream.
        let mut out = Vec::new();
        p.on_prefetch_hit(
            &PrefetchHitInfo {
                line: LineAddr::from_index(2),
                pc: Pc::new(0x40),
                kind: AccessKind::Load,
                origin: 0,
                would_be_trigger: false,
                now: 0,
                core: 0,
            },
            &mut out,
        );
        let pf: Vec<u64> = out
            .iter()
            .filter_map(|a| match a {
                Action::Prefetch { line, .. } => Some(line.index()),
                _ => None,
            })
            .collect();
        assert!(pf.contains(&3), "{pf:?}");
    }
}
