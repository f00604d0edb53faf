//! Differential battery for lockstep multi-prefetcher replay.
//!
//! The lockstep engine (`ebcp_sim::Lockstep`) claims byte-identity with
//! serial replay. This battery checks that claim two ways:
//!
//! 1. the full sweep roster × workload matrix, every lane compared to
//!    its own serial `run_preresolved` result;
//! 2. randomized lane subsets, lane orderings and replay-budget split
//!    points, driven through the raw `Lockstep` API. The PRNG seed is
//!    printed and embedded in every assertion message, so a failure is
//!    reproducible from the log alone.

use ebcp_bench::throughput::sweep_roster;
use ebcp_bench::Scale;
use ebcp_sim::{Engine, Lockstep, PrefetcherSpec, ReplayCursor, RunSpec, SimConfig};
use ebcp_trace::WorkloadSpec;

/// xorshift64* — deterministic, dependency-free randomness.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Splits `total` into 1..=4 random non-negative chunks that sum back
/// to `total` (zero-sized chunks included on purpose: a zero-budget
/// replay call must be a no-op).
fn random_splits(total: u64, rng: &mut Rng) -> Vec<u64> {
    let n = 1 + rng.below(4);
    let mut parts = Vec::new();
    let mut left = total;
    for _ in 1..n {
        let cut = rng.below(left + 1);
        parts.push(cut);
        left -= cut;
    }
    parts.push(left);
    parts
}

/// Every roster lane of every workload, lockstep vs serial — the full
/// differential matrix. The
/// machine is the quick (1/16) CI scale; the instruction budget is
/// trimmed so the matrix stays test-suite-sized.
#[test]
fn full_roster_matrix_is_byte_identical() {
    let scale = Scale {
        den: 16,
        warm_tenths: 5,
        measure_tenths: 5,
        seed: 11,
    };
    let roster = sweep_roster(scale);
    assert!(roster.len() >= 14, "roster shrank to {}", roster.len());
    for w in scale.workloads_all() {
        let spec = scale.run_spec(&w, scale.machine());
        let pre = spec.pre_resolve();
        let serial: Vec<_> = roster
            .iter()
            .map(|pf| spec.run_preresolved(&pre, pf))
            .collect();
        let lanes = spec.run_preresolved_many(&pre, &roster);
        assert_eq!(lanes.len(), roster.len());
        for ((pf, lane), reference) in roster.iter().zip(&lanes).zip(&serial) {
            let got = lane
                .as_ref()
                .unwrap_or_else(|e| panic!("{} x {} died: {e}", w.name, pf.name()));
            assert_eq!(
                got,
                reference,
                "{} x {} diverged from serial replay",
                w.name,
                pf.name()
            );
        }
    }
}

/// Randomized lane subsets, orderings and budget split points through
/// the raw `Lockstep` API: any way of carving the warm-up and measure
/// budgets into replay calls, over any subset of lanes in any order,
/// must reproduce each lane's serial result exactly.
#[test]
fn randomized_subsets_orderings_and_budget_splits_match_serial() {
    let seed: u64 = 0x9E37_79B9_7F4A_7C15;
    println!("lockstep battery seed: {seed:#x}");
    let mut rng = Rng::new(seed);

    let spec = RunSpec {
        workload: WorkloadSpec::database().scaled(1, 32),
        seed: 11,
        warmup_insts: 40_000,
        measure_insts: 50_000,
        sim: SimConfig::scaled_down(16),
    };
    let pre = spec.pre_resolve();
    let roster = sweep_roster(Scale::quick());
    let serial: Vec<_> = roster
        .iter()
        .map(|pf| spec.run_preresolved(&pre, pf))
        .collect();

    for round in 0..12 {
        // A random non-empty subset, in random order.
        let mut picked: Vec<usize> = (0..roster.len()).filter(|_| rng.below(2) == 1).collect();
        if picked.is_empty() {
            picked.push(rng.below(roster.len() as u64) as usize);
        }
        shuffle(&mut picked, &mut rng);

        let engines = picked
            .iter()
            .map(|&k| Engine::new(spec.sim, roster[k].build()))
            .collect();
        let mut group = Lockstep::new(engines);
        let mut cur = ReplayCursor::default();
        let warm_splits = random_splits(spec.warmup_insts, &mut rng);
        for chunk in &warm_splits {
            group.replay(&pre.events, &mut cur, *chunk);
        }
        group.reset_stats();
        let measure_splits = random_splits(spec.measure_insts, &mut rng);
        for chunk in &measure_splits {
            group.replay(&pre.events, &mut cur, *chunk);
        }
        let lanes = group.results(&spec.workload.name);

        for (lane, &k) in lanes.iter().zip(&picked) {
            let got = lane.as_ref().unwrap_or_else(|e| {
                panic!(
                    "seed {seed:#x} round {round}: lane {} died \
                     (warm splits {warm_splits:?}, measure splits {measure_splits:?}): {e}",
                    roster[k].name()
                )
            });
            assert_eq!(
                got,
                &serial[k],
                "seed {seed:#x} round {round}: lane {} diverged \
                 (warm splits {warm_splits:?}, measure splits {measure_splits:?})",
                roster[k].name()
            );
        }
    }
}

/// A fault lane injected at a random position dies alone; every
/// sibling lane still matches its serial result bit for bit.
#[test]
fn random_fault_lane_position_never_disturbs_siblings() {
    use ebcp_prefetch::{BaselineConfig, FaultConfig};
    let seed: u64 = 0xD1B5_4A32_D192_ED03;
    println!("lockstep fault battery seed: {seed:#x}");
    let mut rng = Rng::new(seed);

    let spec = RunSpec {
        workload: WorkloadSpec::database().scaled(1, 32),
        seed: 11,
        warmup_insts: 40_000,
        measure_insts: 50_000,
        sim: SimConfig::scaled_down(16),
    };
    let pre = spec.pre_resolve();
    let roster = sweep_roster(Scale::quick());
    let serial: Vec<_> = roster
        .iter()
        .map(|pf| spec.run_preresolved(&pre, pf))
        .collect();

    for round in 0..4 {
        let slot = rng.below(roster.len() as u64 + 1) as usize;
        let mut pfs: Vec<PrefetcherSpec> = roster.clone();
        pfs.insert(
            slot,
            PrefetcherSpec::baseline(
                "fault",
                BaselineConfig::Fault(FaultConfig::panic_after(rng.below(60))),
            ),
        );
        let lanes = spec.run_preresolved_many(&pre, &pfs);
        for (i, lane) in lanes.iter().enumerate() {
            if i == slot {
                let reason = lane.as_ref().expect_err("fault lane must die");
                assert!(
                    reason.contains("injected fault"),
                    "seed {seed:#x} round {round}: unexpected reason {reason}"
                );
                continue;
            }
            let k = if i < slot { i } else { i - 1 };
            let got = lane.as_ref().unwrap_or_else(|e| {
                panic!(
                    "seed {seed:#x} round {round}: sibling {} died: {e}",
                    pfs[i].name()
                )
            });
            assert_eq!(
                got,
                &serial[k],
                "seed {seed:#x} round {round}: sibling {} disturbed by fault lane at {slot}",
                pfs[i].name()
            );
        }
    }
}
