//! One driver per table/figure of §5.
//!
//! Every driver describes its work as a batch of content-addressed
//! [`Job`]s and submits it to a shared [`Harness`], which deduplicates,
//! parallelizes and caches. Row order is fixed by submission order, so
//! the rendered tables are identical for any `--jobs` count. Because the
//! harness memoizes across batches, baselines shared between figures
//! (e.g. the plain-machine no-prefetch run used by Table 1, Figure 7,
//! Figure 9 and the ablations) simulate exactly once per `repro all`.

use ebcp_core::EbcpConfig;
use ebcp_harness::{CmpJob, Harness, Job};
use ebcp_prefetch::{BaselineConfig, SolihinConfig};
use ebcp_sim::{PrefetcherSpec, SimResult};
use ebcp_trace::WorkloadSpec;

use crate::scale::Scale;

/// One row of Table 1 (baseline characterization).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Workload name.
    pub workload: String,
    /// Measured overall CPI.
    pub cpi: f64,
    /// Measured epochs per 1000 instructions.
    pub epi: f64,
    /// Measured L2 instruction misses per 1000 instructions.
    pub inst_mr: f64,
    /// Measured L2 load misses per 1000 instructions.
    pub load_mr: f64,
    /// Measured secondary (MSHR-merged) misses per 1000 instructions.
    /// No paper counterpart; Table 1 of the paper does not report it.
    pub sec_mr: f64,
    /// Paper values `[cpi, epi, inst_mr, load_mr]`.
    pub paper: [f64; 4],
}

/// Paper Table 1 reference values per preset (reporting order).
pub const TABLE1_PAPER: [(&str, [f64; 4]); 4] = [
    ("database", [3.27, 4.07, 1.00, 6.23]),
    ("tpcw", [2.00, 1.59, 0.71, 1.27]),
    ("specjbb2005", [2.06, 2.65, 0.12, 4.30]),
    ("specjappserver2004", [2.78, 3.25, 1.57, 2.64]),
];

fn paper_table1(workload: &str) -> [f64; 4] {
    TABLE1_PAPER
        .iter()
        .find(|(n, _)| *n == workload)
        .map(|(_, v)| *v)
        .unwrap_or([0.0; 4])
}

/// **Table 1**: baseline (no prefetching) statistics for the four
/// workloads.
pub fn table1(h: &Harness, scale: Scale) -> Vec<Table1Row> {
    let workloads = scale.workloads();
    let jobs: Vec<Job> = workloads
        .iter()
        .map(|w| Job::new(scale.run_spec(w, scale.machine()), PrefetcherSpec::None))
        .collect();
    let results = h.run(&jobs);
    workloads
        .iter()
        .zip(&results)
        .map(|(w, r)| Table1Row {
            workload: w.name.clone(),
            cpi: r.cpi(),
            epi: r.epi_per_kilo(),
            inst_mr: r.inst_mr(),
            load_mr: r.load_mr(),
            sec_mr: r.secondary_mr(),
            paper: paper_table1(&w.name),
        })
        .collect()
}

/// One point of a one-dimensional design-space sweep (Figures 4-7).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Workload name.
    pub workload: String,
    /// The swept parameter's value (prefetch degree, table entries or
    /// prefetch-buffer entries).
    pub x: u64,
    /// Overall performance improvement over no prefetching.
    pub improvement: f64,
    /// EPI reduction over no prefetching (Figure 5).
    pub epi_reduction: f64,
    /// Prefetch coverage (Figure 5).
    pub coverage: f64,
    /// Prefetch accuracy (Figure 5).
    pub accuracy: f64,
    /// Residual L2 instruction miss rate per 1000 instructions.
    pub inst_mr: f64,
    /// Residual L2 load miss rate per 1000 instructions.
    pub load_mr: f64,
}

fn sweep_point(workload: &str, x: u64, r: &SimResult, base: &SimResult) -> SweepPoint {
    SweepPoint {
        workload: workload.to_owned(),
        x,
        improvement: r.improvement_over(base),
        epi_reduction: r.epi_reduction_over(base),
        coverage: r.coverage(),
        accuracy: r.accuracy(),
        inst_mr: r.inst_mr(),
        load_mr: r.load_mr(),
    }
}

/// The idealized design-space starting point (§5.2): an 8M-entry table
/// (scaled), 32 addresses per entry, a 1024-entry prefetch buffer.
fn idealized_config(scale: Scale) -> EbcpConfig {
    EbcpConfig::idealized().with_table_entries(scale.entries(8 << 20))
}

/// A per-workload sweep: a shared baseline job followed by one job per
/// `x` value, assembled into [`SweepPoint`]s against that baseline.
/// `include_base_row` prepends the `x = 0` baseline row (Figures 4/5).
fn run_sweep(
    h: &Harness,
    scale: Scale,
    include_base_row: bool,
    jobs_for: impl Fn(&WorkloadSpec) -> (Job, Vec<(u64, Job)>),
) -> Vec<SweepPoint> {
    let workloads = scale.workloads();
    let mut jobs: Vec<Job> = Vec::new();
    let mut xs: Vec<Vec<u64>> = Vec::new();
    for w in &workloads {
        let (base, sweep) = jobs_for(w);
        jobs.push(base);
        xs.push(sweep.iter().map(|(x, _)| *x).collect());
        jobs.extend(sweep.into_iter().map(|(_, j)| j));
    }
    let results = h.run(&jobs);
    let mut rows = Vec::new();
    let mut cursor = 0;
    for (w, xvals) in workloads.iter().zip(&xs) {
        let base = &results[cursor];
        if include_base_row {
            rows.push(sweep_point(&w.name, 0, base, base));
        }
        for (i, &x) in xvals.iter().enumerate() {
            rows.push(sweep_point(&w.name, x, &results[cursor + 1 + i], base));
        }
        cursor += 1 + xvals.len();
    }
    rows
}

/// **Figures 4 and 5**: the prefetch-degree sweep on the idealized
/// configuration. Figure 4 reads `improvement`; Figure 5 reads
/// `epi_reduction`, the miss-rate split, `coverage` and `accuracy`.
pub fn fig4_5(h: &Harness, scale: Scale) -> Vec<SweepPoint> {
    let degrees = [1u64, 2, 4, 8, 16, 32];
    run_sweep(h, scale, true, |w| {
        let spec = scale.run_spec(w, scale.machine().with_pbuf_entries(1024));
        let base = Job::new(spec.clone(), PrefetcherSpec::None);
        let sweep = degrees
            .iter()
            .map(|&d| {
                let cfg = idealized_config(scale).with_degree(d as usize);
                (d, Job::new(spec.clone(), PrefetcherSpec::Ebcp(cfg)))
            })
            .collect();
        (base, sweep)
    })
}

/// **Figure 6**: the correlation-table-size sweep at degree 8.
/// `x` is the table entry count at the experiment scale; multiply by the
/// scale denominator for the paper-equivalent size.
pub fn fig6(h: &Harness, scale: Scale) -> Vec<SweepPoint> {
    let entry_sweep: Vec<u64> = [
        8 << 20,
        4 << 20,
        2 << 20,
        1 << 20,
        256 << 10,
        64 << 10,
        16 << 10,
    ]
    .into_iter()
    .map(|e| scale.entries(e))
    .collect();
    run_sweep(h, scale, false, |w| {
        let spec = scale.run_spec(w, scale.machine().with_pbuf_entries(1024));
        let base = Job::new(spec.clone(), PrefetcherSpec::None);
        let sweep = entry_sweep
            .iter()
            .map(|&entries| {
                let cfg = idealized_config(scale)
                    .with_degree(8)
                    .with_table_entries(entries);
                (entries, Job::new(spec.clone(), PrefetcherSpec::Ebcp(cfg)))
            })
            .collect();
        (base, sweep)
    })
}

/// **Figure 7**: the prefetch-buffer-size sweep at degree 8 with the
/// 1M-entry (scaled) table. The 64-entry point is the tuned EBCP
/// (paper: +23 % database, +13 % TPC-W, +31 % SPECjbb2005,
/// +26 % SPECjAppServer2004).
pub fn fig7(h: &Harness, scale: Scale) -> Vec<SweepPoint> {
    let buffers = [1024usize, 512, 256, 128, 64, 32, 16];
    run_sweep(h, scale, false, |w| {
        // The baseline is independent of the buffer size — and identical
        // to Table 1's job, so it is served from the harness memo.
        let base = Job::new(scale.run_spec(w, scale.machine()), PrefetcherSpec::None);
        let cfg = EbcpConfig::tuned().with_table_entries(scale.entries(1 << 20));
        let sweep = buffers
            .iter()
            .map(|&b| {
                let spec = scale.run_spec(w, scale.machine().with_pbuf_entries(b));
                (b as u64, Job::new(spec, PrefetcherSpec::Ebcp(cfg)))
            })
            .collect();
        (base, sweep)
    })
}

/// One point of the Figure 8 bandwidth-sensitivity sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BwPoint {
    /// Workload name.
    pub workload: String,
    /// Read-bus bandwidth label ("3.2", "6.4", "9.6" GB/s).
    pub bandwidth: &'static str,
    /// Prefetch degree.
    pub degree: u64,
    /// Improvement over the same-bandwidth baseline.
    pub improvement: f64,
    /// Prefetches dropped (bus saturation + MSHR pressure).
    pub dropped: u64,
}

/// **Figure 8**: prefetch-degree sweep at three memory bandwidths
/// (read/write = 3.2/1.6, 6.4/3.2 and 9.6/4.8 GB/s).
pub fn fig8(h: &Harness, scale: Scale) -> Vec<BwPoint> {
    let degrees = [1u64, 2, 4, 8, 16, 32];
    let bws: [(u64, u64, &'static str); 3] = [(1, 3, "3.2"), (2, 3, "6.4"), (1, 1, "9.6")];
    let workloads = scale.workloads();
    let mut jobs: Vec<Job> = Vec::new();
    for w in &workloads {
        for (num, den, _) in bws {
            let sim = scale
                .machine()
                .with_bandwidth(num, den)
                .with_pbuf_entries(1024);
            let spec = scale.run_spec(w, sim);
            jobs.push(Job::new(spec.clone(), PrefetcherSpec::None));
            for &d in &degrees {
                let cfg = idealized_config(scale).with_degree(d as usize);
                jobs.push(Job::new(spec.clone(), PrefetcherSpec::Ebcp(cfg)));
            }
        }
    }
    let results = h.run(&jobs);
    let mut rows = Vec::new();
    let mut cursor = 0;
    for w in &workloads {
        for (_, _, label) in bws {
            let base = &results[cursor];
            for (i, &d) in degrees.iter().enumerate() {
                let r = &results[cursor + 1 + i];
                rows.push(BwPoint {
                    workload: w.name.clone(),
                    bandwidth: label,
                    degree: d,
                    improvement: r.improvement_over(base),
                    dropped: r.pf_dropped_bus + r.pf_dropped_mshr,
                });
            }
            cursor += 1 + degrees.len();
        }
    }
    rows
}

/// One bar of the Figure 9 comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CmpPoint {
    /// Workload name.
    pub workload: String,
    /// Prefetcher name.
    pub prefetcher: String,
    /// Improvement over no prefetching.
    pub improvement: f64,
    /// Coverage.
    pub coverage: f64,
    /// Accuracy.
    pub accuracy: f64,
    /// The paper's improvement, where §5.3 quotes one.
    pub paper: Option<f64>,
}

/// §5.3's quoted Figure 9 improvements.
pub fn fig9_paper(workload: &str, prefetcher: &str) -> Option<f64> {
    let v = match (workload, prefetcher) {
        ("database", "ebcp") => 0.20,
        ("tpcw", "ebcp") => 0.12,
        ("specjbb2005", "ebcp") => 0.28,
        ("specjappserver2004", "ebcp") => 0.24,
        ("database", "solihin-6,1") => 0.13,
        ("tpcw", "solihin-6,1") => 0.08,
        ("specjbb2005", "solihin-6,1") => 0.20,
        ("specjappserver2004", "solihin-6,1") => 0.16,
        _ => return None,
    };
    Some(v)
}

/// **Figure 9**: every prefetcher at degree 6 with equal table budgets.
/// The comparison extends the paper's bars with the modern competitor
/// roster (`triangel`, `amc`) and the neural-off-chip-filtered EBCP
/// (`ebcp+nof`); the paper-quoted values still anchor the original
/// eight plus EBCP.
pub fn fig9(h: &Harness, scale: Scale) -> Vec<CmpPoint> {
    let workloads = scale.workloads();
    let roster: Vec<PrefetcherSpec> = {
        let mut pfs: Vec<PrefetcherSpec> = scale
            .figure9_roster()
            .into_iter()
            .chain(scale.modern_roster())
            .map(|(n, c)| PrefetcherSpec::baseline(n, c))
            .collect();
        pfs.push(PrefetcherSpec::Ebcp(
            EbcpConfig::comparison().with_table_entries(scale.entries(1 << 20)),
        ));
        pfs.push(PrefetcherSpec::Ebcp(
            EbcpConfig::comparison_minus().with_table_entries(scale.entries(1 << 20)),
        ));
        pfs.push(PrefetcherSpec::filtered(PrefetcherSpec::Ebcp(
            EbcpConfig::comparison().with_table_entries(scale.entries(1 << 20)),
        )));
        pfs
    };
    let mut jobs: Vec<Job> = Vec::new();
    for w in &workloads {
        let spec = scale.run_spec(w, scale.machine());
        jobs.push(Job::new(spec.clone(), PrefetcherSpec::None));
        jobs.extend(roster.iter().map(|pf| Job::new(spec.clone(), pf.clone())));
    }
    let results = h.run(&jobs);
    let mut rows = Vec::new();
    let mut cursor = 0;
    for w in &workloads {
        let base = &results[cursor];
        for (i, pf) in roster.iter().enumerate() {
            let r = &results[cursor + 1 + i];
            rows.push(CmpPoint {
                workload: w.name.clone(),
                prefetcher: pf.name(),
                improvement: r.improvement_over(base),
                coverage: r.coverage(),
                accuracy: r.accuracy(),
                paper: fig9_paper(&w.name, &pf.name()),
            });
        }
        cursor += 1 + roster.len();
    }
    rows
}

/// One row of the ablation study (not in the paper's figures; DESIGN.md
/// calls these out as the EBCP design choices worth isolating).
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// Workload name.
    pub workload: String,
    /// Ablation label.
    pub variant: &'static str,
    /// Improvement over no prefetching.
    pub improvement: f64,
    /// Coverage.
    pub coverage: f64,
}

/// **Ablations**: the tuned EBCP with individual design choices
/// disabled — the EMAB pairing (`minus`), the §3.4.3 LRU feedback
/// (`no-promotion`), and buffer-hit triggering (`no-chaining`).
pub fn ablation(h: &Harness, scale: Scale) -> Vec<AblationPoint> {
    let entries = scale.entries(1 << 20);
    let tuned = EbcpConfig::tuned().with_table_entries(entries);
    let variants: Vec<(&'static str, EbcpConfig)> = vec![
        ("full", tuned),
        (
            "minus (+1/+2 window)",
            EbcpConfig {
                variant: ebcp_core::EbcpVariant::Minus,
                ..tuned
            },
        ),
        (
            "no-promotion",
            EbcpConfig {
                promote_on_hit: false,
                ..tuned
            },
        ),
        (
            "no-chaining",
            EbcpConfig {
                chain_on_buffer_hit: false,
                ..tuned
            },
        ),
        (
            "no-promotion+chaining",
            EbcpConfig {
                promote_on_hit: false,
                chain_on_buffer_hit: false,
                ..tuned
            },
        ),
    ];
    let workloads = scale.workloads();
    let mut jobs: Vec<Job> = Vec::new();
    for w in &workloads {
        let spec = scale.run_spec(w, scale.machine());
        jobs.push(Job::new(spec.clone(), PrefetcherSpec::None));
        jobs.extend(
            variants
                .iter()
                .map(|(_, cfg)| Job::new(spec.clone(), PrefetcherSpec::Ebcp(*cfg))),
        );
    }
    let results = h.run(&jobs);
    let mut rows = Vec::new();
    let mut cursor = 0;
    for w in &workloads {
        let base = &results[cursor];
        for (i, (label, _)) in variants.iter().enumerate() {
            let r = &results[cursor + 1 + i];
            rows.push(AblationPoint {
                workload: w.name.clone(),
                variant: label,
                improvement: r.improvement_over(base),
                coverage: r.coverage(),
            });
        }
        cursor += 1 + variants.len();
    }
    rows
}

/// One row of the CMP interleaving study (§3.3.1 / §6 future work).
#[derive(Debug, Clone, PartialEq)]
pub struct CmpPointRow {
    /// Prefetcher name.
    pub prefetcher: String,
    /// Cores on the chip.
    pub cores: usize,
    /// Mean per-core improvement over the same-core-count baseline.
    pub improvement: f64,
    /// Aggregate coverage.
    pub coverage: f64,
}

/// The CMP candidate roster: tuned EBCP (per-core EMABs over one shared
/// table) against the memory-side Solihin engine, whose successor
/// chains the interleaved miss stream scrambles as core count grows.
fn cmp_candidates(scale: Scale) -> [PrefetcherSpec; 2] {
    let entries = scale.entries(1 << 20);
    [
        PrefetcherSpec::Ebcp(EbcpConfig::comparison().with_table_entries(entries)),
        PrefetcherSpec::baseline(
            "solihin-6,1",
            BaselineConfig::Solihin(SolihinConfig {
                entries,
                ..SolihinConfig::deep()
            }),
        ),
    ]
}

/// **CMP interleaving** (the paper's §6 future work, quantifying the
/// §3.3.1 argument): N cores run *disjoint* database workloads over a
/// shared L2. The on-chip EBCP control sees which core each miss belongs
/// to and keeps per-core EMABs over one shared table; the memory-side
/// Solihin engine sees only the interleaved stream at the controller,
/// which scrambles its successor chains as core count grows.
///
/// CMP cells are first-class harness jobs: content-addressed, memoized
/// and disk-cached like any single-core cell, with per-core streams
/// pre-resolved once through the shared front-end cache and every cell
/// replayed on the discrete-event [`CmpEngine`](ebcp_sim::CmpEngine).
pub fn cmp_interleaving(h: &Harness, scale: Scale, core_counts: &[usize]) -> Vec<CmpPointRow> {
    let preset = WorkloadSpec::database();
    let candidates = cmp_candidates(scale);
    let mut jobs: Vec<CmpJob> = Vec::new();
    for &n in core_counts {
        let spec = scale.cmp_spec(&preset, n);
        jobs.push(CmpJob::new(spec.clone(), PrefetcherSpec::None));
        jobs.extend(
            candidates
                .iter()
                .map(|pf| CmpJob::new(spec.clone(), pf.clone())),
        );
    }
    let results = h.run(&jobs);
    let mut rows = Vec::new();
    let mut cursor = 0;
    for &n in core_counts {
        let base = &results[cursor];
        for (i, pf) in candidates.iter().enumerate() {
            let r = &results[cursor + 1 + i];
            rows.push(CmpPointRow {
                prefetcher: pf.name(),
                cores: n,
                improvement: r.improvement_over(base),
                coverage: r.coverage(),
            });
        }
        cursor += 1 + candidates.len();
    }
    rows
}

/// One point of the CMP bandwidth-scenario sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CmpBwPoint {
    /// Read-bus bandwidth label ("3.2", "6.4", "9.6" GB/s).
    pub bandwidth: &'static str,
    /// Cores on the chip.
    pub cores: usize,
    /// Prefetcher name.
    pub prefetcher: String,
    /// Mean per-core improvement over the same-bandwidth,
    /// same-core-count baseline.
    pub improvement: f64,
    /// Prefetches dropped chip-wide (bus saturation + MSHR pressure).
    pub dropped: u64,
}

/// **CMP bandwidth scenarios** (Figure 8 under real contention): the
/// disjoint database mixes of [`cmp_interleaving`] at the paper's three
/// memory bandwidths (read/write = 3.2/1.6, 6.4/3.2 and 9.6/4.8 GB/s).
/// Where single-core Figure 8 throttles one core's prefetches, here N
/// cores' demand misses *and* prefetches compete for the same bus, so
/// the drop counts show how contention scales with the core count.
pub fn cmp_bandwidth(h: &Harness, scale: Scale, core_counts: &[usize]) -> Vec<CmpBwPoint> {
    let bws: [(u64, u64, &'static str); 3] = [(1, 3, "3.2"), (2, 3, "6.4"), (1, 1, "9.6")];
    let preset = WorkloadSpec::database();
    let candidates = cmp_candidates(scale);
    let mut jobs: Vec<CmpJob> = Vec::new();
    for (num, den, _) in bws {
        for &n in core_counts {
            let mut spec = scale.cmp_spec(&preset, n);
            spec.sim = spec.sim.with_bandwidth(num, den);
            jobs.push(CmpJob::new(spec.clone(), PrefetcherSpec::None));
            jobs.extend(
                candidates
                    .iter()
                    .map(|pf| CmpJob::new(spec.clone(), pf.clone())),
            );
        }
    }
    let results = h.run(&jobs);
    let mut rows = Vec::new();
    let mut cursor = 0;
    for (_, _, label) in bws {
        for &n in core_counts {
            let base = &results[cursor];
            for (i, pf) in candidates.iter().enumerate() {
                let r = &results[cursor + 1 + i];
                rows.push(CmpBwPoint {
                    bandwidth: label,
                    cores: n,
                    prefetcher: pf.name(),
                    improvement: r.improvement_over(base),
                    dropped: r.aggregate.pf_dropped_bus + r.aggregate.pf_dropped_mshr,
                });
            }
            cursor += 1 + candidates.len();
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_values_present() {
        assert_eq!(paper_table1("database")[0], 3.27);
        assert_eq!(paper_table1("unknown"), [0.0; 4]);
        assert_eq!(fig9_paper("database", "ebcp"), Some(0.20));
        assert_eq!(fig9_paper("database", "stream"), None);
    }

    #[test]
    fn idealized_config_scales_entries() {
        let c = idealized_config(Scale::standard());
        assert_eq!(c.table_entries, (8 << 20) / 4);
        assert_eq!(c.degree, 32);
    }

    #[test]
    fn shared_baselines_run_once_across_drivers() {
        // Table 1, Figure 7, Figure 9 and the ablations all use the
        // plain-machine no-prefetch baseline; one harness must simulate
        // it once per workload, not once per figure.
        let h = Harness::serial();
        let scale = Scale {
            den: 64,
            warm_tenths: 2,
            measure_tenths: 1,
            seed: 11,
        };
        let _ = table1(&h, scale);
        let after_table1 = h.summary().executed;
        assert_eq!(after_table1, 4, "table1 = one baseline per workload");
        let _ = ablation(&h, scale);
        let s = h.summary();
        // The ablation batch adds only its 5 variants x 4 workloads; its
        // 4 baselines are memo hits from table1.
        assert_eq!(s.executed, after_table1 + 5 * 4);
        assert!(s.memo_hits >= 4);
    }
}
