//! Self-test of the benchmark at quick size: every metric
//! `BENCHMARK.json` declares is emitted with its declared unit, the
//! current code checks clean, and a planted digest mismatch (the
//! `ebcp` lane run with the `stream` prefetcher) is counted as failed,
//! both against the pinned digests and against the harness-free
//! reference used for other seeds.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::Command;

use ebcp_harness::json::{parse, Value};

/// Runs the benchmark binary at quick size and parses its last line.
fn run(workload: &str, trace: &str, extra: &[&str]) -> Value {
    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("selftest-{workload}-{trace}-{}", extra.join("")));
    let out = Command::new(env!("CARGO_BIN_EXE_ebcp-perfbench"))
        .args(["--workload", workload, "--trace", trace])
        .args(["--size", "quick", "--seconds", "0", "--tmp-dir"])
        .arg(&tmp)
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !tmp.exists(),
        "scratch directory {} left behind",
        tmp.display()
    );
    let last = stdout.lines().last().expect("benchmark printed a result");
    parse(last).unwrap_or_else(|e| panic!("result line is not JSON ({e:?}): {last}"))
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one section of BENCHMARK.json.
fn declared(doc: &Value, section: &str) -> Vec<(String, String)> {
    doc.get(section)
        .and_then(Value::as_arr)
        .expect("metric section")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn counts(result: &Value) -> (u64, u64, bool) {
    let n = |k| result.get(k).and_then(Value::as_u64).expect(k);
    let correct = matches!(result.get("correct"), Some(Value::Bool(true)));
    (n("attempted"), n("failed"), correct)
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let doc = benchmark_json();
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert!(!workloads.is_empty());
    for w in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(w, trace, &[]);
            let (attempted, failed, correct) = counts(&result);
            assert!(attempted > 0 && failed == 0 && correct, "{w} trace={trace}");
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("{w} trace={trace}: no metrics object");
            };
            let want = declared(&doc, section);
            for (name, unit) in &want {
                let m = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .unwrap_or_else(|| panic!("{w} trace={trace}: {name} missing"));
                assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                assert_eq!(
                    m.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{w}: unit of {name}"
                );
            }
            assert_eq!(
                metrics.len(),
                want.len(),
                "{w} trace={trace}: extra metrics"
            );
        }
    }
}

#[test]
fn planted_mismatch_is_counted_as_failed() {
    // Seed 11 checks against the pins; seed 5 against the reference
    // run (untraced) and the traced run's direct results (traced).
    for (workload, trace, seed) in [
        ("sweep", "0", "11"),
        ("cmp", "1", "11"),
        ("stream", "0", "5"),
        ("stream", "1", "5"),
    ] {
        let result = run(workload, trace, &["--seed", seed, "--plant-mismatch"]);
        let (attempted, failed, correct) = counts(&result);
        assert!(
            failed > 0 && failed <= attempted && !correct,
            "{workload} trace={trace} seed={seed}: planted mismatch not caught \
             ({failed} of {attempted} failed)"
        );
    }
}
