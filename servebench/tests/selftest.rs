//! Self-test of the serving benchmark at a small size (`--small`).
//!
//! Run with `cargo test --release --offline --manifest-path
//! servebench/Cargo.toml`. For every workload it checks that each metric
//! `BENCHMARK.json` names prints with its unit, that nothing fails, and
//! that the virtual metrics and counts repeat exactly for one seed and
//! change with the seed.

use serde::Value;
use std::process::Command;

/// Metric names and units of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec.get(section)
        .and_then(Value::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// The parsed result line of one small run.
struct Run {
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64, String)>,
}

impl Run {
    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|m| m.1)
            .unwrap_or_else(|| panic!("metric {name} missing"))
    }
}

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let spans = env!("CARGO_TARGET_TMPDIR");
    let out = Command::new(env!("CARGO_BIN_EXE_servebench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", &trace.to_string(), "--small"])
        .args(["--spans-dir", spans])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let v: Value = serde_json::from_str(last).expect("the result line is JSON");
    let Value::Object(fields) = &v else {
        panic!("result is not an object: {last}")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(v.get("correct").and_then(Value::as_bool), Some(true));
    let Some(Value::Object(metrics)) = v.get("metrics") else {
        panic!("metrics is not an object: {last}")
    };
    Run {
        attempted: v
            .get("attempted")
            .and_then(Value::as_f64)
            .expect("attempted"),
        failed: v.get("failed").and_then(Value::as_f64).expect("failed"),
        metrics: metrics
            .iter()
            .map(|(name, m)| {
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .expect("numeric value");
                let unit = m
                    .get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string();
                (name.clone(), value, unit)
            })
            .collect(),
    }
}

/// Every declared metric printed, with its declared unit, and nothing else.
fn assert_declared(r: &Run, section: &str) {
    let want = declared(section);
    let got: Vec<(String, String)> = r
        .metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.clone()))
        .collect();
    assert_eq!(got, want, "{section} metrics and units");
}

/// Metrics that are exact for a seed: modeled times and program counts.
const EXACT_END_TO_END: [&str; 4] = [
    "virtual_ttft_p50_ms",
    "virtual_ttft_tail_ms",
    "virtual_tokens_per_s",
    "completed_share",
];
const EXACT_PER_LAYER: [&str; 11] = [
    "serve.rounds",
    "serve.mean_decode_batch",
    "serve.queue_wait_virtual_ms_p50",
    "sim.scheduler.mean_occupancy",
    "batch.mean_panel_width",
    "dataflow.collectives_per_token",
    "dataflow.comm_bytes_per_token",
    "kv_cache.hit_rate",
    "kv_cache.evicted_pages",
    "kv_cache.committed_blocks",
    "kernels.packed_bytes_per_decode_token",
];

fn exact(r: &Run, names: &[&str]) -> Vec<f64> {
    names.iter().map(|n| r.value(n)).collect()
}

fn check_workload(workload: &str) {
    let a = run(workload, 1, 0);
    assert_declared(&a, "end_to_end");
    assert!(a.attempted >= 1.0);
    assert_eq!(a.failed, 0.0, "{workload}: failed_share must be 0");
    assert_eq!(a.value("completed_share"), 1.0);
    let b = run(workload, 1, 0);
    let c = run(workload, 2, 0);
    assert_eq!(
        exact(&a, &EXACT_END_TO_END),
        exact(&b, &EXACT_END_TO_END),
        "{workload}: same seed"
    );
    assert_ne!(
        exact(&a, &EXACT_END_TO_END),
        exact(&c, &EXACT_END_TO_END),
        "{workload}: new seed"
    );

    let a = run(workload, 1, 1);
    assert_declared(&a, "per_layer");
    assert_eq!(a.failed, 0.0);
    let b = run(workload, 1, 1);
    let c = run(workload, 2, 1);
    assert_eq!(
        exact(&a, &EXACT_PER_LAYER),
        exact(&b, &EXACT_PER_LAYER),
        "{workload}: same seed"
    );
    assert_ne!(
        exact(&a, &EXACT_PER_LAYER),
        exact(&c, &EXACT_PER_LAYER),
        "{workload}: new seed"
    );
}

#[test]
fn chat_saturated() {
    check_workload("chat-saturated");
}

#[test]
fn shared_prefix() {
    check_workload("shared-prefix");
}

#[test]
fn offline_batch() {
    check_workload("offline-batch");
}

#[test]
fn model_is_bench_mid() {
    let ours = hnlpu_servebench::engine::bench_mid_weights();
    let repo = hnlpu_bench::inference::prefill_bench_weights();
    assert_eq!(ours.config, repo.config);
    assert_eq!(ours.embedding, repo.embedding);
}
