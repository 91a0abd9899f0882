//! Harness self-tests at small sizes: determinism of the modelled metrics,
//! the failure path, and `BENCHMARK.json` in step with the code.

use std::time::Instant;

use overlay_benchmark::harness::{self, RunResult};
use overlay_benchmark::metrics::{END_TO_END, PER_LAYER};
use overlay_benchmark::workloads::serve::ServeCold;
use overlay_benchmark::workloads::{self, Sizing};
use tm_overlay::runtime::obs::{parse_json, JsonValue};

/// Pure functions of the seed.
const MODELLED: [&str; 6] = [
    "modeled_ops_per_s",
    "modeled_p99_us",
    "modeled_met_share",
    "ii_geomean",
    "ii_err_vs_paper",
    "code_words_per_kernel",
];

/// Of those, the ones taken over the paper suite alone: the same for every
/// seed, so `BENCHMARK.json` bounds them at exact equality.
const SEED_FREE: [&str; 3] = ["ii_geomean", "ii_err_vs_paper", "code_words_per_kernel"];

fn small_run(name: &str, seed: u64) -> RunResult {
    let prepared =
        harness::prepare(name, seed, &Sizing::SMALL, 1, Instant::now()).expect("a known workload");
    harness::measure(prepared, 0.0)
}

fn bits(result: &RunResult, names: &[&str]) -> Vec<u64> {
    names
        .iter()
        .map(|name| result.metric(name).expect("every run reports it").to_bits())
        .collect()
}

#[test]
fn same_seed_same_exact_metrics_other_seed_other_trace() {
    for name in workloads::NAMES {
        let first = small_run(name, 7);
        let again = small_run(name, 7);
        let other = small_run(name, 8);
        assert!(
            first.correct() && again.correct() && other.correct(),
            "{name}"
        );
        assert_eq!(first.failed, 0, "{name}");
        assert!(first.attempted >= 1, "{name}");
        assert_eq!(
            bits(&first, &MODELLED),
            bits(&again, &MODELLED),
            "{name}: same seed"
        );
        assert_ne!(
            bits(&first, &MODELLED),
            bits(&other, &MODELLED),
            "{name}: another seed"
        );
        assert_eq!(
            bits(&first, &SEED_FREE),
            bits(&other, &SEED_FREE),
            "{name}: the code-quality figures do not depend on the seed"
        );
        for (metric, value, _) in &first.metrics {
            assert!(
                value.is_finite() && *value != 0.0,
                "{name} {metric} = {value}"
            );
        }
    }
    // The trace itself changes with the seed, and the tail latency with it.
    for name in ["serve_steady", "cluster_surge"] {
        let p99 = |seed| small_run(name, seed).metric("modeled_p99_us");
        assert_ne!(p99(7), p99(8), "{name}");
    }
}

#[test]
fn a_wrong_reference_output_is_a_failed_op_and_a_non_zero_exit() {
    for name in workloads::NAMES {
        let mut prepared =
            harness::prepare(name, 3, &Sizing::SMALL, 1, Instant::now()).expect("a known workload");
        prepared.workload.corrupt_reference();
        let result = harness::measure(prepared, 0.0);
        assert!(result.failed > 0, "{name}");
        assert!(result.failed <= result.attempted, "{name}");
        assert!(!result.correct(), "{name}");
        assert_ne!(result.exit_code(), 0, "{name}");
        assert!(result.json_line().contains("\"correct\": false"), "{name}");
    }
    assert_eq!(small_run("sim_sweep", 3).exit_code(), 0);
}

#[test]
fn unknown_workloads_are_refused() {
    let now = Instant::now();
    assert!(harness::prepare("no_such_workload", 1, &Sizing::SMALL, 1, now).is_none());
    assert!(harness::run_plain("no_such_workload", 1, 0.0, &Sizing::SMALL, now).is_err());
    assert!(harness::run_traced("no_such_workload", 1, 0.0, &Sizing::SMALL).is_err());
}

fn names_units(list: &JsonValue) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|entry| {
            let field = |key| {
                entry
                    .get(key)
                    .and_then(JsonValue::as_str)
                    .expect(key)
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(name, unit)| ((*name).to_owned(), (*unit).to_owned()))
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_binaries_print() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json is committed"))
        .expect("BENCHMARK.json parses");
    assert_eq!(
        names_units(spec.get("end_to_end").unwrap()),
        owned(&END_TO_END)
    );
    assert_eq!(
        names_units(spec.get("per_layer").unwrap()),
        owned(&PER_LAYER)
    );
    let declared: Vec<String> = spec
        .get("workloads")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_owned()
        })
        .collect();
    assert_eq!(declared, workloads::NAMES);
    for metric in spec.get("end_to_end").and_then(JsonValue::as_arr).unwrap() {
        let name = metric.get("name").and_then(JsonValue::as_str).unwrap();
        let bound = metric.get("bound").and_then(JsonValue::as_num).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{name}");
        if SEED_FREE.contains(&name) {
            assert!(bound <= 1e-9, "{name} is held to exact equality");
        }
    }
}

#[test]
fn a_traced_run_prints_every_per_layer_metric() {
    let (result, trace) =
        harness::run_traced("serve_cold", 5, 0.0, &Sizing::SMALL).expect("the traced run works");
    assert!(result.correct());
    let names: Vec<&str> = result.metrics.iter().map(|(name, _, _)| *name).collect();
    let declared: Vec<&str> = PER_LAYER.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, declared);

    // Each workload measures what it names: the warm paths never miss the
    // memo, the cold path misses it once per request.
    let cold = Sizing::SMALL.cold_serves * ServeCold::REQUESTS;
    assert_eq!(result.metric("runtime.memo.misses"), Some(cold as f64));
    assert_eq!(result.metric("runtime.memo.steady_misses"), Some(0.0));
    assert_eq!(result.metric("runtime.cluster.memo_misses"), Some(0.0));
    assert_eq!(result.metric("isa.roundtrip_mismatches"), Some(0.0));
    assert!(result.metric("harness.in_program_share").unwrap() > 0.5);

    // The result line and the trace file are both JSON.
    let line = parse_json(&result.json_line()).expect("the result line parses");
    assert!(line
        .get("metrics")
        .and_then(|m| m.get("harness.reps"))
        .is_some());
    let trace = parse_json(&trace).expect("the trace file parses");
    assert!(!trace
        .get("spans")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .is_empty());
}
