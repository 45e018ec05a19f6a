//! Self-test of the benchmark: every workload passes its checks at tiny
//! scale, the printed metric names are exactly the ones `BENCHMARK.json`
//! declares, and a deliberately wrong answer fails the run.
//!
//! Run with `cargo test --manifest-path xnfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::process::Command;

use xnf_workload::json::Json;
use xnfbench::report;
use xnfbench::{Inject, Options, Outcome, WORKLOADS};

fn tiny(workload: &str, trace: bool) -> Options {
    let mut opts = Options::new(workload, 7, 0.3, trace).tiny();
    // Keep concurrent tests apart.
    let tag = format!("selftest-{workload}-{}", trace as u8);
    opts.data_root = opts.data_root.join(&tag);
    opts.trace_dir = opts.trace_dir.join(&tag);
    opts
}

fn run(opts: &Options) -> Outcome {
    xnfbench::run(opts).expect("known workload")
}

fn names(metrics: &[report::Metric]) -> BTreeSet<String> {
    metrics.iter().map(|m| m.name.to_string()).collect()
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> BTreeSet<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    json.get(section)
        .and_then(Json::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn with_units(metrics: &[report::Metric]) -> BTreeSet<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_workload_passes_its_checks_at_tiny_scale() {
    for w in WORKLOADS {
        for trace in [false, true] {
            let opts = tiny(w, trace);
            let o = run(&opts);
            assert!(
                report::correct(&o),
                "{w} (trace={trace}) failed: {:?}",
                o.violations.samples()
            );
            assert!(report::attempted(&o) > 0, "{w}: no ops ran");
            assert_eq!(report::failed(&o), 0, "{w}: failed ops");
            if trace {
                let path = report::write_spans(&o, &opts).expect("write spans");
                assert!(std::fs::metadata(&path).expect("span file").len() > 0);
                let _ = std::fs::remove_dir_all(&opts.trace_dir);
            }
        }
    }
}

#[test]
fn printed_metrics_match_benchmark_json_both_ways() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    for w in WORKLOADS {
        let untraced = run(&tiny(w, false));
        let metrics = report::end_to_end(&untraced);
        assert_eq!(with_units(&metrics), e2e, "{w}: end-to-end metrics");
        assert_eq!(names(&metrics).len(), metrics.len(), "{w}: duplicate names");
        let traced = run(&tiny(w, true));
        let metrics = report::per_layer(&traced);
        assert_eq!(with_units(&metrics), layers, "{w}: per-layer metrics");
        assert_eq!(names(&metrics).len(), metrics.len(), "{w}: duplicate names");
        let _ = std::fs::remove_dir_all(&tiny(w, true).trace_dir);
    }
}

#[test]
fn result_line_carries_exactly_the_contract_keys() {
    let o = run(&tiny("ycsb", false));
    let line = report::result_line(&o, &report::end_to_end(&o));
    let json = Json::parse(&line).expect("result line is JSON");
    let keys: Vec<&str> = json
        .as_obj()
        .expect("object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = json.get("metrics").and_then(Json::as_obj).expect("metrics");
    for (name, m) in metrics {
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }
}

#[test]
fn injected_wrong_answers_fail_the_run() {
    for (w, inject) in [
        ("ycsb", Inject::Model),
        ("ycsb", Inject::Co),
        ("tpcc_durable", Inject::Model),
        ("tpcc_durable", Inject::Co),
        ("co_extract", Inject::Model),
        ("co_extract", Inject::Co),
    ] {
        let mut opts = tiny(w, false);
        opts.inject = Some(inject);
        let o = run(&opts);
        assert!(!report::correct(&o), "{w}: {inject:?} went unnoticed");
        assert!(report::failed(&o) > 0, "{w}: {inject:?} not counted");
    }
}

#[test]
fn the_command_exits_non_zero_on_a_wrong_answer() {
    let out = Command::new(env!("CARGO_BIN_EXE_xnfbench"))
        .args([
            "--workload",
            "co_extract",
            "--seed",
            "3",
            "--seconds",
            "0.3",
        ])
        .args(["--trace", "0", "--scale", "tiny", "--inject", "co"])
        .output()
        .expect("run xnfbench");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let json = Json::parse(last).expect("result line is JSON");
    assert_eq!(json.get("correct").and_then(Json::as_bool), Some(false));
}

#[test]
fn unknown_workloads_and_flags_are_refused() {
    let exe = env!("CARGO_BIN_EXE_xnfbench");
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "ycsb",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "ycsb",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ][..],
    ] {
        let out = Command::new(exe).args(args).output().expect("run xnfbench");
        assert!(!out.status.success(), "{args:?} accepted");
    }
}
