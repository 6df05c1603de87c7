//! Smoke tests at tiny windows: every workload in both modes emits
//! every metric with its unit and passes the correctness gate; the
//! gate catches a tampered result and excuses only the known
//! `check_invariants` false positive after `reset_stats`; the window
//! scoping of engine counters is pinned; `BENCHMARK.json` lists the
//! same metrics.

use perfbench::cells::{check_after_reset, run_cell, Config, Window};
use perfbench::gate::Gate;
use perfbench::spans::Tracer;
use perfbench::{END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::Command;
use tpc_processor::{SimStats, Simulator};
use tpc_service::Json;
use tpc_workloads::{Benchmark, WorkloadBuilder};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(workload: &str, trace: u8) -> (Json, String) {
    let out = scratch(&format!("smoke-{workload}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", &trace.to_string()])
        .args(["--warmup", "2000", "--measure", "4000", "--instances", "1"])
        .arg("--daemon")
        .arg(env!("CARGO_BIN_EXE_tpc_service"))
        .arg("--out")
        .arg(&out)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&output.stdout).to_string();
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    (Json::parse(last).expect("result line is JSON"), stdout)
}

fn assert_emits(result: &Json, table: &[(&str, &str)], context: &str) {
    assert_eq!(
        result.get("correct").and_then(Json::as_bool),
        Some(true),
        "{context}"
    );
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{context}"
    );
    assert!(
        result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
        "{context}"
    );
    let metrics = result.get("metrics").expect("metrics object");
    for (name, unit) in table {
        let metric = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{context}: {name} missing"));
        assert_eq!(
            metric.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{context}: {name}"
        );
        assert!(
            metric.get("value").and_then(Json::as_f64).is_some(),
            "{context}: {name}"
        );
    }
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in ["sim-large", "sim-small", "service-sweep"] {
        let (result, stdout) = run(workload, 0);
        assert_emits(&result, &END_TO_END, workload);
        assert!(
            stdout.contains("\"fingerprint\""),
            "{workload}: provenance line"
        );
        assert!(stdout.contains("paper:"), "{workload}: paper bands");
        let (result, stdout) = run(workload, 1);
        assert_emits(&result, &PER_LAYER, &format!("{workload} traced"));
        assert!(
            stdout.contains("span run.measure"),
            "{workload}: span totals"
        );
    }
}

#[test]
fn a_tampered_stats_word_is_a_failure() {
    let program = WorkloadBuilder::new(Benchmark::Compress).seed(1).build();
    let window = Window {
        warmup: 1_000,
        measure: 2_000,
    };
    let cell =
        run_cell(&program, Config::Precon, window, &mut Tracer::new(false), 0).expect("cell runs");
    let mut gate = Gate::new();
    gate.same_as_before("cell", &cell.raw);
    gate.same_as_before("cell", &cell.raw);
    assert_eq!((gate.attempted(), gate.failed()), (2, 0));
    let mut words = cell.raw.to_words();
    words[5] ^= 1;
    let tampered = SimStats::from_words(&words).expect("same word count");
    gate.same_as_before("cell", &tampered);
    assert_eq!((gate.attempted(), gate.failed()), (3, 1));
    assert!(
        gate.messages()[0].contains("word 5"),
        "{:?}",
        gate.messages()
    );
}

#[test]
fn only_the_reset_false_positive_is_excused() {
    let program = WorkloadBuilder::new(Benchmark::Compress).seed(1).build();
    let mut sim = Simulator::new(&program, Config::Precon.spec().to_sim_config());
    let warm = sim.run(1_000);
    sim.reset_stats();
    let end = sim.run(2_000);
    let other = "fetch conservation violated".to_string();
    assert_eq!(
        check_after_reset(&sim, &warm, &end, other.clone()),
        Err(other)
    );
    let window_law = format!(
        "retired {} traces but only fetched {}",
        end.retired_traces, end.trace_fetches
    );
    assert_eq!(check_after_reset(&sim, &warm, &end, window_law), Ok(()));
}

#[test]
fn engine_counters_are_scoped_to_the_measure_window() {
    // gcc, combined, seed 1, the experiments' default window.
    let program = WorkloadBuilder::new(Benchmark::Gcc).seed(1).build();
    let window = Window {
        warmup: 200_000,
        measure: 500_000,
    };
    let cell = run_cell(
        &program,
        Config::Combined,
        window,
        &mut Tracer::new(false),
        0,
    )
    .expect("cell runs");
    assert_eq!(
        cell.raw.engine.traces_built, 111_393,
        "cumulative since construction"
    );
    assert_eq!(
        cell.window.engine.traces_built, 75_966,
        "measure window only"
    );
    assert_eq!(cell.window.precon_buffer_hits, 9_134);
    assert!(cell.window.dcache.misses < cell.raw.dcache.misses);
    assert_eq!(
        cell.window.retired_instructions,
        cell.raw.retired_instructions
    );
}

#[test]
fn benchmark_json_lists_the_emitted_metrics() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String)> = doc
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let expected: Vec<(String, String)> = table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, expected, "{key}");
    }
}
