//! Golden SimStats table: pins the simulator's timing output in
//! tier-1.
//!
//! Every benchmark and every shipped `examples/asm/*.asm` program runs
//! under four standard configurations at a small window, and the FNV
//! digest of each cell's `SimStats::to_words()` must match the
//! checked-in `tests/golden_stats.txt`. A refactor that claims to be
//! behaviour-preserving proves it by leaving this table untouched.
//!
//! A deliberate timing-model change regenerates the table with
//! `cargo test --test golden_stats -- --ignored` and says so in
//! CHANGES.md.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use tpc_exec::AsmProgram;
use tpc_experiments::{run_cells, sweep_grid, Fnv64, RunOptions, RunParams, SweepCell};
use tpc_processor::{SimConfig, SimStats};
use tpc_service::ConfigSpec;
use tpc_workloads::Benchmark;

const CONFIGS: [&str; 4] = [
    "baseline:256",
    "precon:128:128",
    "combined:128:128",
    "unified:256:1:4096",
];

const PARAMS: RunParams = RunParams {
    warmup: 20_000,
    measure: 40_000,
    seed: 1,
    jobs: 0,
};

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn table_path() -> PathBuf {
    root().join("tests/golden_stats.txt")
}

fn configs() -> Vec<SimConfig> {
    CONFIGS
        .iter()
        .map(|s| {
            ConfigSpec::parse(s)
                .expect("standard config")
                .to_sim_config()
        })
        .collect()
}

fn digest(stats: &SimStats) -> u64 {
    let mut h = Fnv64::new();
    for word in stats.to_words() {
        h.write(&word.to_le_bytes());
    }
    h.finish()
}

fn asm_examples() -> Vec<(String, AsmProgram)> {
    let dir = root().join("examples/asm");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/asm")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "asm"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p: &PathBuf| {
            let name = Path::new(p.file_name().expect("file name"))
                .to_string_lossy()
                .into_owned();
            (name, AsmProgram::load(p).expect("example assembles"))
        })
        .collect()
}

/// Every cell's `(workload, config, digest)`, in table order.
fn compute() -> Vec<(String, &'static str, u64)> {
    let mut rows = Vec::new();
    let grid = sweep_grid(&Benchmark::ALL, &configs(), PARAMS);
    for (benchmark, per_config) in Benchmark::ALL.iter().zip(&grid) {
        for (config, stats) in CONFIGS.iter().zip(per_config) {
            rows.push((benchmark.name().to_string(), *config, digest(stats)));
        }
    }
    for (name, asm) in asm_examples() {
        let program = Arc::new(asm.program().clone());
        let cells: Vec<SweepCell> = configs()
            .into_iter()
            .map(|c| SweepCell::new(Arc::clone(&program), c))
            .collect();
        let runs = run_cells(&cells, PARAMS, &RunOptions::new(2));
        for (config, run) in CONFIGS.iter().zip(&runs) {
            let stats = run.result.as_ref().expect("example cell succeeds");
            rows.push((name.clone(), *config, digest(stats)));
        }
    }
    rows
}

fn render(rows: &[(String, &'static str, u64)]) -> String {
    let mut out = format!(
        "# FNV-1a digest of SimStats::to_words() per cell: warmup {}, measure {}, seed {}.\n\
         # Regenerate only on purpose: cargo test --test golden_stats -- --ignored\n",
        PARAMS.warmup, PARAMS.measure, PARAMS.seed
    );
    for (workload, config, digest) in rows {
        out.push_str(&format!("{workload} {config} {digest:#018x}\n"));
    }
    out
}

#[test]
fn simstats_match_the_golden_table() {
    let expected = std::fs::read_to_string(table_path()).expect("tests/golden_stats.txt");
    let actual = render(&compute());
    let mut expected_lines = expected.lines();
    for line in actual.lines() {
        let want = expected_lines.next().unwrap_or("<missing>");
        assert_eq!(
            line, want,
            "golden SimStats mismatch (actual vs table): the simulator's timing output \
             changed for this cell. Regenerate the table only for an intended model change \
             (cargo test --test golden_stats -- --ignored) and record it in CHANGES.md"
        );
    }
    assert_eq!(expected_lines.next(), None, "golden table has extra rows");
}

#[test]
#[ignore = "rewrites tests/golden_stats.txt; run only for an intended timing-model change"]
fn regenerate_golden_table() {
    std::fs::write(table_path(), render(&compute())).expect("write golden table");
}
