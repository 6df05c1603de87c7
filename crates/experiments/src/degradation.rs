//! Graceful-degradation experiment: fetch performance under
//! increasing fault-injection intensity.
//!
//! The differential oracle proves fault injection never changes what
//! retires; this experiment measures what it *does* change. Each
//! benchmark runs under the standard preconstruction configuration
//! with every fault kind enabled at increasing per-cycle intensities,
//! and the sweep reports the trace-cache hit rate and fetch IPC
//! curves. The expected shape — the paper's hint-hardware argument,
//! quantified — is monotone *graceful* degradation toward the
//! no-preconstruction baseline, never a cliff and never a wedge.
//!
//! The sweep runs hardened: per-cell panic containment and cycle
//! watchdogs ([`crate::par_sweep::run_cells`]), and optional
//! checkpoint/resume through the content-addressed result store
//! ([`crate::store`]) for interrupted grids. Rendered output is
//! derived from exact integer counters only (no wall-clock), so a
//! resumed sweep prints byte-identical results.

use crate::par_sweep::{
    effective_jobs, par_map, run_cells, CellBudget, CellError, RunOptions, SweepCell,
};
use crate::report::{f2, markdown_table};
use crate::runner::RunParams;
use crate::store::{cell_fingerprint, ResultCache};
use std::path::Path;
use std::sync::Arc;
use tpc_core::FaultPlan;
use tpc_isa::Program;
use tpc_processor::{SimConfig, SimStats};
use tpc_workloads::{Benchmark, WorkloadBuilder};

/// Fault intensities swept, in 1/1000ths per kind per cycle.
pub const INTENSITIES: [u32; 7] = [0, 1, 2, 5, 10, 20, 50];

/// Trace-cache entries of the swept configuration.
pub const TC_ENTRIES: u32 = 128;
/// Preconstruction-buffer entries of the swept configuration.
pub const PB_ENTRIES: u32 = 128;

/// One measured point of the degradation sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationRow {
    /// Benchmark measured.
    pub benchmark: Benchmark,
    /// Fault intensity in 1/1000ths per kind per cycle.
    pub per_mille: u32,
    /// The cell's statistics, or why it failed.
    pub result: Result<SimStats, CellError>,
}

/// The configuration a `(benchmark-independent)` intensity point
/// simulates: the standard preconstruction machine with all fault
/// kinds enabled. The plan seed folds in the intensity so adjacent
/// points draw unrelated schedules.
pub fn config_at(per_mille: u32) -> SimConfig {
    SimConfig::with_precon(TC_ENTRIES, PB_ENTRIES)
        .with_faults(FaultPlan::all(0xDE6_0000 + per_mille as u64, per_mille))
}

/// Builds the benchmark × intensity cell grid, benchmark-major
/// (`cells[b * INTENSITIES.len() + i]`), generating each benchmark's
/// program once. Every cell is keyed by its [`cell_fingerprint`].
pub fn build_cells(benchmarks: &[Benchmark], params: RunParams) -> Vec<SweepCell> {
    let programs: Vec<Arc<Program>> = par_map(benchmarks, effective_jobs(params.jobs), |&b| {
        Arc::new(WorkloadBuilder::new(b).seed(params.seed).build())
    });
    benchmarks
        .iter()
        .zip(&programs)
        .flat_map(|(b, p)| {
            INTENSITIES.iter().map(move |&pm| {
                let config = config_at(pm);
                SweepCell {
                    key: Some(cell_fingerprint(b.name(), &config, &params)),
                    ..SweepCell::new(Arc::clone(p), config)
                }
            })
        })
        .collect()
}

/// Runs the degradation sweep, optionally checkpointed to the
/// result store at `checkpoint`: cells already recorded there are not
/// re-run, and each fresh cell is recorded as it finishes.
///
/// # Errors
///
/// Only opening the store can fail (I/O, or a file that is not a
/// result store). Per-cell failures — panics, watchdog timeouts — are
/// carried in the rows; a failed store append only costs that cell's
/// memoization.
pub fn run(
    benchmarks: &[Benchmark],
    params: RunParams,
    budget: CellBudget,
    checkpoint: Option<&Path>,
) -> std::io::Result<Vec<DegradationRow>> {
    let cells = build_cells(benchmarks, params);
    let store = checkpoint.map(ResultCache::open).transpose()?;
    let opts = RunOptions {
        budget,
        store: store.as_ref(),
        ..RunOptions::new(effective_jobs(params.jobs))
    };
    Ok(benchmarks
        .iter()
        .flat_map(|&benchmark| INTENSITIES.iter().map(move |&pm| (benchmark, pm)))
        .zip(run_cells(&cells, params, &opts))
        .map(|((benchmark, per_mille), run)| DegradationRow {
            benchmark,
            per_mille,
            result: run.result,
        })
        .collect())
}

/// Renders the sweep as one markdown table per benchmark: hit rate,
/// fetch IPC, and injection counts against intensity. Every column
/// is derived from exact integer counters, so the rendering is
/// byte-identical across resumed and uninterrupted runs.
pub fn render(rows: &[DegradationRow]) -> String {
    let mut out = String::new();
    for benchmark in Benchmark::ALL {
        let brows: Vec<&DegradationRow> =
            rows.iter().filter(|r| r.benchmark == benchmark).collect();
        if brows.is_empty() {
            continue;
        }
        out.push_str(&format!(
            "\n### {benchmark} — degradation under fault injection \
             (TC {TC_ENTRIES} + PB {PB_ENTRIES})\n\n"
        ));
        let table: Vec<Vec<String>> = brows
            .iter()
            .map(|r| {
                let mut row = vec![format!("{}", r.per_mille)];
                match &r.result {
                    Ok(s) => row.extend([
                        format!("{}", s.tc_hit_permille()),
                        f2(s.ipc()),
                        format!("{}", s.faults.injected),
                        format!("{}", s.faults.landed),
                    ]),
                    Err(e) => {
                        row.extend(["-".into(), "-".into(), "-".into(), format!("FAILED: {e}")])
                    }
                }
                row
            })
            .collect();
        out.push_str(&markdown_table(
            &["faults ‰", "TC hit ‰", "IPC", "injected", "landed"],
            &table,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> RunParams {
        RunParams {
            warmup: 4_000,
            measure: 8_000,
            seed: 1,
            jobs: 0,
        }
    }

    #[test]
    fn sweep_produces_full_grid() {
        let rows = run(
            &[Benchmark::Compress],
            tiny_params(),
            CellBudget::default(),
            None,
        )
        .unwrap();
        assert_eq!(rows.len(), INTENSITIES.len());
        assert!(rows.iter().all(|r| r.result.is_ok()));
        // Zero intensity injects nothing; the top intensity injects.
        let zero = rows[0].result.as_ref().unwrap();
        assert_eq!(zero.faults.injected, 0);
        let top = rows.last().unwrap().result.as_ref().unwrap();
        assert!(top.faults.injected > 0);
    }

    #[test]
    fn heavy_faults_hurt_but_do_not_wedge() {
        let rows = run(
            &[Benchmark::Gcc],
            tiny_params(),
            CellBudget::default(),
            None,
        )
        .unwrap();
        let zero = rows[0].result.as_ref().unwrap();
        let top = rows.last().unwrap().result.as_ref().unwrap();
        assert!(top.retired_instructions >= 8_000, "no wedge");
        // Degradation direction: heavy faulting cannot *help* the
        // trace supply.
        assert!(top.tc_hit_permille() <= zero.tc_hit_permille() + 5);
    }

    #[test]
    fn render_is_stats_only() {
        let rows = run(
            &[Benchmark::Compress],
            tiny_params(),
            CellBudget::default(),
            None,
        )
        .unwrap();
        let a = render(&rows);
        let b = render(&rows);
        assert_eq!(a, b);
        assert!(a.contains("### compress"));
        assert!(a.contains("faults ‰"));
    }

    #[test]
    fn checkpointed_run_resumes_byte_identical() {
        let dir = std::env::temp_dir().join("tpc-degradation-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("resume-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let params = tiny_params();
        let budget = CellBudget::default();
        let benchmarks = [Benchmark::Compress];

        // Uninterrupted reference.
        let reference = render(&run(&benchmarks, params, budget, None).unwrap());

        // First pass writes the checkpoint...
        let full = run(&benchmarks, params, budget, Some(&path)).unwrap();
        assert_eq!(render(&full), reference);
        // ...interrupt it by dropping the last few recorded lines...
        let text = std::fs::read_to_string(&path).unwrap();
        let keep: Vec<&str> = text.lines().take(4).collect(); // header + 3 cells
        assert!(text.lines().count() > 4, "every cell was recorded");
        std::fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();
        // ...and resume: remaining cells re-run, output identical.
        let resumed = run(&benchmarks, params, budget, Some(&path)).unwrap();
        assert_eq!(render(&resumed), reference, "resume is byte-identical");
        let _ = std::fs::remove_file(&path);
    }
}
