//! Bias-sensitivity study (not a paper figure): how preconstruction's
//! benefit depends on the fraction of strongly-biased branches, with
//! and without weak-branch forking.
//!
//! The constructors follow strongly-biased branches down one path and
//! fork weakly-biased ones through their decision stacks. Sweeping
//! the bias mix on a fixed workload shape, at decision-stack depth 3
//! (the paper's design) and depth 0 (pure biased-path following),
//! isolates what the forking hardware buys. The measured answer:
//! forking is load-bearing at *every* bias mix — without it the
//! equal-area comparison goes negative even when 95 % of branches are
//! strongly biased. The reason is compounding: a region's worklist
//! grows from the successors of the traces it builds, so one
//! unforked weak branch steers the whole rest of the region down a
//! single (often wrong) subtree, not just one trace.

use crate::par_sweep::{effective_jobs, expect_stats, par_map, run_cells, RunOptions, SweepCell};
use crate::report::{f1, markdown_table};
use crate::runner::RunParams;
use std::sync::Arc;
use tpc_processor::SimConfig;
use tpc_workloads::{Benchmark, WorkloadBuilder};

/// One sweep point.
#[derive(Debug, Clone)]
pub struct BiasRow {
    /// Strongly-biased fraction of if-else branches, in 1/1000ths.
    pub strong_permille: u32,
    /// Baseline misses per 1000 instructions (256-entry TC).
    pub base_misses: f64,
    /// Preconstruction misses per 1000 instructions (128+128, paper
    /// configuration: decision-stack depth 3).
    pub precon_misses: f64,
    /// Preconstruction misses with forking disabled (decision-stack
    /// depth 0: strongly-biased paths only).
    pub precon_no_fork_misses: f64,
}

impl BiasRow {
    /// Relative miss reduction with forking, percent.
    pub fn reduction_percent(&self) -> f64 {
        reduction(self.base_misses, self.precon_misses)
    }

    /// Relative miss reduction without forking, percent.
    pub fn reduction_no_fork_percent(&self) -> f64 {
        reduction(self.base_misses, self.precon_no_fork_misses)
    }
}

fn reduction(base: f64, precon: f64) -> f64 {
    if base <= 0.0 {
        0.0
    } else {
        (1.0 - precon / base) * 100.0
    }
}

/// The bias fractions swept.
pub const BIAS_POINTS: [u32; 5] = [300, 500, 700, 850, 950];

/// Sweeps the strongly-biased branch fraction over a gcc-shaped
/// workload, measuring the equal-area preconstruction benefit. Each
/// bias point builds its own program, so workload generation and the
/// 3 simulations per point all fan out across `params.jobs` threads.
pub fn run(params: RunParams) -> Vec<BiasRow> {
    let mut no_fork_cfg = SimConfig::with_precon(128, 128);
    no_fork_cfg.engine.decision_depth = 0;
    let configs = [
        SimConfig::baseline(256),
        SimConfig::with_precon(128, 128),
        no_fork_cfg,
    ];

    let programs = par_map(
        &BIAS_POINTS,
        effective_jobs(params.jobs),
        |&strong_permille| {
            let mut profile = Benchmark::Gcc.profile();
            profile.strongly_biased_permille = strong_permille;
            Arc::new(
                WorkloadBuilder::from_profile(format!("bias-{strong_permille}"), profile)
                    .seed(params.seed)
                    .build(),
            )
        },
    );
    let cells: Vec<SweepCell> = programs
        .iter()
        .flat_map(|program| {
            configs
                .iter()
                .map(|config| SweepCell::new(program.clone(), config.clone()))
        })
        .collect();
    let stats = expect_stats(run_cells(
        &cells,
        params,
        &RunOptions::new(effective_jobs(params.jobs)),
    ));

    BIAS_POINTS
        .iter()
        .zip(stats.chunks(configs.len()))
        .map(|(&strong_permille, point)| BiasRow {
            strong_permille,
            base_misses: point[0].tc_misses_per_kilo(),
            precon_misses: point[1].tc_misses_per_kilo(),
            precon_no_fork_misses: point[2].tc_misses_per_kilo(),
        })
        .collect()
}

/// Renders the sweep.
pub fn render(rows: &[BiasRow]) -> String {
    let mut out =
        String::from("\n### Bias sensitivity (gcc-shaped workload, 256 TC vs 128+128)\n\n");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{}‰", r.strong_permille),
                f1(r.base_misses),
                f1(r.precon_misses),
                format!("{:.0}%", r.reduction_percent()),
                f1(r.precon_no_fork_misses),
                format!("{:.0}%", r.reduction_no_fork_percent()),
            ]
        })
        .collect();
    out.push_str(&markdown_table(
        &[
            "strong branches",
            "base misses/1k",
            "fork misses/1k",
            "fork reduction",
            "no-fork misses/1k",
            "no-fork reduction",
        ],
        &table,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_all_points() {
        let rows = run(RunParams::quick());
        assert_eq!(rows.len(), BIAS_POINTS.len());
        for r in &rows {
            assert!(r.base_misses >= 0.0 && r.precon_misses >= 0.0);
        }
    }

    #[test]
    fn forking_is_load_bearing_at_every_bias_mix() {
        let rows = run(RunParams {
            warmup: 100_000,
            measure: 200_000,
            ..RunParams::default()
        });
        for r in &rows {
            assert!(
                r.reduction_percent() > r.reduction_no_fork_percent() + 15.0,
                "at {}‰ strong, forking must buy ≥15 points: {:.0}% vs {:.0}%",
                r.strong_permille,
                r.reduction_percent(),
                r.reduction_no_fork_percent()
            );
        }
    }
}
