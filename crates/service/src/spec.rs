//! Wire-level sweep and cell specifications.
//!
//! A client cannot ship a generated [`Program`](tpc_isa::Program)
//! over the socket (nor should it — workloads are deterministic), so
//! a sweep is specified *by content*: benchmark name, a compact
//! configuration spec string, the workload seed, and the run window.
//! The daemon regenerates the program and the full
//! [`SimConfig`] from the spec; the same
//! content hashed by [`cell_fingerprint`] is the cell's identity in
//! the result cache.
//!
//! Config spec strings:
//!
//! | spec | meaning |
//! |---|---|
//! | `baseline:<tc>` | no preconstruction, `<tc>`-entry trace cache |
//! | `precon:<tc>:<pb>` | preconstruction with a `<pb>`-entry buffer |
//! | `combined:<tc>:<pb>` | preconstruction + trace preprocessing |
//! | `unified:<total>:<ways>:<epoch>` | pooled 4-way unified store |

use crate::json::{escape, Json};
use std::collections::BTreeMap;
use std::str::FromStr;
use std::sync::Arc;
use tpc_core::FaultPlan;
use tpc_experiments::{cell_fingerprint, CellBudget, RunParams, SweepCell};
use tpc_processor::SimConfig;
use tpc_workloads::{Benchmark, WorkloadBuilder};

/// A machine configuration in its compact wire form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigSpec {
    /// `baseline:<tc>` — no preconstruction.
    Baseline(u32),
    /// `precon:<tc>:<pb>` — preconstruction engine + buffer.
    Precon(u32, u32),
    /// `combined:<tc>:<pb>` — preconstruction + preprocessing.
    Combined(u32, u32),
    /// `unified:<total>:<ways>:<epoch>` — pooled unified store.
    Unified(u32, u8, u64),
}

impl ConfigSpec {
    /// Parses a spec string (see the module table). A field too
    /// large for its type is rejected, never truncated.
    pub fn parse(s: &str) -> Result<ConfigSpec, String> {
        let parts: Vec<&str> = s.split(':').collect();
        let num = |i: usize| -> Result<u64, String> {
            parts
                .get(i)
                .ok_or_else(|| format!("config spec {s:?}: missing field {i}"))?
                .parse()
                .map_err(|_| format!("config spec {s:?}: field {i} is not a number"))
        };
        let u32_at = |i: usize| -> Result<u32, String> {
            u32::try_from(num(i)?)
                .map_err(|_| format!("config spec {s:?}: field {i} does not fit in 32 bits"))
        };
        let arity = |n: usize| -> Result<(), String> {
            if parts.len() == n {
                Ok(())
            } else {
                Err(format!("config spec {s:?}: expected {n} fields"))
            }
        };
        match parts.first().copied().unwrap_or("") {
            "baseline" => {
                arity(2)?;
                Ok(ConfigSpec::Baseline(u32_at(1)?))
            }
            "precon" => {
                arity(3)?;
                Ok(ConfigSpec::Precon(u32_at(1)?, u32_at(2)?))
            }
            "combined" => {
                arity(3)?;
                Ok(ConfigSpec::Combined(u32_at(1)?, u32_at(2)?))
            }
            "unified" => {
                arity(4)?;
                let ways = u8::try_from(num(2)?)
                    .map_err(|_| format!("config spec {s:?}: field 2 does not fit in 8 bits"))?;
                Ok(ConfigSpec::Unified(u32_at(1)?, ways, num(3)?))
            }
            other => Err(format!(
                "config spec {s:?}: unknown kind {other:?} \
                 (expected baseline/precon/combined/unified)"
            )),
        }
    }

    /// The canonical spec string (`parse` round-trips it).
    pub fn spec_string(&self) -> String {
        match self {
            ConfigSpec::Baseline(tc) => format!("baseline:{tc}"),
            ConfigSpec::Precon(tc, pb) => format!("precon:{tc}:{pb}"),
            ConfigSpec::Combined(tc, pb) => format!("combined:{tc}:{pb}"),
            ConfigSpec::Unified(total, ways, epoch) => format!("unified:{total}:{ways}:{epoch}"),
        }
    }

    /// Expands the spec into a full simulator configuration.
    pub fn to_sim_config(self) -> SimConfig {
        match self {
            ConfigSpec::Baseline(tc) => SimConfig::baseline(tc),
            ConfigSpec::Precon(tc, pb) => SimConfig::with_precon(tc, pb),
            ConfigSpec::Combined(tc, pb) => SimConfig::with_precon(tc, pb).with_preprocess(),
            ConfigSpec::Unified(total, ways, epoch) => SimConfig::unified(total, ways, epoch),
        }
    }
}

/// One cell of a service sweep, specified by content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellSpec {
    /// The synthetic benchmark to generate.
    pub benchmark: Benchmark,
    /// The machine configuration to simulate it under.
    pub config: ConfigSpec,
    /// Optional deterministic fault-injection plan `(seed,
    /// per-mille)` applied via [`FaultPlan::all`].
    pub faults: Option<(u64, u32)>,
}

impl CellSpec {
    /// A clean cell.
    pub fn new(benchmark: Benchmark, config: ConfigSpec) -> CellSpec {
        CellSpec {
            benchmark,
            config,
            faults: None,
        }
    }

    /// The full simulator configuration for this cell.
    pub fn sim_config(&self) -> SimConfig {
        let mut config = self.config.to_sim_config();
        if let Some((seed, per_mille)) = self.faults {
            config = config.with_faults(FaultPlan::all(seed, per_mille));
        }
        config
    }

    /// Content-addressed identity of this cell's *result* — the
    /// [`cell_fingerprint`] of its benchmark and expanded
    /// configuration (which covers any fault plan) under the run
    /// window and workload seed. Two cells with equal fingerprints
    /// produce bit-identical [`SimStats`] (simulations are
    /// deterministic), which is what makes the result cache sound.
    ///
    /// [`SimStats`]: tpc_processor::SimStats
    pub fn fingerprint(&self, warmup: u64, measure: u64, seed: u64) -> u64 {
        let params = RunParams {
            warmup,
            measure,
            seed,
            jobs: 0,
        };
        cell_fingerprint(self.benchmark.name(), &self.sim_config(), &params)
    }

    /// Encodes the cell as a JSON object fragment.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"benchmark\":\"{}\",\"config\":\"{}\"",
            escape(self.benchmark.name()),
            escape(&self.config.spec_string())
        );
        if let Some((seed, per_mille)) = self.faults {
            s.push_str(&format!(
                ",\"faults_seed\":{seed},\"faults_permille\":{per_mille}"
            ));
        }
        s.push('}');
        s
    }

    /// Decodes a cell from its parsed JSON object.
    pub fn from_json(v: &Json) -> Result<CellSpec, String> {
        let name = v
            .get("benchmark")
            .and_then(Json::as_str)
            .ok_or("cell: missing \"benchmark\"")?;
        let benchmark =
            Benchmark::from_str(name).map_err(|_| format!("cell: unknown benchmark {name:?}"))?;
        let config = ConfigSpec::parse(
            v.get("config")
                .and_then(Json::as_str)
                .ok_or("cell: missing \"config\"")?,
        )?;
        let faults = match (v.get("faults_seed"), v.get("faults_permille")) {
            (None, None) => None,
            (Some(seed), Some(pm)) => Some((
                seed.as_u64().ok_or("cell: bad faults_seed")?,
                pm.as_u64()
                    .and_then(|pm| u32::try_from(pm).ok())
                    .ok_or("cell: bad faults_permille")?,
            )),
            _ => return Err("cell: faults_seed and faults_permille go together".into()),
        };
        Ok(CellSpec {
            benchmark,
            config,
            faults,
        })
    }
}

/// Chaos injection carried by a [`SweepRequest`]. The daemon refuses
/// it unless started with `--allow-chaos`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Cells whose result-cache write fails by injection: each runs
    /// fresh (the cache is bypassed for it), its result is returned
    /// to the client but not memoized, and the `done` line counts it
    /// in `cache_write_failures`.
    pub fail_cache_writes: Vec<usize>,
}

impl ChaosPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.fail_cache_writes.is_empty()
    }
}

/// A full sweep request: the run window, the cycle watchdog, and the
/// cell grid. This is the payload of the protocol's `sweep` op.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    /// Warm-up instructions per cell (counters reset afterwards).
    pub warmup: u64,
    /// Measured instructions per cell.
    pub measure: u64,
    /// Workload generation seed (shared by all cells).
    pub seed: u64,
    /// Per-cell cycle watchdog.
    pub budget: CellBudget,
    /// The cells to run.
    pub cells: Vec<CellSpec>,
    /// Chaos injection (daemon must allow it).
    pub chaos: ChaosPlan,
    /// Bypass the result cache (reference runs).
    pub no_cache: bool,
}

impl SweepRequest {
    /// A request with the default budget over `cells`.
    pub fn new(warmup: u64, measure: u64, seed: u64, cells: Vec<CellSpec>) -> SweepRequest {
        SweepRequest {
            warmup,
            measure,
            seed,
            budget: CellBudget::default(),
            cells,
            chaos: ChaosPlan::default(),
            no_cache: false,
        }
    }

    /// The run window and workload seed (`jobs` is left to the
    /// caller's [`tpc_experiments::RunOptions`]).
    pub fn run_params(&self) -> RunParams {
        RunParams {
            warmup: self.warmup,
            measure: self.measure,
            seed: self.seed,
            jobs: 0,
        }
    }

    /// Regenerates each benchmark's program once and binds every cell
    /// to its program, expanded configuration and fingerprint.
    pub fn sweep_cells(&self) -> Vec<SweepCell> {
        let mut programs = BTreeMap::new();
        self.cells
            .iter()
            .map(|spec| {
                let program = programs
                    .entry(spec.benchmark)
                    .or_insert_with(|| {
                        Arc::new(WorkloadBuilder::new(spec.benchmark).seed(self.seed).build())
                    })
                    .clone();
                SweepCell {
                    key: Some(spec.fingerprint(self.warmup, self.measure, self.seed)),
                    ..SweepCell::new(program, spec.sim_config())
                }
            })
            .collect()
    }

    /// Encodes the request as one protocol line (newline-terminated).
    pub fn to_json_line(&self) -> String {
        let cells: Vec<String> = self.cells.iter().map(CellSpec::to_json).collect();
        let mut s = format!(
            "{{\"op\":\"sweep\",\"warmup\":{},\"measure\":{},\"seed\":{},\
             \"budget_cpi\":{},\"budget_floor\":{},\"cells\":[{}]",
            self.warmup,
            self.measure,
            self.seed,
            self.budget.cycles_per_instruction,
            self.budget.floor,
            cells.join(",")
        );
        if self.no_cache {
            s.push_str(",\"no_cache\":true");
        }
        if !self.chaos.is_empty() {
            let fails: Vec<String> = self
                .chaos
                .fail_cache_writes
                .iter()
                .map(usize::to_string)
                .collect();
            s.push_str(&format!(
                ",\"chaos\":{{\"fail_writes\":[{}]}}",
                fails.join(",")
            ));
        }
        s.push_str("}\n");
        s
    }

    /// Decodes a request from a parsed `sweep` op line.
    pub fn from_json(v: &Json) -> Result<SweepRequest, String> {
        let cells_json = v
            .get("cells")
            .and_then(Json::as_arr)
            .ok_or("sweep: missing \"cells\" array")?;
        if cells_json.is_empty() {
            return Err("sweep: empty cell grid".into());
        }
        let cells: Result<Vec<CellSpec>, String> =
            cells_json.iter().map(CellSpec::from_json).collect();
        let default_budget = CellBudget::default();
        let fail_cache_writes: Result<Vec<usize>, String> = v
            .get("chaos")
            .and_then(|c| c.get("fail_writes"))
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|i| {
                i.as_u64()
                    .and_then(|i| usize::try_from(i).ok())
                    .ok_or_else(|| "chaos: bad fail_writes index".to_string())
            })
            .collect();
        Ok(SweepRequest {
            warmup: v.u64_or("warmup", 40_000)?,
            measure: v.u64_or("measure", 80_000)?,
            seed: v.u64_or("seed", 1)?,
            budget: CellBudget {
                cycles_per_instruction: v
                    .u64_or("budget_cpi", default_budget.cycles_per_instruction)?,
                floor: v.u64_or("budget_floor", default_budget.floor)?,
            },
            cells: cells?,
            chaos: ChaosPlan {
                fail_cache_writes: fail_cache_writes?,
            },
            no_cache: v.get("no_cache").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_specs_round_trip() {
        for spec in [
            "baseline:64",
            "precon:128:128",
            "combined:64:32",
            "unified:256:2:4096",
            "baseline:4294967295",
            "unified:256:255:4096",
        ] {
            let parsed = ConfigSpec::parse(spec).unwrap();
            assert_eq!(parsed.spec_string(), spec);
            assert_eq!(ConfigSpec::parse(&parsed.spec_string()).unwrap(), parsed);
        }
        assert!(ConfigSpec::parse("warp:9").is_err());
        assert!(ConfigSpec::parse("baseline").is_err());
        assert!(ConfigSpec::parse("baseline:x").is_err());
        assert!(ConfigSpec::parse("precon:64").is_err());
        // Out-of-range fields are rejected, never truncated: 2^32 + 64
        // must not alias baseline:64 (and its cached result), nor 257
        // ways become 1.
        for too_big in [
            "baseline:4294967360",
            "precon:64:4294967296",
            "combined:4294967296:32",
            "unified:4294967296:1:4096",
            "unified:256:257:4096",
        ] {
            let err = ConfigSpec::parse(too_big).unwrap_err();
            assert!(err.contains("does not fit"), "{too_big}: {err}");
        }
    }

    #[test]
    fn spec_expands_to_expected_configs() {
        let base = ConfigSpec::parse("baseline:64").unwrap().to_sim_config();
        assert_eq!(base.trace_cache_entries, 64);
        assert!(!base.engine.enabled);
        let combined = ConfigSpec::parse("combined:128:32")
            .unwrap()
            .to_sim_config();
        assert!(combined.preprocess && combined.engine.enabled);
        assert_eq!(combined.engine.buffer_entries, 32);
    }

    #[test]
    fn cell_spec_json_rejects_out_of_range_fields() {
        let cell = |body: &str| CellSpec::from_json(&Json::parse(body).unwrap());
        assert!(cell("{\"benchmark\":\"gcc\",\"config\":\"baseline:64\"}").is_ok());
        assert!(cell("{\"benchmark\":\"gcc\",\"config\":\"baseline:4294967360\"}").is_err());
        assert!(cell("{\"benchmark\":\"gcc\",\"config\":\"unified:256:257:4096\"}").is_err());
        let faulted = |pm: u64| {
            cell(&format!(
                "{{\"benchmark\":\"gcc\",\"config\":\"baseline:64\",\
                 \"faults_seed\":3,\"faults_permille\":{pm}}}"
            ))
        };
        assert_eq!(faulted(40).unwrap().faults, Some((3, 40)));
        assert!(
            faulted(u32::MAX as u64 + 41).is_err(),
            "faults_permille is not narrowed"
        );
    }

    #[test]
    fn sweep_request_round_trips_through_json() {
        let mut req = SweepRequest::new(
            2_000,
            4_000,
            7,
            vec![
                CellSpec::new(Benchmark::Compress, ConfigSpec::Baseline(64)),
                CellSpec {
                    benchmark: Benchmark::Gcc,
                    config: ConfigSpec::Precon(64, 32),
                    faults: Some((9, 40)),
                },
                CellSpec::new(Benchmark::Go, ConfigSpec::Unified(256, 255, 4096)),
            ],
        );
        req.budget.floor = 50;
        req.chaos.fail_cache_writes.push(0);
        req.no_cache = true;
        let line = req.to_json_line();
        let parsed = SweepRequest::from_json(&Json::parse(line.trim()).unwrap()).unwrap();
        assert_eq!(parsed, req);
    }

    #[test]
    fn fingerprints_separate_content() {
        let a = CellSpec::new(Benchmark::Compress, ConfigSpec::Baseline(64));
        let b = CellSpec::new(Benchmark::Compress, ConfigSpec::Baseline(128));
        let c = CellSpec::new(Benchmark::Gcc, ConfigSpec::Baseline(64));
        let fp = |cell: &CellSpec| cell.fingerprint(1000, 2000, 1);
        assert_eq!(fp(&a), fp(&a.clone()), "deterministic");
        assert_ne!(fp(&a), fp(&b), "config matters");
        assert_ne!(fp(&a), fp(&c), "benchmark matters");
        assert_ne!(
            fp(&a),
            a.fingerprint(1000, 2000, 2),
            "workload seed matters"
        );
        assert_ne!(fp(&a), a.fingerprint(1001, 2000, 1), "window matters");
        let mut faulted = a.clone();
        faulted.faults = Some((3, 40));
        assert_ne!(fp(&a), fp(&faulted), "fault plan matters");
    }

    #[test]
    fn sweep_cells_share_programs_and_carry_fingerprints() {
        let req = SweepRequest::new(
            1_000,
            2_000,
            1,
            vec![
                CellSpec::new(Benchmark::Compress, ConfigSpec::Baseline(64)),
                CellSpec::new(Benchmark::Compress, ConfigSpec::Precon(64, 32)),
            ],
        );
        let cells = req.sweep_cells();
        assert!(Arc::ptr_eq(&cells[0].program, &cells[1].program));
        for (cell, spec) in cells.iter().zip(&req.cells) {
            assert_eq!(cell.key, Some(spec.fingerprint(1_000, 2_000, 1)));
        }
    }
}
