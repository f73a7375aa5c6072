//! System composition: core + memory + (optional) Branch Runahead.

use br_core::{BrLiveState, BrStats, BranchRunahead, PredictionCategory};
use br_energy::EnergyEvents;
use br_isa::Machine;
use br_mem::{MemResp, MemoryStats, MemorySystem};
use br_ooo::{Core, CoreStats, NullHooks};
use br_telemetry::{Sample, Telemetry, TelemetryRun};
use br_workloads::WorkloadImage;

use crate::config::SimConfig;
use crate::faults::{FaultInjector, FaultStats, FaultedHooks};
use crate::job::SimError;

/// Cycles between machine-check invariant sweeps (when enabled).
const MACHINE_CHECK_INTERVAL: u64 = 1024;

/// Results of one simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Core statistics.
    pub core: CoreStats,
    /// Memory statistics.
    pub mem: MemoryStats,
    /// Branch Runahead statistics (when enabled).
    pub br: Option<BrStats>,
    /// Configuration name the run used.
    pub config_name: String,
    /// Collected telemetry (when [`SimConfig::telemetry`] is enabled).
    pub telemetry: Option<TelemetryRun>,
    /// Faults injected (when [`SimConfig::faults`] set a schedule).
    pub faults: Option<FaultStats>,
}

impl RunResult {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        self.core.ipc()
    }

    /// Branch mispredictions per kilo-uop.
    #[must_use]
    pub fn mpki(&self) -> f64 {
        self.core.mpki()
    }

    /// MPKI improvement of `self` over `base`, in percent (the paper's
    /// metric: `(base − this) / base × 100`).
    #[must_use]
    pub fn mpki_improvement_pct(&self, base: &RunResult) -> f64 {
        let b = base.mpki();
        if b == 0.0 {
            0.0
        } else {
            (b - self.mpki()) / b * 100.0
        }
    }

    /// IPC improvement over `base`, in percent.
    #[must_use]
    pub fn ipc_improvement_pct(&self, base: &RunResult) -> f64 {
        let b = base.ipc();
        if b == 0.0 {
            0.0
        } else {
            (self.ipc() - b) / b * 100.0
        }
    }

    /// The run counts exported as telemetry counters, in export order:
    /// the core's, then (with Branch Runahead attached) the engine's.
    /// Every value is read from the statistics that own it.
    #[must_use]
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let c = &self.core;
        let mut out = vec![
            ("core.retired_uops", c.retired_uops),
            ("core.retired_branches", c.retired_branches),
            ("core.mispredicts", c.mispredicts),
            ("core.recoveries", c.recoveries),
            ("core.squashed_uops", c.squashed_uops),
        ];
        if let Some(b) = &self.br {
            out.extend([
                ("br.extraction_attempts", b.extraction_attempts),
                ("br.chains_extracted", b.chains_extracted),
                ("br.extraction_rejects", b.extraction_rejects),
                ("br.dce_flushes", b.dce_flushes),
                ("br.dce_syncs", b.syncs),
                ("br.merge_events", b.merge_points_found),
                ("br.hbt_inserts", b.hbt_inserts),
                ("br.hbt_evicts", b.hbt_evicts),
                ("br.faults_injected", self.faults.map_or(0, |f| f.total())),
                ("br.machine_checks", b.machine_checks),
            ]);
        }
        out
    }

    /// Event counts for the energy model.
    #[must_use]
    pub fn energy_events(&self) -> EnergyEvents {
        let br = self.br.as_ref();
        EnergyEvents {
            cycles: self.core.cycles,
            core_uops: self.core.issued_uops,
            l1_accesses: self.mem.l1.hits + self.mem.l1.misses,
            l2_accesses: self.mem.l2.hits + self.mem.l2.misses,
            dram_accesses: self.mem.dram.reads + self.mem.dram.writes,
            predictor_lookups: self.core.fetched_branches,
            dce_uops: br.map_or(0, |b| b.dce_uops),
            dce_loads: br.map_or(0, |b| b.dce_loads),
            chain_extractions: br.map_or(0, |b| b.extraction_attempts),
            br_present: self.br.is_some(),
        }
    }
}

/// The statistics the interval sampler reads; it differences two of
/// these to get per-interval rates.
#[derive(Clone, Debug, Default)]
struct Observed {
    core: CoreStats,
    mem: MemoryStats,
    br: BrStats,
    live: BrLiveState,
}

/// The interval sampler: snapshots the system every `interval` retired
/// uops, turning cumulative statistics into a time series of interval
/// rates (the time axis the end-of-run totals flatten away).
#[derive(Clone, Debug)]
struct Sampler {
    interval: u64,
    next: u64,
    samples: Vec<Sample>,
    prev: Observed,
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl Sampler {
    fn new(interval: u64) -> Self {
        Sampler {
            interval: interval.max(1),
            next: interval.max(1),
            samples: Vec::new(),
            prev: Observed::default(),
        }
    }

    fn take(&mut self, cycle: u64, core: &Core, mem: &MemorySystem, br: Option<&BranchRunahead>) {
        let now = Observed {
            core: core.stats().clone(),
            mem: mem.stats(),
            br: br.map(BranchRunahead::stats).unwrap_or_default(),
            live: br.map(BranchRunahead::live_state).unwrap_or_default(),
        };
        let p = &self.prev;
        let d = |f: &dyn Fn(&Observed) -> u64| f(&now).saturating_sub(f(p));
        let cat = |c: PredictionCategory| d(&|o: &Observed| o.br.category_count(c));
        let d_retired = d(&|o| o.core.retired_uops);
        let d_covered = d(&|o| o.br.covered_branch_retires);
        let d_l1_misses = d(&|o| o.mem.l1.misses);
        self.samples.push(Sample {
            cycle,
            retired_uops: now.core.retired_uops,
            ipc: rate(d_retired, d(&|o| o.core.cycles)),
            mpki: rate(d(&|o| o.core.mispredicts), d_retired) * 1000.0,
            l1_miss_rate: rate(d_l1_misses, d(&|o| o.mem.l1.hits) + d_l1_misses),
            mshr_in_use: mem.mshrs_in_use() as u64,
            dce_active: now.live.dce_active as u64,
            queue_slots: now.live.queue_slots as u64,
            cached_chains: now.live.cached_chains as u64,
            chain_cache_hit_rate: rate(d(&|o| o.live.cache_hits), d(&|o| o.live.cache_lookups)),
            coverage_rate: rate(d_covered, d(&|o| o.core.retired_branches)),
            late_rate: rate(cat(PredictionCategory::Late), d_covered),
            throttle_rate: rate(cat(PredictionCategory::Throttled), d_covered),
            correct_rate: rate(cat(PredictionCategory::Correct), d_covered),
            incorrect_rate: rate(cat(PredictionCategory::Incorrect), d_covered),
        });
        while self.next <= now.core.retired_uops {
            self.next += self.interval;
        }
        self.prev = now;
    }
}

/// A runnable system instance. `System` is `Send`: it is a fully
/// self-contained unit of work that a sharded runner can move to any
/// worker thread (see `crate::runner`).
pub struct System {
    core: Core,
    mem: MemorySystem,
    /// The Branch Runahead engine; `None` is the baseline system, whose
    /// core runs with [`NullHooks`].
    br: Option<Box<BranchRunahead>>,
    max_cycles: u64,
    config_name: String,
    sampler: Option<Sampler>,
    machine_check: bool,
    injector: Option<FaultInjector>,
    /// Per-cycle memory-response buffer, reused across the run loop.
    resp_scratch: Vec<MemResp>,
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("config", &self.config_name)
            .finish()
    }
}

impl System {
    /// Builds a system from a configuration and a shared workload image.
    /// The image is not consumed: its program is reference-shared and its
    /// memory pages are copied, so one built image can seed every
    /// configuration and region of an experiment.
    #[must_use]
    pub fn new(cfg: SimConfig, image: &WorkloadImage) -> Self {
        let machine = Machine::new(image.memory.to_memory());
        let mut core = Core::new(
            cfg.core,
            image.program.clone(),
            machine,
            cfg.predictor.build(),
        );
        core.set_max_retired(cfg.max_retired);
        let mut br = cfg
            .runahead
            .map(|rc| Box::new(BranchRunahead::new(rc, cfg.core.retire_width)));
        let config_name = match &cfg.runahead {
            Some(rc) => format!("{}+br-{}", cfg.predictor.name(), rc.name),
            None => cfg.predictor.name().to_string(),
        };
        let sampler = if cfg.telemetry.enabled {
            core.attach_telemetry(Telemetry::from_config(&cfg.telemetry));
            if let Some(br) = &mut br {
                br.attach_telemetry(Telemetry::from_config(&cfg.telemetry));
            }
            Some(Sampler::new(cfg.telemetry.sample_interval))
        } else {
            None
        };
        System {
            core,
            mem: MemorySystem::new(cfg.memory),
            br,
            max_cycles: cfg.max_cycles,
            config_name,
            sampler,
            machine_check: cfg.machine_check,
            injector: cfg.faults.map(FaultInjector::new),
            resp_scratch: Vec::new(),
        }
    }

    /// Runs to completion like [`System::try_run`], panicking on a
    /// machine-check violation (kept for callers that treat a violated
    /// invariant as a bug, e.g. unit tests).
    ///
    /// # Panics
    ///
    /// Panics when a machine-check invariant sweep fails.
    pub fn run(&mut self) -> RunResult {
        match self.try_run() {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Runs periodic machine-check sweeps over the Branch Runahead
    /// structures, surfacing the first violation as a typed error.
    fn check_machine(&mut self, cycle: u64) -> Result<(), SimError> {
        let name = &self.config_name;
        if let Some(br) = &mut self.br {
            br.check_invariants(cycle)
                .map_err(|what| SimError::InvariantViolation {
                    job: name.clone(),
                    cycle,
                    what,
                })?;
        }
        Ok(())
    }

    /// Runs to completion (program halt, retired-uop budget, or the cycle
    /// safety cap) and returns the statistics. Baseline and Branch
    /// Runahead systems share this single loop: the core observes the
    /// attached engine, or [`NullHooks`] without one. When the
    /// configuration carries a fault schedule the injector perturbs the
    /// BR/core boundary each cycle; when machine checks are on, periodic
    /// invariant sweeps abort the run with
    /// [`SimError::InvariantViolation`] at the first inconsistency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvariantViolation`] (with the config name as
    /// the job field; [`crate::SimJob::try_execute`] patches in the full
    /// job label) when a machine-check sweep fails.
    pub fn try_run(&mut self) -> Result<RunResult, SimError> {
        let mut last_cycle = 0;
        for cycle in 0..self.max_cycles {
            last_cycle = cycle;
            let mut responses = std::mem::take(&mut self.resp_scratch);
            self.mem.tick_into(cycle, &mut responses);
            let report = match self.br.as_deref_mut() {
                None => self.core.tick(&responses, &mut self.mem, &mut NullHooks),
                Some(br) => {
                    let report = match &mut self.injector {
                        Some(inj) => {
                            let delayed_before = inj.stats().delayed_responses;
                            responses = inj.filter_responses(cycle, responses, br);
                            inj.note_delays(cycle, delayed_before, br);
                            if inj.chaos_due(cycle) {
                                inj.chaos_tick(cycle, br);
                            }
                            let mut hooks = FaultedHooks::new(br, inj);
                            self.core.tick(&responses, &mut self.mem, &mut hooks)
                        }
                        None => self.core.tick(&responses, &mut self.mem, br),
                    };
                    // The DCE runs in the shadow of the core, consuming
                    // the resources its tick left free.
                    br.tick(
                        cycle,
                        self.core.machine(),
                        &mut self.mem,
                        &responses,
                        &report,
                    );
                    report
                }
            };
            if let Some(s) = &mut self.sampler {
                if self.core.stats().retired_uops >= s.next {
                    s.take(cycle, &self.core, &self.mem, self.br.as_deref());
                }
            }
            if self.machine_check && cycle.is_multiple_of(MACHINE_CHECK_INTERVAL) {
                self.check_machine(cycle)?;
            }
            self.resp_scratch = responses;
            if report.done {
                break;
            }
        }
        if self.machine_check {
            // Terminal sweep: catch damage done after the last periodic one.
            self.check_machine(last_cycle)?;
        }
        let mut result = RunResult {
            core: self.core.stats().clone(),
            mem: self.mem.stats(),
            br: self.br.as_deref().map(BranchRunahead::stats),
            config_name: self.config_name.clone(),
            telemetry: None,
            faults: self.injector.as_ref().map(FaultInjector::stats),
        };
        if let Some(s) = self.sampler.take() {
            let core_t = self.core.take_telemetry();
            let br_t = self
                .br
                .as_deref_mut()
                .map_or_else(Telemetry::off, BranchRunahead::take_telemetry);
            result.telemetry = Some(TelemetryRun::collect(
                s.samples,
                result.counters(),
                vec![core_t, br_t],
            ));
        }
        Ok(result)
    }

    /// The core (for inspection after a run).
    #[must_use]
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// The Branch Runahead system, if enabled.
    #[must_use]
    pub fn runahead(&self) -> Option<&BranchRunahead> {
        self.br.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_workloads::{workload_by_name, WorkloadParams};

    fn small_params() -> WorkloadParams {
        WorkloadParams {
            scale: 512,
            iterations: 1_000_000,
            seed: 17,
        }
    }

    fn run_one(mut cfg: SimConfig, name: &str) -> RunResult {
        cfg.max_retired = 60_000;
        let w = workload_by_name(name).unwrap();
        System::new(cfg, &w.build(&small_params())).run()
    }

    #[test]
    fn baseline_runs_and_reports() {
        let r = run_one(SimConfig::baseline(), "leela_17");
        assert!(r.core.retired_uops >= 60_000);
        assert!(r.ipc() > 0.1 && r.ipc() <= 4.0);
        assert!(r.mpki() > 1.0, "leela-like kernel must mispredict");
        assert!(r.br.is_none());
    }

    #[test]
    #[ignore = "paper-shape tier (threshold assertion): run with --ignored"]
    fn mini_br_beats_baseline_on_leela() {
        let base = run_one(SimConfig::baseline(), "leela_17");
        let with = run_one(SimConfig::mini_br(), "leela_17");
        assert!(with.br.is_some());
        assert!(
            with.mpki_improvement_pct(&base) > 15.0,
            "mini BR should cut MPKI well: base {:.2} vs br {:.2}",
            base.mpki(),
            with.mpki()
        );
    }

    #[test]
    fn multi_region_weighted_average() {
        use crate::experiments::ExperimentSetup;
        let mut setup = ExperimentSetup::quick();
        setup.max_retired = 20_000;
        setup.workloads = vec!["leela_17".into()];
        let single = setup.run(SimConfig::baseline(), "leela_17").unwrap();
        setup.regions = vec![(0, 1.0), (1, 0.5)];
        let multi = setup.run(SimConfig::baseline(), "leela_17").unwrap();
        // Weighted result must lie between the two regions' extremes; a
        // loose sanity bound: within 50% of the single-region MPKI.
        assert!(multi.core.retired_uops >= 20_000);
        assert!(
            (multi.mpki() - single.mpki()).abs() / single.mpki() < 0.5,
            "weighted MPKI implausible: {} vs {}",
            multi.mpki(),
            single.mpki()
        );
    }

    #[test]
    fn energy_events_populated() {
        let r = run_one(SimConfig::mini_br(), "bfs");
        let e = r.energy_events();
        assert!(e.cycles > 0 && e.core_uops > 0 && e.l1_accesses > 0);
        assert!(e.br_present);
    }
}
