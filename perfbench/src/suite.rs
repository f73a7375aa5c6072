//! The benchmark's workloads: fixed sets of `(kernel, config)` jobs.

use br_sim::experiments::ExperimentSetup;
use br_sim::{SimConfig, SimJob};
use br_workloads::{all_workloads, WorkloadParams};

/// The seed whose behaviour digests are committed under `digests/`.
pub const DEFAULT_SEED: u64 = 0;

/// Retired uops per job: a sixth of the quick suite's budget. The host's
/// speed fluctuates from second to second, and a job's fastest repetition
/// is steadier across runs when repetitions are short and many (see the
/// noise record in README.md).
pub const MAX_RETIRED: u64 = 10_000;

/// The kernels Big BR runs: the quick suite plus two divergence cases
/// from EXPERIMENTS.md: chains do not help `xz_17` (control-dependent
/// trip count, so the DCE flushes constantly) or `gobmk_06` (stores keep
/// mutating the chain's source data).
const BIG_KERNELS: [&str; 6] = ["leela_17", "mcf_06", "bfs", "sssp", "xz_17", "gobmk_06"];

/// One named workload.
pub struct Workload {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// The system configuration every job of the workload runs.
    pub config: fn() -> SimConfig,
    /// Kernels in run order; `None` means all 18.
    kernels: Option<&'static [&'static str]>,
    /// The committed behaviour digests at the default seed.
    pub digests: &'static str,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "baseline",
        config: SimConfig::baseline,
        kernels: None,
        digests: include_str!("../digests/baseline.txt"),
    },
    Workload {
        name: "mini-br",
        config: SimConfig::mini_br,
        kernels: None,
        digests: include_str!("../digests/mini-br.txt"),
    },
    Workload {
        name: "big-br",
        config: SimConfig::big_br,
        kernels: Some(&BIG_KERNELS),
        digests: include_str!("../digests/big-br.txt"),
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The kernel-data seed for benchmark seed `seed`. Seed 0 gives the quick
/// suite's own data (`ExperimentSetup::quick().params.seed`); other seeds
/// are spread with an odd multiplier so neighbouring seeds share nothing.
pub fn kernel_seed(seed: u64) -> u64 {
    let base = ExperimentSetup::quick().params.seed;
    match base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
        0 => base,
        s => s,
    }
}

impl Workload {
    /// The workload's jobs for benchmark seed `seed`, at the quick suite's
    /// kernel parameters.
    pub fn jobs(&self, seed: u64) -> Vec<SimJob> {
        let params = WorkloadParams {
            seed: kernel_seed(seed),
            ..ExperimentSetup::quick().params
        };
        let kernels: Vec<&str> = match self.kernels {
            Some(k) => k.to_vec(),
            None => all_workloads().iter().map(|w| w.name()).collect(),
        };
        kernels
            .into_iter()
            .map(|k| SimJob {
                config: (self.config)(),
                workload: k.to_string(),
                params,
                region_seed: 0,
                weight: 1.0,
                max_retired: MAX_RETIRED,
            })
            .collect()
    }
}

/// A job's configuration as it runs: its config with the job's budget.
pub fn run_config(job: &SimJob) -> SimConfig {
    SimConfig {
        max_retired: job.max_retired,
        ..job.config.clone()
    }
}
