//! Allocation budget of the simulation loop.
//!
//! The per-cycle path is allocation-free in steady state (DESIGN.md §11):
//! what a job allocates is set-up plus event-bounded work such as chain
//! extraction. Allocation counts are deterministic, so this gate can be
//! tight where a wall-clock gate could not: one reintroduced per-cycle
//! allocation multiplies a job's count and fails it at once.
//!
//! The counting allocator is process-global, so this file holds exactly
//! one test and runs its jobs one at a time. Each job's image is built
//! before counting starts; the count covers `System::new` and the run.

use br_bench::alloc_count::{allocations, CountingAllocator};
use branch_runahead::sim::experiments::ExperimentSetup;
use branch_runahead::sim::SimConfig;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations per job at the quick budget (60k retired uops), measured
/// on the build this gate was introduced with: `(workload, baseline,
/// Mini-BR)`. A change that alters allocation behaviour on purpose
/// re-pins them and says why.
const BUDGET: [(&str, u64, u64); 4] = [
    ("leela_17", 2514, 6997),
    ("mcf_06", 2436, 4322),
    ("bfs", 3063, 5896),
    ("sssp", 3430, 7788),
];

/// The most a job may allocate against its recorded count: half again,
/// plus a constant that lets a small count absorb a few one-time
/// allocations.
fn limit(recorded: u64) -> u64 {
    recorded + recorded / 2 + 64
}

#[test]
fn simulation_jobs_stay_within_allocation_budget() {
    let setup = ExperimentSetup::quick();
    let mut report = Vec::new();
    let mut over = false;
    for (workload, baseline, mini) in BUDGET {
        for (cfg, recorded) in [
            (SimConfig::baseline(), baseline),
            (SimConfig::mini_br(), mini),
        ] {
            for job in setup.jobs(&cfg, workload) {
                let image = job.build_image().expect("quick workload builds");
                let before = allocations();
                job.try_execute(&image).expect("job runs");
                let counted = allocations() - before;
                over |= counted > limit(recorded);
                report.push(format!(
                    "{}: {counted} allocations (recorded {recorded}, limit {})",
                    job.label(),
                    limit(recorded)
                ));
            }
        }
    }
    assert!(
        !over,
        "a job exceeded its allocation budget:\n{}",
        report.join("\n")
    );
}
