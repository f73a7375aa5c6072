//! Behaviour golden for the Dependence Chain Engine paths the benchmark
//! does not run: Core-Only (the DCE's ALU budget is the core's free issue
//! slots), the in-order DCE ablation, non-speculative initiation, and
//! extraction without affector/guard branches.
//!
//! Each job is a quick kernel at the quick parameters for 20k retired
//! uops. Its digest is an FNV-1a fold of the retire fingerprint, the
//! cycle count, every integer field of `BrStats` and the count of every
//! prediction category; `tests/golden/dce/digests.txt` holds one line per
//! job. A change to the engine that claims to leave behaviour unchanged
//! must leave this test passing. On a mismatch the actual digests are
//! written under the cargo target's scratch directory and the path
//! printed.

use std::path::Path;

use branch_runahead::runahead::{BrStats, InitiationMode, PredictionCategory};
use branch_runahead::sim::experiments::ExperimentSetup;
use branch_runahead::sim::SimConfig;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/dce/digests.txt");

const KERNELS: [&str; 3] = ["leela_17", "bfs", "sssp"];

fn configs() -> Vec<(&'static str, SimConfig)> {
    let mini = |edit: fn(&mut branch_runahead::runahead::BranchRunaheadConfig)| {
        let mut cfg = SimConfig::mini_br();
        edit(cfg.runahead.as_mut().expect("mini has BR"));
        cfg
    };
    vec![
        ("core-only", SimConfig::core_only_br()),
        ("mini-in-order", mini(|c| c.dce_in_order = true)),
        (
            "mini-non-speculative",
            mini(|c| c.initiation = InitiationMode::NonSpeculative),
        ),
        ("mini-no-ag", mini(|c| c.enable_affector_guards = false)),
    ]
}

fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn br_words(b: &BrStats) -> Vec<u64> {
    let mut w = vec![
        b.extraction_attempts,
        b.chains_extracted,
        b.extraction_rejects,
        b.chain_len_sum,
        b.chains_with_ag,
        b.uops_eliminated,
        b.instances_initiated,
        b.instances_flushed,
        b.instances_completed,
        b.dce_uops,
        b.dce_loads,
        b.syncs,
        b.dce_flushes,
        b.merge_points_found,
        b.merge_points_failed,
        b.merge_validated,
        b.merge_correct,
        b.static_merge_validated,
        b.static_merge_correct,
        b.ag_pairs,
        b.hbt_inserts,
        b.hbt_evicts,
        b.machine_checks,
        b.covered_branch_retires,
    ];
    w.extend(PredictionCategory::ALL.iter().map(|c| b.category_count(*c)));
    w
}

fn digests() -> String {
    let mut setup = ExperimentSetup::quick();
    setup.max_retired = 20_000;
    let mut out = String::new();
    for (name, cfg) in configs() {
        for kernel in KERNELS {
            for job in setup.jobs(&cfg, kernel) {
                let r = job.run().expect("golden job runs");
                let br = r.br.as_ref().expect("BR attached");
                assert!(br.instances_completed > 0, "{name}/{kernel}: the DCE ran");
                let mut words = vec![r.core.retire_fingerprint, r.core.cycles];
                words.extend(br_words(br));
                out.push_str(&format!("{name}/{kernel} {:016x}\n", fnv1a(&words)));
            }
        }
    }
    out
}

#[test]
fn dce_paths_match_golden() {
    let actual = digests();
    let golden =
        std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| panic!("read golden {GOLDEN}: {e}"));
    if actual != golden {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("dce_golden");
        std::fs::create_dir_all(&dir).expect("create actual-output dir");
        let path = dir.join("digests.txt");
        std::fs::write(&path, &actual).expect("write actual digests");
        panic!(
            "DCE digests differ from {GOLDEN}; actual digests written to {}",
            path.display()
        );
    }
}
