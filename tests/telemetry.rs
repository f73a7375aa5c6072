//! Telemetry acceptance: the exported counters must be the end-of-run
//! statistics that own them, every traced event kind must reconcile with
//! the statistic counting it (same underlying events, two views), the
//! interval samples must advance monotonically, and a run with telemetry
//! disabled must be byte-identical to one that never heard of the
//! subsystem.

use branch_runahead::sim::{SimConfig, System, TelemetryConfig};
use branch_runahead::telemetry::EventKind;
use branch_runahead::workloads::{workload_by_name, WorkloadParams};

fn image() -> branch_runahead::workloads::WorkloadImage {
    workload_by_name("leela_17")
        .unwrap()
        .build(&WorkloadParams {
            scale: 512,
            iterations: 1_000_000,
            seed: 17,
        })
}

fn run_with_telemetry() -> branch_runahead::sim::RunResult {
    let mut cfg = SimConfig::mini_br();
    cfg.max_retired = 60_000;
    cfg.telemetry = TelemetryConfig {
        enabled: true,
        sample_interval: 5_000,
        event_capacity: 1 << 16,
    };
    System::new(cfg, &image()).run()
}

#[test]
fn counters_reconcile_with_run_stats() {
    let r = run_with_telemetry();
    let t = r.telemetry.as_ref().expect("telemetry enabled");
    let br = r.br.as_ref().expect("BR enabled");
    let faults = r.faults.map_or(0, |f| f.total());

    // Each exported counter is its statistics field, read at collection.
    let expected = vec![
        ("core.retired_uops", r.core.retired_uops),
        ("core.retired_branches", r.core.retired_branches),
        ("core.mispredicts", r.core.mispredicts),
        ("core.recoveries", r.core.recoveries),
        ("core.squashed_uops", r.core.squashed_uops),
        ("br.extraction_attempts", br.extraction_attempts),
        ("br.chains_extracted", br.chains_extracted),
        ("br.extraction_rejects", br.extraction_rejects),
        ("br.dce_flushes", br.dce_flushes),
        ("br.dce_syncs", br.syncs),
        ("br.merge_events", br.merge_points_found),
        ("br.hbt_inserts", br.hbt_inserts),
        ("br.hbt_evicts", br.hbt_evicts),
        ("br.faults_injected", faults),
        ("br.machine_checks", br.machine_checks),
    ];
    assert_eq!(t.counters, expected);

    // The chain-length histogram shadows the stats' sum.
    let (_, hist) = t
        .histograms
        .iter()
        .find(|(n, _)| n == "br.chain_len")
        .expect("chain_len histogram");
    assert_eq!(hist.sum(), br.chain_len_sum);
    assert_eq!(hist.count(), br.chains_extracted);
}

#[test]
fn events_reconcile_with_counters() {
    let r = run_with_telemetry();
    let t = r.telemetry.as_ref().expect("telemetry enabled");
    let br = r.br.as_ref().expect("BR enabled");
    // Nothing dropped at this capacity, so each traced kind must match
    // the statistic that owns its count exactly.
    assert_eq!(t.dropped_events, 0, "ring too small for this run");
    for (kind, owner, count) in [
        (
            EventKind::ChainExtract,
            "chains_extracted",
            br.chains_extracted,
        ),
        (
            EventKind::ChainReject,
            "extraction_rejects",
            br.extraction_rejects,
        ),
        (EventKind::DceSync, "syncs", br.syncs),
        (EventKind::DceFlush, "dce_flushes", br.dce_flushes),
        (
            EventKind::WpbMerge,
            "merge_points_found",
            br.merge_points_found,
        ),
        (EventKind::HbtInsert, "hbt_inserts", br.hbt_inserts),
        (EventKind::HbtEvict, "hbt_evicts", br.hbt_evicts),
        (EventKind::Recovery, "recoveries", r.core.recoveries),
    ] {
        assert_eq!(
            t.event_count(kind) as u64,
            count,
            "{} events disagree with {owner}",
            kind.name()
        );
    }
    // Events arrive merged in nondecreasing cycle order.
    assert!(t.events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
}

#[test]
fn samples_are_monotonic_and_plausible() {
    let r = run_with_telemetry();
    let t = r.telemetry.as_ref().expect("telemetry enabled");
    assert!(
        t.samples.len() >= 5,
        "60k uops at 5k cadence: {}",
        t.samples.len()
    );
    for w in t.samples.windows(2) {
        assert!(w[0].cycle < w[1].cycle, "cycles must advance");
        assert!(
            w[0].retired_uops < w[1].retired_uops,
            "retired count must advance"
        );
    }
    for s in &t.samples {
        assert!(s.ipc > 0.0 && s.ipc <= 8.0, "implausible IPC {}", s.ipc);
        assert!(s.mpki >= 0.0, "negative MPKI");
        for rate in [
            s.l1_miss_rate,
            s.chain_cache_hit_rate,
            s.coverage_rate,
            s.late_rate,
            s.throttle_rate,
            s.correct_rate,
            s.incorrect_rate,
        ] {
            assert!((0.0..=1.0).contains(&rate), "rate out of range: {rate}");
        }
    }
}

#[test]
fn disabled_telemetry_changes_nothing() {
    let mut cfg = SimConfig::mini_br();
    cfg.max_retired = 30_000;
    let plain = System::new(cfg.clone(), &image()).run();
    assert!(plain.telemetry.is_none(), "off by default");

    cfg.telemetry = TelemetryConfig {
        enabled: true,
        sample_interval: 2_000,
        event_capacity: 1 << 14,
    };
    let traced = System::new(cfg, &image()).run();
    // Observation must not perturb the simulation.
    assert_eq!(plain.core.cycles, traced.core.cycles);
    assert_eq!(plain.core.retired_uops, traced.core.retired_uops);
    assert_eq!(plain.core.mispredicts, traced.core.mispredicts);
    assert_eq!(
        plain.br.as_ref().map(|b| b.dce_uops),
        traced.br.as_ref().map(|b| b.dce_uops)
    );
}
