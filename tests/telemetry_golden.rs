//! Telemetry golden: the exporters' output for three fixed jobs is pinned.
//!
//! `counters.json` is committed verbatim; the larger exports
//! (`samples.jsonl`, `samples.csv`, `events.jsonl`, `trace.json`) are
//! pinned by FNV-1a digests in `digests.txt`. The jobs are leela_17 at the
//! quick kernel parameters, 20k retired uops each, sampled every 5k uops:
//! baseline, Mini-BR, and Mini-BR under the default fault schedule with
//! machine checks on (so the fault and machine-check counts are nonzero).
//!
//! A refactor that claims to leave behaviour and observability unchanged
//! must leave this test passing. On a mismatch the actual files are
//! written under the cargo target's scratch directory and their paths
//! printed, so they can be diffed against `tests/golden/telemetry/`.

use std::path::{Path, PathBuf};

use branch_runahead::sim::experiments::ExperimentSetup;
use branch_runahead::sim::{FaultSpec, SimConfig, TelemetryConfig};
use branch_runahead::telemetry::{export, TelemetryRun};

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/telemetry");

fn runs() -> Vec<(String, TelemetryRun)> {
    let mut setup = ExperimentSetup::quick();
    setup.max_retired = 20_000;
    setup.telemetry = TelemetryConfig {
        enabled: true,
        sample_interval: 5_000,
        ..TelemetryConfig::default()
    };
    let mut faulted = SimConfig::mini_br();
    faulted.faults = Some(FaultSpec::default());
    faulted.machine_check = true;
    let jobs = [
        ("", SimConfig::baseline()),
        ("", SimConfig::mini_br()),
        ("+faults", faulted),
    ];
    jobs.iter()
        .flat_map(|(suffix, cfg)| {
            setup.jobs(cfg, "leela_17").into_iter().map(move |job| {
                let r = job.run().expect("golden job runs");
                let label = format!("{}{suffix}", job.label());
                (label, r.telemetry.expect("telemetry enabled"))
            })
        })
        .collect()
}

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn write_actual(files: &[(&str, String)]) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("telemetry_golden");
    std::fs::create_dir_all(&dir).expect("create actual-output dir");
    files
        .iter()
        .map(|(name, contents)| {
            let path = dir.join(name);
            std::fs::write(&path, contents).expect("write actual output");
            path
        })
        .collect()
}

#[test]
fn telemetry_exports_match_golden() {
    let runs = runs();
    let counters = export::counters_json(&runs);
    let digested = [
        ("samples.jsonl", export::samples_jsonl(&runs)),
        ("samples.csv", export::samples_csv(&runs)),
        ("events.jsonl", export::events_jsonl(&runs)),
        ("trace.json", export::chrome_trace(&runs)),
    ];
    let digests: String = digested
        .iter()
        .map(|(name, contents)| format!("{name} {:016x}\n", fnv1a(contents)))
        .collect();

    let golden = Path::new(GOLDEN_DIR);
    let read = |name: &str| {
        std::fs::read_to_string(golden.join(name))
            .unwrap_or_else(|e| panic!("read golden {name}: {e}"))
    };
    let counters_ok = read("counters.json") == counters;
    let digests_ok = read("digests.txt") == digests;
    if !(counters_ok && digests_ok) {
        let mut files = vec![("counters.json", counters), ("digests.txt", digests)];
        files.extend(digested);
        let paths = write_actual(&files);
        panic!(
            "telemetry exports differ from {GOLDEN_DIR} (counters.json {}, digests.txt {}); \
             actual output written to:\n{}",
            if counters_ok { "same" } else { "differs" },
            if digests_ok { "same" } else { "differs" },
            paths
                .iter()
                .map(|p| format!("  {}", p.display()))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
