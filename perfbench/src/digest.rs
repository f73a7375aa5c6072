//! Behaviour digests and the architectural reference check.
//!
//! A digest folds every simulated count a job reports — the retire
//! fingerprint, cycles, retired uops, mispredictions, the whole `BrStats`
//! record including the prediction breakdown, and the L1/L2/DRAM counts —
//! into one 64-bit FNV-1a value. A speed-only change must leave every
//! digest unchanged; `digests/<workload>.txt` holds them for the default
//! seed.

use br_core::{BrStats, PredictionCategory};
use br_isa::{Force, Machine};
use br_mem::MemoryStats;
use br_ooo::CoreStats;
use br_sim::RunResult;
use br_workloads::WorkloadImage;

/// What a job's run produced, from either the plain or the traced loop.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Core statistics.
    pub core: CoreStats,
    /// Memory-system statistics.
    pub mem: MemoryStats,
    /// Branch Runahead statistics, when BR was attached.
    pub br: Option<BrStats>,
}

impl From<RunResult> for Outcome {
    fn from(r: RunResult) -> Self {
        Outcome {
            core: r.core,
            mem: r.mem,
            br: r.br,
        }
    }
}

struct Fnv(u64);

impl Fnv {
    fn fold(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl Outcome {
    /// The behaviour digest of this outcome.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        let c = &self.core;
        for w in [
            c.retire_fingerprint,
            c.cycles,
            c.retired_uops,
            c.mispredicts,
        ] {
            h.fold(w);
        }
        let m = &self.mem;
        for w in [
            m.l1.hits,
            m.l1.misses,
            m.l2.hits,
            m.l2.misses,
            m.dram.reads,
            m.dram.writes,
        ] {
            h.fold(w);
        }
        if let Some(b) = &self.br {
            for w in [
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
                b.merge_points_found,
                b.merge_points_failed,
                b.merge_validated,
                b.merge_correct,
                b.static_merge_validated,
                b.static_merge_correct,
                b.ag_pairs,
                b.covered_branch_retires,
            ] {
                h.fold(w);
            }
            for cat in PredictionCategory::ALL {
                h.fold(b.prediction_breakdown.get(&cat).copied().unwrap_or(0));
            }
        }
        h.0
    }
}

/// The retire fingerprint the functional emulator produces over the first
/// `uops` uops of `image`: the architecturally correct answer the
/// out-of-order core must match, whatever steered its fetch. The fold
/// covers the same content, in the same order, as `CoreStats`.
pub fn reference_fingerprint(image: &WorkloadImage, uops: u64) -> Result<u64, String> {
    let mut machine = Machine::new(image.memory.to_memory());
    let mut stats = CoreStats::default();
    for _ in 0..uops {
        let rec = machine
            .step(&image.program, Force::None)
            .map_err(|e| format!("functional reference stopped: {e}"))?;
        stats.fold_retirement(rec.pc);
        stats.fold_retirement(u64::from(rec.halt));
        if let Some((r, v)) = rec.dst {
            stats.fold_retirement(r.index() as u64);
            stats.fold_retirement(v);
        }
        if let Some(m) = rec.mem {
            stats.fold_retirement(m.addr);
            stats.fold_retirement(m.value);
            stats.fold_retirement(u64::from(m.is_store));
        }
        if let Some(b) = rec.branch {
            stats.fold_retirement(u64::from(b.actual_taken));
            stats.fold_retirement(b.actual_next);
        }
    }
    Ok(stats.retire_fingerprint)
}

/// One line of a digest file: `<kernel> <16 hex digits>`.
pub fn format_line(kernel: &str, digest: u64) -> String {
    format!("{kernel} {digest:016x}")
}

/// Parses a digest file into `(kernel, digest)` pairs. Blank lines and
/// `#` comments are skipped.
pub fn parse(text: &str) -> Result<Vec<(String, u64)>, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut parts = l.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(k), Some(d), None) => u64::from_str_radix(d, 16)
                    .map(|d| (k.to_string(), d))
                    .map_err(|e| format!("bad digest in {l:?}: {e}")),
                _ => Err(format!("bad digest line {l:?}")),
            }
        })
        .collect()
}

/// Compares a job's digest against the committed ones: `None` when it
/// matches, else why not.
pub fn check(golden: &[(String, u64)], kernel: &str, digest: u64) -> Option<String> {
    match golden.iter().find(|(k, _)| k == kernel) {
        Some((_, d)) if *d == digest => None,
        Some((_, d)) => Some(format!(
            "behaviour digest {digest:016x} differs from committed {d:016x}"
        )),
        None => Some("no committed behaviour digest".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{self, DEFAULT_SEED};

    fn committed(workload: &str) -> Vec<(String, u64)> {
        parse(suite::workload(workload).expect("workload").digests).expect("parses")
    }

    /// Runs the baseline `bfs` job at the default seed.
    fn bfs_baseline() -> (Outcome, u64) {
        let job = suite::workload("baseline")
            .expect("baseline workload")
            .jobs(DEFAULT_SEED)
            .into_iter()
            .find(|j| j.workload == "bfs")
            .expect("bfs job");
        let image = job.build_image().expect("image builds");
        let outcome = Outcome::from(job.try_execute(&image).expect("job runs"));
        let reference = reference_fingerprint(&image, outcome.core.retired_uops).expect("steps");
        (outcome, reference)
    }

    #[test]
    fn committed_digest_matches_and_a_perturbed_one_is_flagged() {
        let (outcome, _) = bfs_baseline();
        let golden = committed("baseline");
        assert_eq!(check(&golden, "bfs", outcome.digest()), None);

        let mut perturbed = golden.clone();
        for (k, d) in &mut perturbed {
            if k == "bfs" {
                *d ^= 1;
            }
        }
        let why = check(&perturbed, "bfs", outcome.digest()).expect("mismatch flagged");
        assert!(why.contains("differs"), "{why}");
        assert!(check(&golden, "no_such_kernel", outcome.digest()).is_some());
    }

    #[test]
    fn digest_covers_every_reported_count() {
        let (outcome, _) = bfs_baseline();
        let base = outcome.digest();
        let mut o = outcome.clone();
        o.core.cycles += 1;
        assert_ne!(o.digest(), base);
        let mut o = outcome.clone();
        o.mem.dram.reads += 1;
        assert_ne!(o.digest(), base);
        let mut o = outcome;
        let mut br = BrStats::default();
        br.count_category(PredictionCategory::Late);
        o.br = Some(br);
        assert_ne!(o.digest(), base);
    }

    #[test]
    fn core_matches_the_functional_reference() {
        let (outcome, reference) = bfs_baseline();
        assert_eq!(outcome.core.retire_fingerprint, reference);
    }

    #[test]
    fn digest_files_parse_and_reject_garbage() {
        for w in suite::WORKLOADS {
            let golden = committed(w.name);
            assert_eq!(golden.len(), w.jobs(DEFAULT_SEED).len(), "{}", w.name);
        }
        assert!(parse("bfs zz").is_err());
        assert!(parse("bfs 1 2").is_err());
        assert_eq!(parse("# c\n\nbfs 0a\n").unwrap(), vec![("bfs".into(), 10)]);
    }
}
