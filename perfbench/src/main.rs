//! The Branch Runahead simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mini-br --seed 0 --seconds 30 --trace 0
//! ```
//!
//! Runs one workload's jobs on one thread for about `--seconds`, sweep
//! after sweep, and prints the result as one JSON object on the last line
//! of standard output. `--trace 0` reports the end-to-end metrics, each
//! job timed by its fastest repetition; `--trace 1` reports the per-layer
//! metrics from the traced loop in `trace.rs`. See `README.md` for the
//! metrics, the correctness checks and the noise protocol.

mod digest;
mod metrics;
mod suite;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use br_sim::{SimConfig, SimJob, System};
use br_workloads::WorkloadImage;

use digest::Outcome;
use metrics::quartiles;
use suite::{Workload, DEFAULT_SEED};
use trace::LayerTrace;

#[global_allocator]
static GLOBAL: br_bench::alloc_count::CountingAllocator = br_bench::alloc_count::CountingAllocator;

/// Every job runs at least this many times, however short `--seconds`.
const MIN_REPS: usize = 2;

const USAGE: &str = "usage: perfbench --workload <baseline|mini-br|big-br> \
                     [--seed N] [--seconds S] [--trace 0|1] [--record-digests]";

/// Parsed command line.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut record_digests) = (DEFAULT_SEED, 10.0, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-digests" {
            record_digests = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(suite::workload(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if record_digests && seed != DEFAULT_SEED {
        return Err(format!(
            "--record-digests needs the default seed {DEFAULT_SEED}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        record_digests,
    })
}

/// Runs `f`, turning a panic into an error naming its message.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// One job and everything measured about it.
pub struct JobRun {
    /// The job.
    pub job: SimJob,
    cfg: SimConfig,
    image: Option<Arc<WorkloadImage>>,
    /// Host seconds of each set-up.
    pub setups: Vec<SetupTimes>,
    /// Host seconds of each untraced cycle loop.
    pub times: Vec<f64>,
    /// Each traced repetition (trace mode).
    pub traced: Vec<LayerTrace>,
    /// The first untraced run's outcome.
    pub outcome: Option<Outcome>,
    /// Why the job failed, if it did.
    pub failure: Option<String>,
}

impl JobRun {
    fn fail(&mut self, why: String) {
        if self.failure.is_none() {
            self.failure = Some(why);
        }
    }

    /// Fastest untraced repetition, in seconds.
    pub fn best(&self) -> f64 {
        self.times.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Fastest set-up, by the part of it that `f` picks.
    pub fn best_setup(&self, f: fn(&SetupTimes) -> f64) -> f64 {
        self.setups.iter().map(f).fold(f64::INFINITY, f64::min)
    }

    /// The traced repetition with the shortest loop.
    pub fn best_trace(&self) -> Option<&LayerTrace> {
        self.traced.iter().min_by_key(|t| t.loop_ns)
    }

    /// One untraced repetition: build a fresh system (not timed), time its
    /// cycle loop, and check the outcome repeats the first one.
    fn run_plain(&mut self, image: &WorkloadImage) {
        let cfg = &self.cfg;
        let label = self.job.label();
        let run = guarded(|| {
            let mut sys = System::new(cfg.clone(), image);
            let started = Instant::now();
            let result = sys.try_run();
            let secs = started.elapsed().as_secs_f64();
            result
                .map(|r| (secs, Outcome::from(r)))
                .map_err(|e| e.to_string())
        });
        match run {
            Err(e) => self.fail(format!("{label}: {e}")),
            Ok((secs, outcome)) => {
                self.times.push(secs);
                match &self.outcome {
                    None => self.outcome = Some(outcome),
                    Some(first) if first.digest() != outcome.digest() => {
                        self.fail(format!("{label}: repetition differs from the first run"));
                    }
                    Some(_) => {}
                }
            }
        }
    }

    /// One traced repetition, checked against the untraced outcome. Its
    /// spans are checked later, on the fastest repetition only: a slower
    /// one may have been preempted between spans.
    fn run_traced(&mut self, image: &WorkloadImage) {
        let cfg = &self.cfg;
        let label = self.job.label();
        match guarded(|| Ok(trace::run_traced(cfg, image))) {
            Err(e) => self.fail(format!("{label} (traced): {e}")),
            Ok((outcome, t)) => {
                if let Some(plain) = &self.outcome {
                    if let Some(why) = traced_mismatch(plain, &outcome) {
                        self.fail(format!("{label}: traced run differs from untraced: {why}"));
                    }
                }
                self.traced.push(t);
            }
        }
    }
}

/// Where a traced outcome departs from the untraced one, if anywhere.
fn traced_mismatch(plain: &Outcome, traced: &Outcome) -> Option<String> {
    let (p, t) = (&plain.core, &traced.core);
    if p.retire_fingerprint != t.retire_fingerprint {
        return Some("retire fingerprint".into());
    }
    if p.cycles != t.cycles {
        return Some(format!("cycles {} vs {}", p.cycles, t.cycles));
    }
    if plain.digest() != traced.digest() {
        return Some("BrStats or memory counts".into());
    }
    None
}

/// One job's set-up times, in seconds.
pub struct SetupTimes {
    /// `SimJob::build_image`.
    pub build: f64,
    /// `System::new`.
    pub system_new: f64,
}

/// Builds every job's image and constructs every job's system, timing
/// both per job. Each system is dropped untimed; the images are kept.
fn set_up(runs: &mut [JobRun]) {
    for run in runs.iter_mut().filter(|r| r.failure.is_none()) {
        let started = Instant::now();
        let built = guarded(|| run.job.build_image().map_err(|e| e.to_string()));
        let build = started.elapsed().as_secs_f64();
        match built {
            Ok(image) => {
                let started = Instant::now();
                let system = System::new(run.cfg.clone(), &image);
                let system_new = started.elapsed().as_secs_f64();
                drop(system);
                run.setups.push(SetupTimes { build, system_new });
                run.image = Some(image);
            }
            Err(e) => run.fail(format!("{}: image build: {e}", run.job.label())),
        }
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Checks each job against the functional emulator and the committed
/// digests (default seed), or prints its digest (any other seed).
fn check_outcomes(args: &Args, runs: &mut [JobRun]) -> Result<(), String> {
    let name = args.workload.name;
    let golden = match (args.seed == DEFAULT_SEED, args.record_digests) {
        (true, false) => Some(digest::parse(args.workload.digests)?),
        _ => None,
    };
    let mut recorded = String::new();
    for run in runs.iter_mut() {
        let (Some(outcome), Some(image)) = (&run.outcome, &run.image) else {
            continue;
        };
        let label = run.job.label();
        let kernel = run.job.workload.clone();
        let d = outcome.digest();
        let reference = digest::reference_fingerprint(image, outcome.core.retired_uops);
        match reference {
            Ok(fp) if fp == outcome.core.retire_fingerprint => {}
            Ok(_) => run.fail(format!(
                "{label}: retired stream differs from the functional emulator"
            )),
            Err(e) => run.fail(format!("{label}: {e}")),
        }
        match &golden {
            Some(g) => {
                if let Some(why) = digest::check(g, &kernel, d) {
                    run.fail(format!("{label}: {why}"));
                }
            }
            None if args.record_digests => {
                recorded.push_str(&digest::format_line(&kernel, d));
                recorded.push('\n');
            }
            None => println!("digest {name} {}", digest::format_line(&kernel, d)),
        }
    }
    if args.record_digests {
        let path = format!("{}/digests/{name}.txt", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, recorded).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("recorded {path}");
    }
    Ok(())
}

/// Prints each job's repetitions (fastest, quartiles, in-run spread) and
/// its simulated cycles, IPC and MPKI.
fn print_job_table(runs: &[JobRun], trace: bool) {
    eprintln!(
        "{:<36} {:>4} {:>8} {:>8} {:>8} {:>8} {:>7} {:>8} {:>6} {:>6}",
        "job", "reps", "min_s", "q1_s", "median_s", "q3_s", "iqr/med", "cycles", "ipc", "mpki"
    );
    for run in runs {
        let times: Vec<f64> = if trace {
            run.traced.iter().map(|t| t.loop_ns as f64 * 1e-9).collect()
        } else {
            run.times.clone()
        };
        let (Some(o), false) = (&run.outcome, times.is_empty()) else {
            continue;
        };
        let (q1, med, q3) = quartiles(&times);
        eprintln!(
            "{:<36} {:>4} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>6.1}% {:>8} {:>6.3} {:>6.2}",
            run.job.label(),
            times.len(),
            times.iter().copied().fold(f64::INFINITY, f64::min),
            q1,
            med,
            q3,
            (q3 - q1) / med * 100.0,
            o.core.cycles,
            o.core.ipc(),
            o.core.mpki(),
        );
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut runs: Vec<JobRun> = args
        .workload
        .jobs(args.seed)
        .into_iter()
        .map(|job| JobRun {
            cfg: suite::run_config(&job),
            job,
            image: None,
            setups: Vec::new(),
            times: Vec::new(),
            traced: Vec::new(),
            outcome: None,
            failure: None,
        })
        .collect();

    // Whole sweeps over the jobs until the next one would overrun the
    // budget; each job keeps its fastest repetition. Every sweep begins
    // with a set-up, so each job's set-up, too, is sampled over the whole
    // run and its fastest kept.
    let started = Instant::now();
    let mut last_sweep = 0.0;
    for rep in 0.. {
        let elapsed = started.elapsed().as_secs_f64();
        if rep >= MIN_REPS && elapsed + last_sweep > args.seconds {
            break;
        }
        set_up(&mut runs);
        for run in runs.iter_mut().filter(|r| r.failure.is_none()) {
            let Some(image) = run.image.clone() else {
                continue;
            };
            run.run_plain(&image);
            if args.trace && run.failure.is_none() {
                run.run_traced(&image);
            }
        }
        last_sweep = started.elapsed().as_secs_f64() - elapsed;
    }

    for run in runs.iter_mut() {
        let checked = run.best_trace().map(LayerTrace::check_nesting);
        if let Some(Err(why)) = checked {
            run.fail(format!("{}: {why}", run.job.label()));
        }
    }
    check_outcomes(args, &mut runs)?;
    print_job_table(&runs, args.trace);
    for why in runs.iter().filter_map(|r| r.failure.as_deref()) {
        eprintln!("FAILED {why}");
    }

    let ok: Vec<&JobRun> = runs.iter().filter(|r| r.failure.is_none()).collect();
    let report = if args.trace {
        metrics::per_layer(&ok)
    } else {
        metrics::end_to_end(&ok, peak_rss_mb()?)
    };
    let failed = runs.len() - ok.len();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        runs.len(),
        report.to_json()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
