//! The traced loop: `System::try_run`'s cycle loop rebuilt from public
//! calls, with a span around each call into a layer.
//!
//! Per cycle the loop calls `MemorySystem::tick_into` (layer `mem`), then
//! `Core::tick` (layer `ooo`), then `BranchRunahead::tick` (layer `core`,
//! the DCE). Inside `Core::tick` two wrappers time the calls the core
//! makes out of itself: [`TimedPredictor`] around the baseline predictor
//! (layer `predictor`) and [`TimedHooks`] around the Branch Runahead hooks
//! (layer `core.hook.*`). Spans nest, so `ooo`'s self time is its span
//! minus the predictor and hook spans inside it. The loop's own time
//! outside every span is `sim.loop_other`.
//!
//! A baseline job runs with `NullHooks` and no engine, as `System` does,
//! so every `core.*` span is exactly zero there.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use br_bench::alloc_count::allocations;
use br_core::BranchRunahead;
use br_isa::{CpuState, Machine, Pc};
use br_mem::MemorySystem;
use br_ooo::{
    BranchOutcome, Core, CoreHooks, FetchedBranch, MispredictInfo, NullHooks, RetiredUop,
    WrongPathUop,
};
use br_predictor::{ConditionalPredictor, Prediction, PredictorCheckpoint};
use br_sim::SimConfig;
use br_workloads::WorkloadImage;

use crate::digest::Outcome;

/// Host time, call count and heap allocations of one span kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    /// Nanoseconds inside the span.
    pub ns: u64,
    /// Times the span was entered.
    pub calls: u64,
    /// Heap allocations made inside the span.
    pub allocs: u64,
}

impl Span {
    /// Runs `f` inside this span.
    #[inline(always)]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let a = allocations();
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos() as u64;
        self.allocs += allocations() - a;
        self.calls += 1;
        r
    }

    fn add(&mut self, other: Span) {
        self.ns += other.ns;
        self.calls += other.calls;
        self.allocs += other.allocs;
    }
}

/// The largest share of a traced loop's host time that may fall outside
/// every layer span (`sim.loop_other`) before the job fails.
pub const LOOP_OTHER_CEILING: f64 = 0.25;

/// Everything one traced job measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTrace {
    /// Simulated cycles.
    pub cycles: u64,
    /// Host time of the whole cycle loop.
    pub loop_ns: u64,
    /// `MemorySystem::tick_into`.
    pub mem: Span,
    /// `Core::tick`, including the predictor and hook spans inside it.
    pub ooo: Span,
    /// `ConditionalPredictor::predict`.
    pub predict: Span,
    /// `ConditionalPredictor::train`.
    pub train: Span,
    /// The predictor's history and checkpoint calls.
    pub history: Span,
    /// `BranchRunahead::tick` (the DCE).
    pub dce: Span,
    /// `override_prediction` plus `on_branch_fetch`.
    pub hook_fetch: Span,
    /// `on_mispredict`.
    pub hook_mispredict: Span,
    /// `on_retire`.
    pub hook_retire: Span,
    /// `on_branch_retire`.
    pub hook_branch_retire: Span,
    /// Sum over cycles of live DCE instances when the DCE tick began.
    pub live_instance_cycles: u64,
    /// Cycles on which the DCE tick received no memory response, executed
    /// no chain uop and left the live-instance count unchanged: ticks an
    /// idle-skip could drop.
    pub idle_cycles: u64,
    /// Chain-cache lookups and hits at the end of the run.
    pub cache_lookups: u64,
    /// See `cache_lookups`.
    pub cache_hits: u64,
}

impl LayerTrace {
    /// All predictor calls.
    pub fn predictor(&self) -> Span {
        let mut s = self.predict;
        s.add(self.train);
        s.add(self.history);
        s
    }

    /// All Branch Runahead hook calls.
    pub fn hooks(&self) -> Span {
        let mut s = self.hook_fetch;
        s.add(self.hook_mispredict);
        s.add(self.hook_retire);
        s.add(self.hook_branch_retire);
        s
    }

    /// `ooo` self time and allocations: its span minus the predictor and
    /// hook spans nested in it.
    pub fn ooo_self(&self) -> Span {
        let (p, h) = (self.predictor(), self.hooks());
        Span {
            ns: self.ooo.ns.saturating_sub(p.ns + h.ns),
            calls: self.ooo.calls,
            allocs: self.ooo.allocs.saturating_sub(p.allocs + h.allocs),
        }
    }

    /// Loop time outside every layer span.
    pub fn other_ns(&self) -> u64 {
        self.loop_ns
            .saturating_sub(self.mem.ns + self.ooo.ns + self.dce.ns)
    }

    /// Checks that spans nest (children fit inside `ooo`, the top-level
    /// spans fit inside the loop) and that the layers account for the loop:
    /// `sim.loop_other` is at most [`LOOP_OTHER_CEILING`] of it.
    pub fn check_nesting(&self) -> Result<(), String> {
        let (p, h) = (self.predictor(), self.hooks());
        if p.ns + h.ns > self.ooo.ns {
            return Err(format!(
                "predictor+hook spans ({} ns) exceed the ooo span ({} ns)",
                p.ns + h.ns,
                self.ooo.ns
            ));
        }
        let top = self.mem.ns + self.ooo.ns + self.dce.ns;
        if top > self.loop_ns {
            return Err(format!(
                "layer spans ({top} ns) exceed the loop ({} ns)",
                self.loop_ns
            ));
        }
        let other = self.other_ns() as f64 / self.loop_ns.max(1) as f64;
        if other > LOOP_OTHER_CEILING {
            return Err(format!(
                "time outside the layer spans is {:.1}% of the loop, over the {:.0}% ceiling",
                other * 100.0,
                LOOP_OTHER_CEILING * 100.0
            ));
        }
        Ok(())
    }
}

/// Predictor span totals, shared between the wrapper inside the core and
/// the traced loop that reads them. One thread writes; `Relaxed` suffices.
#[derive(Debug, Default)]
struct PredictorTally {
    fields: [[AtomicU64; 3]; 3],
}

const PREDICT: usize = 0;
const TRAIN: usize = 1;
const HISTORY: usize = 2;

impl PredictorTally {
    fn record(&self, which: usize, s: Span) {
        for (cell, v) in self.fields[which].iter().zip([s.ns, s.calls, s.allocs]) {
            cell.store(cell.load(Ordering::Relaxed) + v, Ordering::Relaxed);
        }
    }

    fn span(&self, which: usize) -> Span {
        let [ns, calls, allocs] = &self.fields[which];
        Span {
            ns: ns.load(Ordering::Relaxed),
            calls: calls.load(Ordering::Relaxed),
            allocs: allocs.load(Ordering::Relaxed),
        }
    }
}

/// Times every call into the baseline predictor.
struct TimedPredictor {
    inner: Box<dyn ConditionalPredictor>,
    tally: Arc<PredictorTally>,
}

#[inline(always)]
fn timed<R>(tally: &PredictorTally, which: usize, f: impl FnOnce() -> R) -> R {
    let mut s = Span::default();
    let r = s.time(f);
    tally.record(which, s);
    r
}

impl ConditionalPredictor for TimedPredictor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predict(&mut self, pc: Pc) -> Prediction {
        timed(&self.tally, PREDICT, || self.inner.predict(pc))
    }

    fn update_history(&mut self, pc: Pc, taken: bool) {
        timed(&self.tally, HISTORY, || {
            self.inner.update_history(pc, taken)
        });
    }

    fn checkpoint(&self) -> PredictorCheckpoint {
        timed(&self.tally, HISTORY, || self.inner.checkpoint())
    }

    fn checkpoint_into(&self, cp: &mut PredictorCheckpoint) {
        timed(&self.tally, HISTORY, || self.inner.checkpoint_into(cp));
    }

    fn restore(&mut self, cp: &PredictorCheckpoint) {
        timed(&self.tally, HISTORY, || self.inner.restore(cp));
    }

    fn train(&mut self, pc: Pc, taken: bool, pred: &Prediction) {
        timed(&self.tally, TRAIN, || self.inner.train(pc, taken, pred));
    }

    fn storage_kib(&self) -> f64 {
        self.inner.storage_kib()
    }
}

/// Times every call from the core into the Branch Runahead engine.
struct TimedHooks<'a> {
    br: &'a mut BranchRunahead,
    trace: &'a mut LayerTrace,
}

impl CoreHooks for TimedHooks<'_> {
    fn override_prediction(&mut self, pc: Pc, base: bool, cycle: u64) -> Option<bool> {
        let br = &mut *self.br;
        self.trace
            .hook_fetch
            .time(|| br.override_prediction(pc, base, cycle))
    }

    fn on_branch_fetch(&mut self, b: &FetchedBranch) {
        let br = &mut *self.br;
        self.trace.hook_fetch.time(|| br.on_branch_fetch(b));
    }

    fn on_mispredict(
        &mut self,
        info: &MispredictInfo,
        wrong_path: &[WrongPathUop],
        cpu: &CpuState,
    ) {
        let br = &mut *self.br;
        self.trace
            .hook_mispredict
            .time(|| br.on_mispredict(info, wrong_path, cpu));
    }

    fn on_retire(&mut self, u: &RetiredUop) {
        let br = &mut *self.br;
        self.trace.hook_retire.time(|| br.on_retire(u));
    }

    fn on_branch_retire(&mut self, b: &BranchOutcome) {
        let br = &mut *self.br;
        self.trace
            .hook_branch_retire
            .time(|| br.on_branch_retire(b));
    }
}

/// Runs one job through the traced loop. `cfg` must carry the job's
/// retired-uop budget (see `suite::run_config`).
pub fn run_traced(cfg: &SimConfig, image: &WorkloadImage) -> (Outcome, LayerTrace) {
    let tally = Arc::new(PredictorTally::default());
    let predictor = TimedPredictor {
        inner: cfg.predictor.build(),
        tally: Arc::clone(&tally),
    };
    let machine = Machine::new(image.memory.to_memory());
    let mut core = Core::new(
        cfg.core,
        image.program.clone(),
        machine,
        Box::new(predictor),
    );
    core.set_max_retired(cfg.max_retired);
    let mut mem = MemorySystem::new(cfg.memory);
    let mut br = cfg
        .runahead
        .map(|rc| Box::new(BranchRunahead::new(rc, cfg.core.retire_width)));
    let mut t = LayerTrace::default();
    let mut responses = Vec::new();
    // The DCE's executed-uop count after the previous DCE tick, if it was
    // read then. `BranchRunahead::stats` clones the statistics, so the
    // count is read only around ticks that may be idle. The hooks never
    // change it.
    let mut dce_uops = None;

    let started = Instant::now();
    for cycle in 0..cfg.max_cycles {
        t.mem.time(|| mem.tick_into(cycle, &mut responses));
        let report = match br.as_deref_mut() {
            None => t
                .ooo
                .time(|| core.tick(&responses, &mut mem, &mut NullHooks)),
            Some(br) => {
                // The hooks record into `t` while the core runs, so the
                // enclosing `ooo` span is timed on a copy.
                let mut ooo = t.ooo;
                let report = ooo.time(|| {
                    let mut hooks = TimedHooks {
                        br: &mut *br,
                        trace: &mut t,
                    };
                    core.tick(&responses, &mut mem, &mut hooks)
                });
                t.ooo = ooo;
                let live_before = br.live_state().dce_active;
                let dce_response = responses.iter().any(|r| br.owns_mem_request(r.id));
                if dce_response {
                    dce_uops = None;
                } else if dce_uops.is_none() {
                    dce_uops = Some(br.stats().dce_uops);
                }
                t.dce
                    .time(|| br.tick(cycle, core.machine(), &mut mem, &responses, &report));
                let live_after = br.live_state().dce_active;
                t.live_instance_cycles += live_before as u64;
                if !dce_response && live_before == live_after {
                    let after = br.stats().dce_uops;
                    t.idle_cycles += u64::from(dce_uops == Some(after));
                    dce_uops = Some(after);
                } else {
                    dce_uops = None;
                }
                report
            }
        };
        if report.done {
            break;
        }
    }
    t.loop_ns = started.elapsed().as_nanos() as u64;

    t.cycles = core.stats().cycles;
    t.predict = tally.span(PREDICT);
    t.train = tally.span(TRAIN);
    t.history = tally.span(HISTORY);
    if let Some(br) = &br {
        let live = br.live_state();
        t.cache_lookups = live.cache_lookups;
        t.cache_hits = live.cache_hits;
    }
    let outcome = Outcome {
        core: core.stats().clone(),
        mem: mem.stats(),
        br: br.as_deref().map(BranchRunahead::stats),
    };
    (outcome, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{self, DEFAULT_SEED};

    fn traced_and_plain(workload: &str, kernel: &str) -> (Outcome, Outcome, LayerTrace) {
        let job = suite::workload(workload)
            .expect("workload")
            .jobs(DEFAULT_SEED)
            .into_iter()
            .find(|j| j.workload == kernel)
            .expect("kernel");
        let image = job.build_image().expect("image builds");
        let plain = Outcome::from(job.try_execute(&image).expect("job runs"));
        let (traced, t) = run_traced(&suite::run_config(&job), &image);
        (plain, traced, t)
    }

    #[test]
    fn traced_run_reproduces_the_untraced_run() {
        let (plain, traced, t) = traced_and_plain("mini-br", "bfs");
        assert_eq!(traced.digest(), plain.digest());
        assert_eq!(t.cycles, plain.core.cycles);
        t.check_nesting()
            .expect("spans nest and account for the loop");
        assert!(t.dce.ns > 0 && t.hooks().calls > 0 && t.predict.calls > 0);
    }

    #[test]
    fn time_outside_the_layers_is_capped() {
        let mut t = LayerTrace {
            loop_ns: 1000,
            ..LayerTrace::default()
        };
        t.ooo.ns = 800;
        assert!(t.check_nesting().is_ok());
        t.ooo.ns = 700;
        assert!(t.check_nesting().unwrap_err().contains("ceiling"));
    }

    #[test]
    fn baseline_has_no_core_layer() {
        let (plain, traced, t) = traced_and_plain("baseline", "bfs");
        assert_eq!(traced.digest(), plain.digest());
        assert_eq!(
            (t.dce.calls, t.hooks().calls, t.live_instance_cycles),
            (0, 0, 0)
        );
        assert!(t.ooo.ns > 0 && t.mem.ns > 0);
    }
}
