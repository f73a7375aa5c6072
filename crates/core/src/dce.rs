//! The Dependence Chain Engine (§4.2, Figures 7 and 8).
//!
//! Executes dependence-chain instances out of order within a chain, with
//! chain-level parallelism across instances. The "window" — the number of
//! local register file / reservation station pairs — bounds how many
//! dynamic instances run concurrently. Global rename is modelled by
//! producer links: an instance reads live-in values from its producer
//! instance's (architectural) context, exactly the red/blue/orange
//! register-file linking of Figure 8.
//!
//! The engine shares the D-cache with the core and only uses ports the
//! core left idle this cycle; the Core-Only variant additionally executes
//! compute ops only in the core's idle issue slots.
//!
//! Like the hardware's reservation stations, the engine is wakeup-driven:
//! nothing polls the window. A producer whose known end-of-chain registers
//! grow wakes its consumers; readiness is bitmask arithmetic over per-op
//! dependence masks built once per chain; and each tick phase walks a
//! change list (producers to wake, instances with a ready op, instances
//! whose last op finished, instances with deferred spawns, instances
//! waiting to be freed) instead of the window. A tick's cost follows what
//! changed, and a tick in which nothing can change returns at once.

use std::sync::Arc;

use br_isa::{ArchReg, CpuState, Flags, Machine, Pc};
use br_mem::{MemResp, MemorySystem, ReqId, ReqSource};

use crate::chain::{ChainOp, ChainSrc, DependenceChain};
use crate::chain_cache::DependenceChainCache;
use crate::config::{BranchRunaheadConfig, InitiationMode};
use crate::pqueue::PredictionQueues;
use crate::stats::BrStats;

/// Where an op's source value comes from after dataflow analysis.
#[derive(Clone, Copy, Debug)]
enum SrcRef {
    Imm(i64),
    /// The chain's live-in value of an architectural register.
    LiveIn(ArchReg),
    /// The result of an earlier op in the same instance.
    Op(usize),
}

/// An op's resolved source references (at most two, stored inline so a
/// view never chases a per-op heap allocation) and the dependence masks
/// its readiness is computed from.
#[derive(Clone, Copy, Debug)]
struct OpSrcs {
    refs: [SrcRef; 2],
    n: u8,
    /// Earlier ops whose results this op reads (bit per op).
    deps_ops: u32,
    /// Live-in registers this op reads (bit per register).
    deps_regs: u16,
}

impl OpSrcs {
    fn as_slice(&self) -> &[SrcRef] {
        &self.refs[..usize::from(self.n)]
    }

    fn push(&mut self, r: SrcRef) {
        match r {
            SrcRef::Op(i) => self.deps_ops |= 1 << i,
            SrcRef::LiveIn(a) => self.deps_regs |= 1 << a.index(),
            SrcRef::Imm(_) => {}
        }
        self.refs[usize::from(self.n)] = r;
        self.n += 1;
    }
}

/// Dataflow view of a chain: per-op source references and live-out
/// resolution, precomputed once per *chain* and shared by every instance
/// of it (the view cache keys on the chain's `Arc` identity).
#[derive(Clone, Debug)]
struct DataflowView {
    srcs: Vec<OpSrcs>,
    /// For each live-out register (first binding only): where its final
    /// value comes from.
    outs: Vec<(ArchReg, SrcRef)>,
    /// Ops some live-out reads: their completion can wake consumers.
    out_ops: u32,
    /// Live-in and live-out registers (bit per register).
    live_ins: u16,
    live_outs: u16,
}

fn build_dataflow(chain: &DependenceChain) -> DataflowView {
    // Local regs are `u8`-indexed, so direct-indexed tables replace hash
    // maps: each local's latest writer (op index), else its live-in.
    let mut writer = [usize::MAX; 256];
    let mut live_in_of = [None; 256];
    let mut live_ins = 0u16;
    for (a, l) in &chain.live_ins {
        live_in_of[usize::from(*l)] = Some(*a);
        live_ins |= 1 << a.index();
    }
    let resolve = |s: &ChainSrc, writer: &[usize; 256]| match *s {
        ChainSrc::Imm(v) => SrcRef::Imm(v),
        ChainSrc::Reg(l) if writer[usize::from(l)] != usize::MAX => {
            SrcRef::Op(writer[usize::from(l)])
        }
        ChainSrc::Reg(l) => {
            SrcRef::LiveIn(live_in_of[usize::from(l)].expect("unwritten local must be a live-in"))
        }
    };
    let mut srcs = Vec::with_capacity(chain.ops.len());
    for (i, op) in chain.ops.iter().enumerate() {
        let mut refs = OpSrcs {
            refs: [SrcRef::Imm(0); 2],
            n: 0,
            deps_ops: 0,
            deps_regs: 0,
        };
        match op {
            ChainOp::Alu { src1, src2, .. } | ChainOp::Cmp { src1, src2 } => {
                refs.push(resolve(src1, &writer));
                refs.push(resolve(src2, &writer));
            }
            ChainOp::Mov { src, .. } => refs.push(resolve(src, &writer)),
            ChainOp::Load { base, index, .. } => {
                for s in base.iter().chain(index) {
                    refs.push(resolve(s, &writer));
                }
            }
        }
        srcs.push(refs);
        if let Some(d) = op.dst_reg() {
            writer[usize::from(d)] = i;
        }
    }
    let (mut outs, mut out_ops, mut live_outs) = (Vec::new(), 0u32, 0u16);
    for (a, b) in &chain.live_outs {
        if live_outs & (1 << a.index()) == 0 {
            let src = resolve(b, &writer);
            if let SrcRef::Op(i) = src {
                out_ops |= 1 << i;
            }
            live_outs |= 1 << a.index();
            outs.push((*a, src));
        }
    }
    DataflowView {
        srcs,
        outs,
        out_ops,
        live_ins,
        live_outs,
    }
}

/// Upper bound on ops per chain, sized for the largest `max-chain-len`
/// the Figure 13 sweep explores (the paper's budget is 16). Keeping op
/// state inline in the instance makes initiation allocation-free.
const MAX_CHAIN_OPS: usize = 32;

/// Cycles a deferred spawn is retried before it is dropped.
const SPAWN_TIMEOUT: u64 = 256;

/// A full architectural context (bit per register).
const ALL_REGS: u16 = u16::MAX;

struct Instance {
    id: u64,
    chain: Arc<DependenceChain>,
    view: Arc<DataflowView>,
    op_result: [u64; MAX_CHAIN_OPS],
    /// Op states as bitmasks (bit per op): not yet done, not yet issued,
    /// ALU ops in flight. A load in flight is undone but neither waiting
    /// nor issued. ALU completion times live in the engine's event list
    /// ([`DependenceChainEngine::alu_events`]).
    undone: u32,
    waiting: u32,
    issued: u32,
    flags: Option<Flags>,
    /// Architectural context inherited from the producer (or the core at
    /// a sync); `ctx_ready` (bit per register) gates reads.
    ctx: [u64; 16],
    ctx_ready: u16,
    producer: Option<u64>,
    /// Live consumers whose context is still incomplete: they read from
    /// this instance, so it is not freed while any remain.
    blockers: u32,
    outcome: Option<bool>,
    /// Prediction-queue slot this instance fills.
    slot: Option<(Pc, u64)>,
    /// Required producer outcome (predictive initiation); `None` when the
    /// initiation was unconditional (sync, wildcard, outcome-based).
    assumption: Option<bool>,
    /// Chains spawned from this instance: (chain ptr key, assumption,
    /// spawned instance id). Every live consumer is recorded here.
    spawned: Vec<(usize, Option<bool>, u64)>,
    /// Outcome-based spawn performed.
    spawn_done: bool,
    /// Successor initiations deferred on window/queue pressure, with the
    /// cycle each entry was deferred at (entries time out individually).
    pending_spawn: Vec<(Arc<DependenceChain>, u64)>,
    /// Pre-allocated queue slots for non-wildcard successor chains,
    /// resolved when this instance's outcome is known: `(chain, slot,
    /// required outcome)`. Allocating at initiation keeps every queue in
    /// program order even though instances complete out of order (§4.2:
    /// "slots must be allocated at initiation").
    placeholders: Vec<(Arc<DependenceChain>, u64, bool)>,
    dead: bool,
}

/// What happens to the queue slots of a killed instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Disposition {
    /// The corresponding branch executions will still happen: slots stay
    /// consumable (Late) so iteration correspondence is preserved.
    Dead,
    /// The corresponding executions will never happen (wrong-assumption
    /// speculation): fetch must skip the slots entirely.
    Cancelled,
}

impl Instance {
    fn completed(&self) -> bool {
        self.outcome.is_some()
    }

    /// Takes the instance's growable lists for reuse, cleared (dropping
    /// their `Arc`s now rather than when the pool entry is next used).
    fn recycle_vecs(&mut self) -> InstanceVecs {
        let mut spawned = std::mem::take(&mut self.spawned);
        let mut pending_spawn = std::mem::take(&mut self.pending_spawn);
        let mut placeholders = std::mem::take(&mut self.placeholders);
        spawned.clear();
        pending_spawn.clear();
        placeholders.clear();
        (spawned, pending_spawn, placeholders)
    }

    fn chain_key(c: &Arc<DependenceChain>) -> usize {
        Arc::as_ptr(c) as usize
    }

    /// Resolves a source reference to a value, if available.
    fn value_of(&self, s: SrcRef) -> Option<u64> {
        match s {
            SrcRef::Imm(v) => Some(v as u64),
            SrcRef::LiveIn(r) => {
                (self.ctx_ready & (1 << r.index()) != 0).then(|| self.ctx[r.index()])
            }
            SrcRef::Op(i) => (self.undone & (1 << i) == 0).then(|| self.op_result[i]),
        }
    }

    /// Source values of op `op_idx`, which must be ready.
    fn operands(&self, op_idx: usize) -> [u64; 2] {
        let mut vals = [0; 2];
        for (v, s) in vals.iter_mut().zip(self.view.srcs[op_idx].as_slice()) {
            *v = self.value_of(*s).expect("operands of a ready op");
        }
        vals
    }

    /// Whether op `op_idx`'s sources are all available.
    fn op_ready(&self, op_idx: usize) -> bool {
        let s = &self.view.srcs[op_idx];
        s.deps_ops & self.undone == 0 && s.deps_regs & !self.ctx_ready == 0
    }

    /// Whether an op can issue: any waiting op with its sources available
    /// (in order: the oldest waiting op, the only one that may issue).
    fn can_issue(&self, in_order: bool) -> bool {
        let mut wm = self.waiting;
        while wm != 0 {
            let op_idx = wm.trailing_zeros() as usize;
            if self.op_ready(op_idx) {
                return true;
            }
            if in_order {
                return false;
            }
            wm &= wm - 1;
        }
        false
    }

    /// Registers whose end-of-chain value is known: each live-out once its
    /// binding resolves, the inherited context for the rest.
    fn known_regs(&self) -> u16 {
        let mut m = self.ctx_ready & !self.view.live_outs;
        for (a, src) in &self.view.outs {
            if self.value_of(*src).is_some() {
                m |= 1 << a.index();
            }
        }
        m
    }

    /// Registers still to be delivered from the producer: the live-ins
    /// while running, the whole context once completed (so successors
    /// can pass it through and the producer can be freed).
    fn missing_regs(&self) -> u16 {
        let need = if self.completed() {
            ALL_REGS
        } else {
            self.view.live_ins
        };
        need & !self.ctx_ready
    }

    /// This instance's end-of-chain value for arch reg index `r`, if
    /// known: chain live-out if written, else the inherited context.
    fn arch_value(&self, r: usize) -> Option<u64> {
        if let Some((_, src)) = self.view.outs.iter().find(|(a, _)| a.index() == r) {
            return self.value_of(*src);
        }
        (self.ctx_ready & (1 << r) != 0).then(|| self.ctx[r])
    }

    /// Whether only unfreed consumers keep this instance alive: completed,
    /// successors spawned, and no assumption left to validate (an
    /// unvalidated one means the producer hasn't completed, and the
    /// instance must stay killable until it does).
    fn drainable(&self) -> bool {
        self.completed()
            && self.spawn_done
            && self.assumption.is_none()
            && self.pending_spawn.is_empty()
    }

    /// The outcome the reference evaluator
    /// ([`DependenceChain::evaluate`]) derives from the context and load
    /// results this instance consumed; a completed instance must agree.
    fn reference_outcome(&self) -> bool {
        let mut loads = [0u64; MAX_CHAIN_OPS];
        let mut n = 0;
        for (i, op) in self.chain.ops.iter().enumerate() {
            if op.is_load() {
                loads[n] = self.op_result[i];
                n += 1;
            }
        }
        self.chain.evaluate(&self.ctx, &loads[..n])
    }
}

/// How an initiation request fared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Initiate {
    Ok(u64),
    WindowFull,
    QueueFull,
}

/// Reusable tick-path buffers owned by the engine and cleared per use, so
/// steady-state cycles never touch the heap. Buffers consumed while
/// `&mut self` methods run are `mem::take`n and restored (keeping their
/// capacity) rather than reallocated.
#[derive(Default)]
struct Scratch {
    /// The change list a tick phase is walking (see [`take_sorted`]).
    walk: Vec<u64>,
    /// Work queue for `kill_recursive`.
    kill_work: Vec<u64>,
    /// Work queue for `spawn_early`.
    spawn_work: Vec<u64>,
    /// Non-wildcard successor chains in `spawn_early`.
    chains_nonwild: Vec<Arc<DependenceChain>>,
    /// Chain-cache lookup buffer for `spawn_early` (live across the
    /// buffers above, so it needs its own storage).
    spawn_lookup: Vec<Arc<DependenceChain>>,
    /// Chain-cache lookup buffer for `spawn_at_completion` / `sync_initiate`.
    lookup: Vec<Arc<DependenceChain>>,
    /// Wrong-assumption successor ids in `spawn_at_completion`.
    judged: Vec<u64>,
    /// Newly spawned instance ids in `spawn_at_completion`.
    newly: Vec<u64>,
    /// Deferred-spawn entries being retried in tick phase 6.
    pending: Vec<(Arc<DependenceChain>, u64)>,
}

/// Swaps a change list out for walking, sorted and deduplicated; `spare`
/// (empty, with capacity) becomes the list that collects the next round.
/// Return the walked buffer, cleared, to `spare` afterwards.
fn take_sorted(list: &mut Vec<u64>, spare: &mut Vec<u64>) -> Vec<u64> {
    let mut walk = std::mem::replace(list, std::mem::take(spare));
    walk.sort_unstable();
    walk.dedup();
    walk
}

/// The three per-instance growable lists, recycled between activations so
/// steady-state initiation performs no heap allocation.
type InstanceVecs = (
    Vec<(usize, Option<bool>, u64)>,
    Vec<(Arc<DependenceChain>, u64)>,
    Vec<(Arc<DependenceChain>, u64, bool)>,
);

/// The Dependence Chain Engine.
pub struct DependenceChainEngine {
    cfg: BranchRunaheadConfig,
    instances: Vec<Instance>,
    next_id: u64,
    /// Outstanding DCE loads: `(req id, instance id, op idx, addr)`.
    /// Bounded by the DCE MSHR budget, so a linear scan beats hashing.
    pending_mem: Vec<(ReqId, u64, usize, u64)>,
    /// 3-bit initiation counters (Predictive mode, §4.1), keyed by branch
    /// PC. Hard branches are few (HBT-bounded): linear scan, no hashing.
    init_counters: Vec<(Pc, u8)>,
    /// Dataflow views built once per chain and shared by its instances,
    /// keyed by `Arc` identity (holding the `Arc` keeps the key stable).
    view_cache: Vec<(usize, Arc<DependenceChain>, Arc<DataflowView>)>,
    /// In-flight ALU ops: `(done_at, instance id, op idx)`. Bounded by the
    /// ALU issue rate times the max op latency; scanning it beats storing
    /// a completion cycle per op per instance.
    alu_events: Vec<(u64, u64, u8)>,
    /// Recycled `spawned`/`pending_spawn`/`placeholders` buffers from
    /// freed instances, reused by the next initiations.
    vec_pool: Vec<InstanceVecs>,
    // Change lists of instance ids. Entries may repeat or name instances
    // since killed; a walk sorts, deduplicates and skips those.
    /// Producers whose consumers may have context to fill (phase 2).
    wake: Vec<u64>,
    /// Instances with an op that can issue (phase 3).
    ready: Vec<u64>,
    /// Instances whose last op finished this tick (phase 5).
    finished: Vec<u64>,
    /// Instances holding deferred spawns (phase 6).
    deferred: Vec<u64>,
    /// No deferred spawn was deferred before this cycle (a lower bound:
    /// kills drop entries without raising it).
    deferred_since: u64,
    /// Drainable instances no consumer blocks any more (phase 7).
    drain: Vec<u64>,
    scratch: Scratch,
    cycle: u64,
}

/// Cap on cached dataflow views; on overflow the cache resets (views are
/// cheap to rebuild and the big config's chain cache holds 1024 chains).
const VIEW_CACHE_CAP: usize = 2048;

impl std::fmt::Debug for DependenceChainEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DependenceChainEngine")
            .field("instances", &self.instances.len())
            .field("outstanding_loads", &self.pending_mem.len())
            .finish()
    }
}

impl DependenceChainEngine {
    /// Creates an engine for `cfg`.
    #[must_use]
    pub fn new(cfg: BranchRunaheadConfig) -> Self {
        DependenceChainEngine {
            cfg,
            instances: Vec::new(),
            next_id: 0,
            pending_mem: Vec::new(),
            init_counters: Vec::new(),
            view_cache: Vec::new(),
            alu_events: Vec::new(),
            vec_pool: Vec::new(),
            wake: Vec::new(),
            ready: Vec::new(),
            finished: Vec::new(),
            deferred: Vec::new(),
            deferred_since: u64::MAX,
            drain: Vec::new(),
            scratch: Scratch::default(),
            cycle: 0,
        }
    }

    /// The (cached) dataflow view for `chain`. The cache is sorted by key
    /// for binary-search hits; a view is a pure function of its chain, so
    /// cache resets never change observable behaviour.
    fn dataflow_view(&mut self, chain: &Arc<DependenceChain>) -> Arc<DataflowView> {
        let key = Instance::chain_key(chain);
        match self.view_cache.binary_search_by_key(&key, |(k, _, _)| *k) {
            Ok(i) => Arc::clone(&self.view_cache[i].2),
            Err(i) => {
                let view = Arc::new(build_dataflow(chain));
                if self.view_cache.len() >= VIEW_CACHE_CAP {
                    self.view_cache.clear();
                    self.view_cache
                        .push((key, Arc::clone(chain), Arc::clone(&view)));
                } else {
                    self.view_cache
                        .insert(i, (key, Arc::clone(chain), Arc::clone(&view)));
                }
                view
            }
        }
    }

    /// Live instance count (killed and freed instances leave the vector
    /// before any other call can observe it).
    #[must_use]
    pub fn active_instances(&self) -> usize {
        self.instances.len()
    }

    /// Whether memory request `id` is an outstanding DCE load (the fault
    /// harness uses this to delay only DCE traffic).
    #[must_use]
    pub fn owns_request(&self, id: ReqId) -> bool {
        self.pending_mem.iter().any(|(r, ..)| *r == id)
    }

    /// Validates structural invariants: the live-instance window bound,
    /// the DCE MSHR bound on outstanding loads, initiation counters within
    /// their 3-bit range, and the incremental wakeup state (see
    /// [`Self::check_wakeup_state`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        if !self.instances.is_sorted_by_key(|i| i.id) {
            return Err("dce: instances not sorted by id".to_string());
        }
        if self.active_instances() > self.cfg.window_instances {
            return Err(format!(
                "dce: {} live instances exceed window {}",
                self.active_instances(),
                self.cfg.window_instances
            ));
        }
        if self.pending_mem.len() > self.cfg.dce_mshrs {
            return Err(format!(
                "dce: {} outstanding loads exceed {} MSHRs",
                self.pending_mem.len(),
                self.cfg.dce_mshrs
            ));
        }
        for (pc, c) in &self.init_counters {
            if *c > 7 {
                return Err(format!(
                    "dce[{pc:#x}]: initiation counter {c} exceeds 3-bit range"
                ));
            }
        }
        self.check_wakeup_state()
    }

    /// Recomputes the wakeup state from scratch and compares it with the
    /// incremental copies: every context value matches the producer's and
    /// any still deliverable has its producer queued to wake; producers
    /// are older than their consumers (delivery order relies on it) and
    /// record them; the ready, deferred and drain lists hold every
    /// instance they must; blocking-consumer counts are exact.
    fn check_wakeup_state(&self) -> Result<(), String> {
        let mut blockers = vec![0u32; self.instances.len()];
        for c in &self.instances {
            let producer = c.producer.and_then(|p| self.find(p));
            let (mut agrees, mut woken, mut recorded) = (true, true, true);
            if let Some(pi) = producer {
                let p = &self.instances[pi];
                blockers[pi] += u32::from(c.ctx_ready != ALL_REGS);
                agrees = (0..16)
                    .all(|r| c.ctx_ready & (1 << r) == 0 || p.arch_value(r) == Some(c.ctx[r]));
                woken = p.known_regs() & c.missing_regs() == 0 || self.wake.contains(&p.id);
                recorded = p.spawned.iter().any(|s| s.2 == c.id);
            }
            let checks = [
                (
                    c.waiting & c.issued == 0 && (c.waiting | c.issued) & !c.undone == 0,
                    "op-state masks inconsistent",
                ),
                (c.producer.is_none_or(|p| p < c.id), "producer is not older"),
                (recorded, "producer does not record it"),
                (
                    producer.is_some() || c.ctx_ready == ALL_REGS,
                    "context incomplete without a producer",
                ),
                (agrees, "context disagrees with the producer"),
                (woken, "deliverable context but producer not queued to wake"),
                (
                    c.can_issue(self.cfg.dce_in_order) == self.ready.contains(&c.id),
                    "ready list disagrees with op readiness",
                ),
                (
                    c.pending_spawn.is_empty() || self.deferred.contains(&c.id),
                    "deferred spawns not listed",
                ),
                (
                    c.pending_spawn.iter().all(|e| e.1 >= self.deferred_since),
                    "deferral cycle bound too high",
                ),
                (
                    !c.drainable() || c.blockers > 0 || self.drain.contains(&c.id),
                    "drainable but not listed",
                ),
            ];
            if let Some((_, what)) = checks.iter().find(|(ok, _)| !ok) {
                return Err(format!("dce[{}]: {what}", c.id));
            }
        }
        match self
            .instances
            .iter()
            .zip(&blockers)
            .find(|(i, n)| i.blockers != **n)
        {
            Some((i, n)) => Err(format!(
                "dce[{}]: {} blocking consumers counted, {n} recounted",
                i.id, i.blockers
            )),
            None => Ok(()),
        }
    }

    /// Updates the per-branch 3-bit initiation counter with a resolved
    /// outcome.
    pub fn train_init_counter(&mut self, pc: Pc, taken: bool) {
        let i = self
            .init_counters
            .iter()
            .position(|(p, _)| *p == pc)
            .unwrap_or_else(|| {
                self.init_counters.push((pc, 4));
                self.init_counters.len() - 1
            });
        let c = &mut self.init_counters[i].1;
        if taken {
            *c = (*c + 1).min(7);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    fn predict_init(&self, pc: Pc) -> bool {
        self.init_counters
            .iter()
            .find(|(p, _)| *p == pc)
            .map_or(4, |(_, c)| *c)
            >= 4
    }

    /// Flushes every instance (synchronization).
    pub fn flush_all(&mut self, queues: &mut PredictionQueues, stats: &mut BrStats) {
        for inst in &self.instances {
            stats.instances_flushed += 1;
            if let Some((pc, slot)) = inst.slot {
                queues.kill(pc, slot);
            }
            for (chain, slot, _) in &inst.placeholders {
                queues.kill(chain.branch_pc, *slot);
            }
        }
        self.instances.clear();
        self.pending_mem.clear();
        self.alu_events.clear();
        for list in [
            &mut self.wake,
            &mut self.ready,
            &mut self.finished,
            &mut self.deferred,
            &mut self.drain,
        ] {
            list.clear();
        }
        self.deferred_since = u64::MAX;
    }

    /// Instance `idx` leaves the window: if its context was incomplete, it
    /// no longer blocks its producer from being freed.
    fn unblock_producer(&mut self, idx: usize) {
        let c = &self.instances[idx];
        if c.ctx_ready != ALL_REGS {
            if let Some(pi) = c.producer.and_then(|p| self.find(p)) {
                self.unblock(pi);
            }
        }
    }

    /// One fewer consumer blocks instance `idx`; the last one lets a
    /// drainable instance be freed.
    fn unblock(&mut self, idx: usize) {
        self.instances[idx].blockers -= 1;
        self.note_drainable(idx);
    }

    fn kill_recursive(
        &mut self,
        id: u64,
        disposition: Disposition,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) {
        let mut work = std::mem::take(&mut self.scratch.kill_work);
        work.clear();
        work.push(id);
        while let Some(cur) = work.pop() {
            let mut producer = None;
            if let Some(ci) = self.find(cur) {
                let inst = &mut self.instances[ci];
                if !inst.dead {
                    inst.dead = true;
                    stats.instances_flushed += 1;
                    if let Some((pc, slot)) = inst.slot {
                        match disposition {
                            Disposition::Dead => queues.kill(pc, slot),
                            Disposition::Cancelled => queues.cancel(pc, slot),
                        }
                    }
                    // Placeholder slots of a cancelled lineage correspond
                    // to executions that will never happen; a flushed
                    // (Dead) lineage's placeholders stay consumable.
                    for (chain, slot, _) in &inst.placeholders {
                        match disposition {
                            Disposition::Dead => queues.kill(chain.branch_pc, *slot),
                            Disposition::Cancelled => queues.cancel(chain.branch_pc, *slot),
                        }
                    }
                    // Every live consumer is in `spawned`, in id order.
                    work.extend(inst.spawned.iter().map(|s| s.2));
                    producer = inst.producer;
                    self.unblock_producer(ci);
                }
            }
            // Forget the killed instance in its producer's spawn record so
            // a later outcome can legitimately respawn the chain (only the
            // producer ever records `cur` in `spawned`).
            if let Some(pi) = producer.and_then(|p| self.find(p)) {
                self.instances[pi].spawned.retain(|(_, _, sid)| *sid != cur);
            }
        }
        self.remove_dead();
        self.scratch.kill_work = work;
    }

    /// Index of instance `id`. Instances are created with ascending ids
    /// and only removed by order-preserving `retain`, so the vector is
    /// always id-sorted and a binary search suffices.
    fn find(&self, id: u64) -> Option<usize> {
        self.instances.binary_search_by_key(&id, |i| i.id).ok()
    }

    /// Lists instance `idx` for issue if it has an op that can issue.
    fn note_ready(&mut self, idx: usize) {
        let inst = &self.instances[idx];
        if inst.can_issue(self.cfg.dce_in_order) {
            self.ready.push(inst.id);
        }
    }

    /// Lists instance `idx` for freeing if it is drainable and unblocked.
    fn note_drainable(&mut self, idx: usize) {
        if self.instances[idx].drainable() && self.instances[idx].blockers == 0 {
            self.drain.push(self.instances[idx].id);
        }
    }

    /// Defers a successor initiation of instance `idx` (retried in phase 6).
    fn defer(&mut self, idx: usize, spawn: (Arc<DependenceChain>, u64)) {
        debug_assert!(
            spawn.0.tag.is_wildcard() || self.cfg.initiation == InitiationMode::NonSpeculative,
            "speculative modes defer only wildcard chains"
        );
        self.deferred_since = self.deferred_since.min(spawn.1);
        let inst = &mut self.instances[idx];
        if inst.pending_spawn.is_empty() {
            self.deferred.push(inst.id);
        }
        inst.pending_spawn.push(spawn);
    }

    /// Marks op `op_idx` of instance `idx` done. A live-out source wakes
    /// the consumers; the last op queues the instance for completion.
    fn op_done(&mut self, idx: usize, op_idx: usize) {
        let inst = &mut self.instances[idx];
        inst.undone &= !(1 << op_idx);
        if inst.view.out_ops & (1 << op_idx) != 0 && !inst.spawned.is_empty() {
            self.wake.push(inst.id);
        }
        if inst.undone == 0 {
            self.finished.push(inst.id);
        } else {
            self.note_ready(idx);
        }
    }

    /// Initiates a chain instance into `slot`, a pre-allocated queue slot,
    /// or else a newly allocated one. `producer` is `None` for a core sync.
    #[allow(clippy::too_many_arguments)]
    fn initiate(
        &mut self,
        chain: &Arc<DependenceChain>,
        producer: Option<u64>,
        cpu: Option<&CpuState>,
        assumption: Option<bool>,
        slot: Option<u64>,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) -> Initiate {
        if self.instances.len() >= self.cfg.window_instances {
            return Initiate::WindowFull;
        }
        let Some(slot) = slot.or_else(|| queues.allocate_slot(chain.branch_pc)) else {
            return Initiate::QueueFull;
        };
        let id = self.next_id;
        self.next_id += 1;
        let view = self.dataflow_view(chain);
        let n = chain.ops.len();
        assert!(n <= MAX_CHAIN_OPS, "chain exceeds MAX_CHAIN_OPS");
        let all_ops: u32 = if n == 32 { u32::MAX } else { (1 << n) - 1 };
        let (ctx, ctx_ready) = match cpu {
            Some(cpu) => (cpu.regs, ALL_REGS),
            None => ([0; 16], 0),
        };
        // A new consumer blocks its producer and has context to receive.
        if let Some(pi) = producer
            .and_then(|p| self.find(p))
            .filter(|_| cpu.is_none())
        {
            self.instances[pi].blockers += 1;
            self.wake.push(self.instances[pi].id);
        }
        let (spawned, pending_spawn, placeholders) = self.vec_pool.pop().unwrap_or_default();
        self.instances.push(Instance {
            id,
            chain: Arc::clone(chain),
            view,
            op_result: [0; MAX_CHAIN_OPS],
            undone: all_ops,
            waiting: all_ops,
            issued: 0,
            flags: None,
            ctx,
            ctx_ready,
            producer,
            blockers: 0,
            outcome: None,
            slot: Some((chain.branch_pc, slot)),
            assumption,
            spawned,
            spawn_done: false,
            pending_spawn,
            placeholders,
            dead: false,
        });
        self.note_ready(self.instances.len() - 1);
        stats.instances_initiated += 1;
        Initiate::Ok(id)
    }

    /// Synchronization entry point: a core misprediction on `pc` resolved
    /// to `outcome`; live-ins are copied from the restored register file
    /// (§4.1 "Entering Runahead Mode").
    pub fn sync_initiate(
        &mut self,
        pc: Pc,
        outcome: bool,
        cpu: &CpuState,
        cache: &mut DependenceChainCache,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) {
        stats.syncs += 1;
        let mut chains = std::mem::take(&mut self.scratch.lookup);
        cache.lookup_into(pc, outcome, &mut chains);
        for chain in &chains {
            if let Initiate::Ok(id) =
                self.initiate(chain, None, Some(cpu), None, None, queues, stats)
            {
                self.spawn_early(id, cache, queues, stats);
            }
        }
        self.scratch.lookup = chains;
    }

    /// Window slots kept free of the eager wildcard cascade so that
    /// outcome-triggered spawns (guarded chains) can always enter.
    fn spawn_reserve(&self) -> usize {
        (self.cfg.window_instances / 8).max(2)
    }

    /// Initiates successor `chain` of live instance `pid` and records it
    /// in `pid`'s spawn list. Speculative wildcard spawns leave the spawn
    /// reserve free. On window or queue pressure the spawn is deferred
    /// instead (first deferred at `since`; dropped once timed out, and
    /// runahead stops extending that lineage until the next sync).
    fn try_spawn(
        &mut self,
        pid: u64,
        chain: Arc<DependenceChain>,
        since: u64,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) -> Option<u64> {
        let reserve =
            if chain.tag.is_wildcard() && self.cfg.initiation != InitiationMode::NonSpeculative {
                self.spawn_reserve()
            } else {
                0
            };
        let attempt = if self.instances.len() + reserve <= self.cfg.window_instances {
            self.initiate(&chain, Some(pid), None, None, None, queues, stats)
        } else {
            Initiate::WindowFull
        };
        let pidx = self.find(pid).expect("spawning instance is live");
        if let Initiate::Ok(nid) = attempt {
            let key = Instance::chain_key(&chain);
            self.instances[pidx].spawned.push((key, None, nid));
            return Some(nid);
        }
        if self.cycle.saturating_sub(since) < SPAWN_TIMEOUT {
            self.defer(pidx, (chain, since));
        }
        None
    }

    /// Early (initiation-time) successor spawning for wildcard chains and,
    /// in Predictive mode, predicted-outcome chains.
    fn spawn_early(
        &mut self,
        id: u64,
        cache: &mut DependenceChainCache,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) {
        if self.cfg.initiation == InitiationMode::NonSpeculative {
            return;
        }
        // Work queue: spawning can cascade (self-triggering chains). The
        // cascade's *instance creation* stops short of the full window
        // (spawn_reserve) but placeholder slot allocation always proceeds
        // (slots cost no window space and must be allocated in program
        // order).
        let reserve = self.spawn_reserve();
        let mut work = std::mem::take(&mut self.scratch.spawn_work);
        work.clear();
        work.push(id);
        let mut non_wild = std::mem::take(&mut self.scratch.chains_nonwild);
        let mut looked = std::mem::take(&mut self.scratch.spawn_lookup);
        while let Some(pid) = work.pop() {
            // `id` may have been preempted since its initiation.
            let Some(pidx) = self.find(pid) else { continue };
            let inst = &self.instances[pidx];
            let trigger_pc = inst.chain.branch_pc;
            if !inst.spawned.is_empty() || !inst.placeholders.is_empty() {
                continue; // early spawning already performed for pid
            }
            // Wildcard successors initiate immediately (they run no matter
            // how the trigger resolves).
            // (Spawning touches no cache state, so it may precede the
            // second lookup.)
            cache.lookup_into(trigger_pc, true, &mut looked);
            for chain in looked.drain(..) {
                if chain.tag.is_wildcard() {
                    work.extend(self.try_spawn(pid, chain, self.cycle, queues, stats));
                } else {
                    non_wild.push(chain);
                }
            }
            cache.lookup_into(trigger_pc, false, &mut looked);
            non_wild.extend(looked.drain(..).filter(|c| !c.tag.is_wildcard()));
            // Non-wildcard successors get their queue slots NOW (program
            // order). Predictive mode also starts the predicted ones; the
            // rest wait as placeholders for the trigger outcome.
            let predicted = self.predict_init(trigger_pc);
            for chain in non_wild.drain(..) {
                let required = chain.tag.outcome.expect("non-wildcard tag");
                let Some(slot) = queues.allocate_slot(chain.branch_pc) else {
                    continue; // queue full: lose this iteration's coverage
                };
                let speculate = self.cfg.initiation == InitiationMode::Predictive
                    && required == predicted
                    && self.instances.len() + reserve <= self.cfg.window_instances;
                if speculate {
                    let spec = Some(required);
                    if let Initiate::Ok(nid) =
                        self.initiate(&chain, Some(pid), None, spec, Some(slot), queues, stats)
                    {
                        let key = Instance::chain_key(&chain);
                        self.instances[pidx].spawned.push((key, spec, nid));
                        work.push(nid);
                        continue;
                    }
                }
                self.instances[pidx]
                    .placeholders
                    .push((chain, slot, required));
            }
        }
        self.scratch.spawn_work = work;
        self.scratch.chains_nonwild = non_wild;
        self.scratch.spawn_lookup = looked;
    }

    /// Outcome-time successor handling: kill wrong-assumption speculative
    /// successors, then spawn the chains matching the real outcome.
    fn spawn_at_completion(
        &mut self,
        id: u64,
        cache: &mut DependenceChainCache,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) {
        // An earlier completion this cycle may have killed `id`.
        let Some(idx) = self.find(id) else { return };
        let outcome = self.instances[idx].outcome.expect("completed");
        let trigger_pc = self.instances[idx].chain.branch_pc;

        // Flush mispredicted speculative successors. Their (and their
        // descendants') queue slots are *cancelled*: those branch
        // executions never happen on the correct path. The kills reach
        // only successor lineages, and preemption spares `id`, so `id`
        // stays live below.
        let mut judged = std::mem::take(&mut self.scratch.judged);
        judged.clear();
        let wrong = |s: &&(usize, Option<bool>, u64)| s.1.is_some_and(|a| a != outcome);
        judged.extend(
            self.instances[idx]
                .spawned
                .iter()
                .filter(wrong)
                .map(|s| s.2),
        );
        for &sid in &judged {
            self.kill_recursive(sid, Disposition::Cancelled, queues, stats);
        }
        // Validate the surviving speculative successors: their assumption
        // held, so they may now complete and be freed normally.
        self.scratch.judged = judged;
        let idx = self.find(id).expect("completing instance is live");
        for k in 0..self.instances[idx].spawned.len() {
            let (_, assumption, sid) = self.instances[idx].spawned[k];
            if let Some(sidx) = assumption.and_then(|_| self.find(sid)) {
                self.instances[sidx].assumption = None;
                self.note_drainable(sidx);
            }
        }

        // Resolve placeholder slots: matching chains start now (into their
        // pre-allocated, correctly ordered slots); non-matching slots are
        // cancelled so fetch skips them.
        let mut newly = std::mem::take(&mut self.scratch.newly);
        newly.clear();
        for (chain, slot, required) in std::mem::take(&mut self.instances[idx].placeholders) {
            if required != outcome {
                queues.cancel(chain.branch_pc, slot);
                continue;
            }
            let mut attempt =
                self.initiate(&chain, Some(id), None, None, Some(slot), queues, stats);
            // Outcome-triggered successors are architecturally required
            // for continuous execution; preempt the youngest (furthest
            // ahead, least valuable) speculative instance.
            if attempt == Initiate::WindowFull && self.preempt_youngest(id, queues, stats) {
                attempt = self.initiate(&chain, Some(id), None, None, Some(slot), queues, stats);
            }
            if let Initiate::Ok(nid) = attempt {
                let idx = self.find(id).expect("completing instance is live");
                let key = Instance::chain_key(&chain);
                self.instances[idx].spawned.push((key, None, nid));
                newly.push(nid);
            } else {
                queues.kill(chain.branch_pc, slot);
            }
        }

        // Non-speculative mode does all successor work here (instances are
        // serial, so completion order *is* program order). The speculative
        // modes still extend *wildcard* lineages here: the early cascade
        // stops short of the window (spawn_reserve), so the lineage tail
        // grows at completion — and only the tail can lack a spawned
        // successor, so queue order is preserved.
        let mut looked = std::mem::take(&mut self.scratch.lookup);
        cache.lookup_into(trigger_pc, outcome, &mut looked);
        for chain in looked.drain(..) {
            if !(self.cfg.initiation == InitiationMode::NonSpeculative || chain.tag.is_wildcard()) {
                continue;
            }
            let key = Instance::chain_key(&chain);
            let inst = &self.instances[self.find(id).expect("completing instance is live")];
            if inst.spawned.iter().any(|s| s.0 == key)
                || inst
                    .pending_spawn
                    .iter()
                    .any(|(c, _)| Instance::chain_key(c) == key)
            {
                continue;
            }
            newly.extend(self.try_spawn(id, chain, self.cycle, queues, stats));
        }
        self.scratch.lookup = looked;

        let idx = self.find(id).expect("completing instance is live");
        self.instances[idx].spawn_done = true;
        self.note_drainable(idx);
        for &nid in &newly {
            self.spawn_early(nid, cache, queues, stats);
        }
        self.scratch.newly = newly;
    }

    /// Kills the youngest live, uncompleted *leaf* instance other than
    /// `exclude`. Restricting to leaves (no live successors) guarantees
    /// the kill cannot cascade into `exclude` or other useful work — a
    /// running ancestor may have already spawned completed descendants.
    /// Returns whether a slot was freed.
    fn preempt_youngest(
        &mut self,
        exclude: u64,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) -> bool {
        // Rare path (window-full outcome spawns): a quadratic scan over a
        // window-bounded set beats building a hash set per call.
        let has_successor = |id: u64| {
            self.instances
                .iter()
                .any(|i| !i.dead && i.producer == Some(id))
        };
        let victim = self
            .instances
            .iter()
            .filter(|i| !i.dead && !i.completed() && i.id != exclude && !has_successor(i.id))
            .map(|i| i.id)
            .max();
        match victim {
            Some(v) => {
                self.kill_recursive(v, Disposition::Dead, queues, stats);
                true
            }
            None => false,
        }
    }

    /// Advances the engine one cycle, in seven phases:
    ///
    /// 1. memory responses complete loads (the value is read on arrival);
    /// 2. wakeup: queued producers deliver known registers to consumers;
    /// 3. instances with a ready op issue, oldest first;
    /// 4. ALU ops due this cycle complete;
    /// 5. instances whose last op finished complete: they fill their queue
    ///    slot and spawn successors;
    /// 6. deferred spawns are retried, when one can succeed or time out;
    /// 7. drained instances no consumer still reads from are freed.
    ///
    /// Each phase walks its change list only. A tick with no DCE response,
    /// no ALU op due and no listed work does nothing.
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        cycle: u64,
        machine: &Machine,
        mem: &mut MemorySystem,
        responses: &[MemResp],
        free_load_ports: usize,
        free_issue_slots: usize,
        cache: &mut DependenceChainCache,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
    ) {
        self.cycle = cycle;
        if self.idle(responses) {
            return;
        }

        // 1. Memory completions: read the value *now* (arrival time).
        for r in responses {
            let Some(pos) = self.pending_mem.iter().position(|(rid, ..)| *rid == r.id) else {
                continue;
            };
            let (_, iid, op_idx, addr) = self.pending_mem.swap_remove(pos);
            let Some(idx) = self.find(iid) else { continue };
            let inst = &mut self.instances[idx];
            if inst.undone & !(inst.waiting | inst.issued) & (1 << op_idx) == 0 {
                continue;
            }
            let ChainOp::Load { width, signed, .. } = inst.chain.ops[op_idx] else {
                unreachable!("only loads wait on memory")
            };
            let raw = machine.memory().read(addr, width);
            inst.op_result[op_idx] = if signed { width.sign_extend(raw) } else { raw };
            self.op_done(idx, op_idx);
        }

        self.deliver();
        self.issue(cycle, mem, free_load_ports, free_issue_slots, stats);

        // 4. Compute completions: drain due ALU events (stale events for
        // killed/flushed instances fall out via the `find` miss).
        let mut ev = std::mem::take(&mut self.alu_events);
        let mut kept = 0;
        for k in 0..ev.len() {
            let (done_at, iid, op8) = ev[k];
            if done_at > cycle {
                ev[kept] = ev[k];
                kept += 1;
                continue;
            }
            let op_idx = usize::from(op8);
            let Some(idx) = self.find(iid) else { continue };
            let inst = &mut self.instances[idx];
            if inst.issued & (1 << op_idx) == 0 {
                continue;
            }
            let [a, b] = inst.operands(op_idx);
            match inst.chain.ops[op_idx] {
                ChainOp::Alu { op, .. } => inst.op_result[op_idx] = op.eval(a, b),
                ChainOp::Mov { .. } => inst.op_result[op_idx] = a,
                ChainOp::Cmp { .. } => inst.flags = Some(Flags::from_cmp(a, b)),
                ChainOp::Load { .. } => unreachable!("loads complete via memory"),
            }
            inst.issued &= !(1 << op_idx);
            self.op_done(idx, op_idx);
        }
        ev.truncate(kept);
        self.alu_events = ev;

        // 5. Instance completion: outcome, queue fill, then (once every
        // completing instance is filled) successor spawns.
        let mut done = take_sorted(&mut self.finished, &mut self.scratch.walk);
        for &id in &done {
            let Some(idx) = self.find(id) else { continue };
            let inst = &mut self.instances[idx];
            let outcome = inst
                .chain
                .cond
                .eval(inst.flags.expect("chains end in a cmp"));
            debug_assert_eq!(
                outcome,
                inst.reference_outcome(),
                "dce datapath disagrees with the reference evaluator"
            );
            inst.outcome = Some(outcome);
            if let Some((pc, s)) = inst.slot {
                queues.fill(pc, s, outcome);
            }
            stats.instances_completed += 1;
            // Completion widens the needed context to every register.
            match inst.producer {
                Some(p) if inst.ctx_ready != ALL_REGS => self.wake.push(p),
                _ => {}
            }
        }
        for &id in &done {
            self.spawn_at_completion(id, cache, queues, stats);
        }
        done.clear();
        self.scratch.walk = done;

        // 6. Retry deferred spawns (window/queue pressure), oldest first;
        // drop spawns stuck past the timeout so the engine can drain.
        if !self.retry_due() {
            return self.free_drained();
        }
        self.deferred_since = u64::MAX;
        let mut stuck = take_sorted(&mut self.deferred, &mut self.scratch.walk);
        let mut pending = std::mem::take(&mut self.scratch.pending);
        for &id in &stuck {
            let Some(idx) = self.find(id) else { continue };
            // `append` empties the instance's queue but keeps its capacity,
            // so requeued entries below don't reallocate it.
            pending.clear();
            pending.append(&mut self.instances[idx].pending_spawn);
            for (chain, since) in pending.drain(..) {
                if let Some(nid) = self.try_spawn(id, chain, since, queues, stats) {
                    self.spawn_early(nid, cache, queues, stats);
                }
            }
            self.note_drainable(idx);
        }
        self.scratch.pending = pending;
        stuck.clear();
        self.scratch.walk = stuck;
        self.free_drained();
    }

    /// Phase 7: frees drained instances no live consumer still reads
    /// context from. A consumer freed here unblocks its (older, already
    /// walked) producer only from the next cycle on.
    fn free_drained(&mut self) {
        let mut drained = take_sorted(&mut self.drain, &mut self.scratch.walk);
        let mut any = false;
        for &id in &drained {
            let Some(idx) = self.find(id) else { continue };
            debug_assert!(self.instances[idx].drainable() && self.instances[idx].blockers == 0);
            self.instances[idx].dead = true;
            self.unblock_producer(idx);
            any = true;
        }
        drained.clear();
        self.scratch.walk = drained;
        if any {
            self.remove_dead();
        }
    }

    /// Whether phase 6 can change anything: a spawn is deferred and either
    /// the window has room for one or an entry times out. Speculative
    /// modes defer only wildcard chains, which also need the spawn
    /// reserve free; without room every retry fails and is requeued as
    /// it was.
    fn retry_due(&self) -> bool {
        let reserve = if self.cfg.initiation == InitiationMode::NonSpeculative {
            1
        } else {
            self.spawn_reserve()
        };
        !self.deferred.is_empty()
            && (self.instances.len() + reserve <= self.cfg.window_instances
                || self.cycle.saturating_sub(self.deferred_since) >= SPAWN_TIMEOUT)
    }

    /// Whether a tick has nothing to do: no response is the DCE's, no ALU
    /// op is due, and no change list holds work.
    fn idle(&self, responses: &[MemResp]) -> bool {
        self.wake.is_empty()
            && self.ready.is_empty()
            && self.drain.is_empty()
            && !self.retry_due()
            && self.alu_events.iter().all(|e| e.0 > self.cycle)
            && !responses.iter().any(|r| self.owns_request(r.id))
    }

    /// Phase 2: each queued producer delivers the registers it knows to
    /// consumers still missing them. Producers go in descending id order
    /// and are always older than their consumers, so each is read before
    /// anything is delivered to it this cycle: a value moves one hop per
    /// cycle. A consumer that gained registers passes them on next cycle.
    fn deliver(&mut self) {
        let mut walk = take_sorted(&mut self.wake, &mut self.scratch.walk);
        for &pid in walk.iter().rev() {
            let Some(pi) = self.find(pid) else { continue };
            let known = self.instances[pi].known_regs();
            for k in 0..self.instances[pi].spawned.len() {
                let Some(ci) = self.find(self.instances[pi].spawned[k].2) else {
                    continue;
                };
                let (head, tail) = self.instances.split_at_mut(ci);
                let (p, c) = (&mut head[pi], &mut tail[0]);
                let mut m = known & c.missing_regs();
                if m == 0 {
                    continue;
                }
                c.ctx_ready |= m;
                while m != 0 {
                    let r = m.trailing_zeros() as usize;
                    m &= m - 1;
                    c.ctx[r] = p.arch_value(r).expect("known register");
                }
                if !c.spawned.is_empty() {
                    self.wake.push(c.id);
                }
                if c.ctx_ready == ALL_REGS {
                    self.unblock(pi);
                }
                self.note_ready(ci);
            }
        }
        walk.clear();
        self.scratch.walk = walk;
    }

    /// Phase 3: listed instances issue ready ops, oldest instance first,
    /// within the ALU budget (the core's free issue slots when the DCE has
    /// no ALUs of its own), the free load ports and the DCE MSHRs. An
    /// instance stays listed while it still has an op that can issue.
    fn issue(
        &mut self,
        cycle: u64,
        mem: &mut MemorySystem,
        free_load_ports: usize,
        free_issue_slots: usize,
        stats: &mut BrStats,
    ) {
        let mut alu_budget = if self.cfg.dce_alus > 0 {
            self.cfg.dce_alus
        } else {
            free_issue_slots
        };
        let mut load_budget = free_load_ports;
        let mut walk = take_sorted(&mut self.ready, &mut self.scratch.walk);
        for (k, &id) in walk.iter().enumerate() {
            if alu_budget == 0 && load_budget == 0 {
                self.ready.extend_from_slice(&walk[k..]);
                break;
            }
            let Some(idx) = self.find(id) else { continue };
            let mut wm = self.instances[idx].waiting;
            while wm != 0 {
                let op_idx = wm.trailing_zeros() as usize;
                wm &= wm - 1;
                let inst = &self.instances[idx];
                // In-order ablation: an op may only issue when every older
                // op in the chain has at least issued.
                if self.cfg.dce_in_order && inst.waiting & ((1 << op_idx) - 1) != 0 {
                    break;
                }
                if !inst.op_ready(op_idx) {
                    continue;
                }
                let op = inst.chain.ops[op_idx];
                if let ChainOp::Load {
                    base, scale, disp, ..
                } = op
                {
                    if load_budget == 0 || self.pending_mem.len() >= self.cfg.dce_mshrs {
                        continue;
                    }
                    // Operands are the base (if any), then the index.
                    let [a, b] = inst.operands(op_idx);
                    let (base, index) = if base.is_some() { (a, b) } else { (0, a) };
                    let addr = base
                        .wrapping_add(index.wrapping_mul(u64::from(scale)))
                        .wrapping_add(disp as u64);
                    let Ok(req) = mem.request(addr, false, ReqSource::Dce, cycle) else {
                        continue;
                    };
                    self.pending_mem.push((req, id, op_idx, addr));
                    load_budget -= 1;
                    stats.dce_loads += 1;
                } else {
                    if alu_budget == 0 {
                        continue;
                    }
                    self.alu_events
                        .push((cycle + op.latency(), id, op_idx as u8));
                    self.instances[idx].issued |= 1 << op_idx;
                    alu_budget -= 1;
                }
                self.instances[idx].waiting &= !(1 << op_idx);
                stats.dce_uops += 1;
            }
            self.note_ready(idx);
        }
        walk.clear();
        self.scratch.walk = walk;
    }

    /// Drops instances marked dead, recycling their lists.
    fn remove_dead(&mut self) {
        let pool = &mut self.vec_pool;
        self.instances.retain_mut(|i| {
            if i.dead {
                pool.push(Instance::recycle_vecs(i));
            }
            !i.dead
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{ChainOp, ChainSrc, ChainTag};
    use br_isa::{reg, Cond, MemoryImage, Width};
    use br_mem::MemoryConfig;

    /// A self-triggering chain like leela's branch A:
    ///   l0 = live-in r3; op0: add l1 = l0 + 8; op1: load l2 = [l1];
    ///   op2: cmp l2, 0 -> branch Eq; live-out r3 = l1.
    fn self_chain() -> DependenceChain {
        DependenceChain {
            tag: ChainTag {
                pc: 0x50,
                outcome: None,
            },
            branch_pc: 0x50,
            cond: Cond::Eq,
            ops: vec![
                ChainOp::Alu {
                    op: br_isa::AluOp::Add,
                    dst: 1,
                    src1: ChainSrc::Reg(0),
                    src2: ChainSrc::Imm(8),
                },
                ChainOp::Load {
                    dst: 2,
                    base: Some(ChainSrc::Reg(1)),
                    index: None,
                    scale: 1,
                    disp: 0,
                    width: Width::B8,
                    signed: false,
                },
                ChainOp::Cmp {
                    src1: ChainSrc::Reg(2),
                    src2: ChainSrc::Imm(0),
                },
            ],
            live_ins: vec![(reg::R3, 0)],
            live_outs: vec![(reg::R3, ChainSrc::Reg(1))],
            num_local_regs: 3,
            guard_terminated: false,
            eliminated_uops: 0,
            source_pcs: std::collections::BTreeSet::new(),
        }
    }

    fn machine_with(data: &[(u64, u64)]) -> Machine {
        let mut img = MemoryImage::new();
        for (a, v) in data {
            img.write(*a, Width::B8, *v);
        }
        Machine::new(img.into_memory())
    }

    fn run_engine(
        dce: &mut DependenceChainEngine,
        machine: &Machine,
        mem: &mut MemorySystem,
        cache: &mut DependenceChainCache,
        queues: &mut PredictionQueues,
        stats: &mut BrStats,
        cycles: u64,
    ) {
        for c in 0..cycles {
            let resps = mem.tick(c);
            dce.tick(c, machine, mem, &resps, 2, 4, cache, queues, stats);
        }
    }

    #[test]
    fn single_chain_computes_outcome_and_chains_forward() {
        // Memory: [0x108]=0 (Eq -> taken), [0x110]=5 (-> not taken),
        // [0x118]=0 (taken).
        let machine = machine_with(&[(0x108, 0), (0x110, 5), (0x118, 0)]);
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut cache = DependenceChainCache::new(8);
        let mut queues = PredictionQueues::new(4, 16);
        let mut stats = BrStats::default();
        cache.install(self_chain());

        let mut cfg = BranchRunaheadConfig::mini();
        cfg.initiation = InitiationMode::Predictive;
        let mut dce = DependenceChainEngine::new(cfg);

        let mut cpu = CpuState::new();
        cpu.regs[reg::R3.index()] = 0x100;
        dce.sync_initiate(0x50, true, &cpu, &mut cache, &mut queues, &mut stats);
        run_engine(
            &mut dce,
            &machine,
            &mut mem,
            &mut cache,
            &mut queues,
            &mut stats,
            600,
        );

        assert!(stats.instances_completed >= 3, "chain must self-sustain");
        // Consume the first three predictions: T, NT, T.
        let expected = [true, false, true];
        for (i, want) in expected.iter().enumerate() {
            match queues.consume_at_fetch(0x50) {
                crate::pqueue::FetchVerdict::Use { value, .. } => {
                    assert_eq!(value, *want, "prediction {i}");
                }
                v => panic!("prediction {i}: expected Use, got {v:?}"),
            }
        }
    }

    #[test]
    fn window_bounds_concurrency() {
        let machine = machine_with(&[]);
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut cache = DependenceChainCache::new(8);
        let mut queues = PredictionQueues::new(4, 256);
        let mut stats = BrStats::default();
        cache.install(self_chain());

        let mut cfg = BranchRunaheadConfig::mini();
        cfg.window_instances = 4;
        let mut dce = DependenceChainEngine::new(cfg);
        let cpu = CpuState::new();
        dce.sync_initiate(0x50, true, &cpu, &mut cache, &mut queues, &mut stats);
        // Spawning cascades immediately but must stop at the window bound.
        assert!(dce.active_instances() <= 4);
        run_engine(
            &mut dce,
            &machine,
            &mut mem,
            &mut cache,
            &mut queues,
            &mut stats,
            200,
        );
        assert!(dce.active_instances() <= 4);
        assert!(stats.instances_completed > 4, "instances recycle");
    }

    #[test]
    fn flush_all_clears_engine() {
        let mut cache = DependenceChainCache::new(8);
        let mut queues = PredictionQueues::new(4, 16);
        let mut stats = BrStats::default();
        cache.install(self_chain());
        let mut dce = DependenceChainEngine::new(BranchRunaheadConfig::mini());
        let cpu = CpuState::new();
        dce.sync_initiate(0x50, true, &cpu, &mut cache, &mut queues, &mut stats);
        assert!(dce.active_instances() > 0);
        dce.flush_all(&mut queues, &mut stats);
        assert_eq!(dce.active_instances(), 0);
    }

    #[test]
    fn init_counter_predictions() {
        let mut dce = DependenceChainEngine::new(BranchRunaheadConfig::mini());
        for _ in 0..5 {
            dce.train_init_counter(0x50, false);
        }
        assert!(!dce.predict_init(0x50));
        for _ in 0..6 {
            dce.train_init_counter(0x50, true);
        }
        assert!(dce.predict_init(0x50));
    }

    #[test]
    fn non_speculative_is_serial() {
        let machine = machine_with(&[(0x108, 0)]);
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut cache = DependenceChainCache::new(8);
        let mut queues = PredictionQueues::new(4, 256);
        let mut stats = BrStats::default();
        cache.install(self_chain());
        let mut cfg = BranchRunaheadConfig::mini();
        cfg.initiation = InitiationMode::NonSpeculative;
        let mut dce = DependenceChainEngine::new(cfg);
        let mut cpu = CpuState::new();
        cpu.regs[reg::R3.index()] = 0x100;
        dce.sync_initiate(0x50, true, &cpu, &mut cache, &mut queues, &mut stats);
        // Only the sync instance exists until it completes.
        assert_eq!(dce.active_instances(), 1);
        run_engine(
            &mut dce,
            &machine,
            &mut mem,
            &mut cache,
            &mut queues,
            &mut stats,
            300,
        );
        assert!(stats.instances_completed >= 2, "successors follow serially");
    }

    #[test]
    fn dataflow_view_wires_dependencies() {
        let chain = self_chain();
        let view = build_dataflow(&chain);
        // op1 (load) reads op0's result; op2 (cmp) reads op1's.
        assert!(matches!(view.srcs[1].as_slice()[0], SrcRef::Op(0)));
        assert!(matches!(view.srcs[2].as_slice()[0], SrcRef::Op(1)));
        assert!(matches!(view.srcs[0].as_slice()[0], SrcRef::LiveIn(r) if r == reg::R3));
        assert!(matches!(view.outs[0], (r, SrcRef::Op(0)) if r == reg::R3));
    }

    /// A DCE load takes its value from memory when the response arrives,
    /// not when it issues: a store landing in between is observed.
    #[test]
    fn load_reads_memory_at_response_time() {
        let mut machine = machine_with(&[(0x108, 5)]);
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut cache = DependenceChainCache::new(8);
        let mut queues = PredictionQueues::new(4, 16);
        let mut stats = BrStats::default();
        cache.install(self_chain());
        let mut cfg = BranchRunaheadConfig::mini();
        cfg.initiation = InitiationMode::NonSpeculative;
        let mut dce = DependenceChainEngine::new(cfg);
        let mut cpu = CpuState::new();
        cpu.regs[reg::R3.index()] = 0x100;
        dce.sync_initiate(0x50, true, &cpu, &mut cache, &mut queues, &mut stats);
        let mut c = 0;
        while stats.dce_loads == 0 {
            let resps = mem.tick(c);
            dce.tick(
                c,
                &machine,
                &mut mem,
                &resps,
                2,
                4,
                &mut cache,
                &mut queues,
                &mut stats,
            );
            c += 1;
            assert!(c < 100, "the load must issue");
        }
        assert_eq!(stats.instances_completed, 0, "the load is still in flight");
        // [0x108] = 5 would predict not-taken (Eq against 0).
        machine.memory_mut().write(0x108, Width::B8, 0);
        while stats.instances_completed == 0 {
            let resps = mem.tick(c);
            dce.tick(
                c,
                &machine,
                &mut mem,
                &resps,
                2,
                4,
                &mut cache,
                &mut queues,
                &mut stats,
            );
            c += 1;
            assert!(c < 1000, "the instance must complete");
        }
        match queues.consume_at_fetch(0x50) {
            crate::pqueue::FetchVerdict::Use { value, .. } => {
                assert!(value, "outcome must use the value present at response time");
            }
            v => panic!("expected a prediction, got {v:?}"),
        }
    }

    /// A guarded chain like leela's branch B: triggered by `<0x50, NT>`,
    /// reads the probe index the A-chain produced.
    ///   op0: load l2 = [l0 + 0x1000]; op1: cmp l2, 0 -> branch Eq @ 0x60.
    /// Live-in r3 (the A-chain's live-out pointer).
    fn guarded_chain() -> DependenceChain {
        DependenceChain {
            tag: ChainTag {
                pc: 0x50,
                outcome: Some(false),
            },
            branch_pc: 0x60,
            cond: Cond::Eq,
            ops: vec![
                ChainOp::Load {
                    dst: 2,
                    base: Some(ChainSrc::Reg(0)),
                    index: None,
                    scale: 1,
                    disp: 0x1000,
                    width: Width::B8,
                    signed: false,
                },
                ChainOp::Cmp {
                    src1: ChainSrc::Reg(2),
                    src2: ChainSrc::Imm(0),
                },
            ],
            live_ins: vec![(reg::R3, 0)],
            live_outs: vec![],
            num_local_regs: 3,
            guard_terminated: true,
            eliminated_uops: 0,
            source_pcs: std::collections::BTreeSet::new(),
        }
    }

    /// End-to-end ordering check for the guarded-chain machinery: B's
    /// queue must deliver outcomes exactly for the A-NT iterations, in
    /// iteration order, no matter how instances complete.
    #[test]
    fn guarded_chain_slots_align_with_trigger_outcomes() {
        // A-chain walks r3 by 8 per instance: r3 = 0x100, 0x108, ...
        // A outcome (Eq): mem[r3+8] == 0; B outcome (Eq): mem[r3+8+0x1000]==0
        // (regions are disjoint: A in 0x108.., B in 0x1108..).
        let mut data = Vec::new();
        let mut expected_b = Vec::new();
        let mut x = 0xabcdefu64;
        for i in 1..40u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a_taken = x & 0x10 != 0; // Eq outcome
            let b_taken = x & 0x20 != 0;
            data.push((0x100 + i * 8, u64::from(!a_taken)));
            data.push((0x1100 + i * 8, u64::from(!b_taken)));
            if !a_taken {
                // A not-taken triggers <0x50, NT>: B executes.
                expected_b.push(b_taken);
            }
        }
        let machine = machine_with(&data);
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut cache = DependenceChainCache::new(8);
        let mut queues = PredictionQueues::new(4, 256);
        let mut stats = BrStats::default();
        cache.install(self_chain());
        cache.install(guarded_chain());

        let mut cfg = BranchRunaheadConfig::mini();
        cfg.window_instances = 6; // tight window: stresses placeholders
        let mut dce = DependenceChainEngine::new(cfg);
        let mut cpu = CpuState::new();
        cpu.regs[reg::R3.index()] = 0x100;
        dce.sync_initiate(0x50, true, &cpu, &mut cache, &mut queues, &mut stats);
        // Drive until B produced everything it can.
        for c in 0..6000 {
            let resps = mem.tick(c);
            dce.tick(
                c,
                &machine,
                &mut mem,
                &resps,
                2,
                4,
                &mut cache,
                &mut queues,
                &mut stats,
            );
        }
        // Consume B's queue: every *filled* slot must match the A-NT
        // subsequence at its position. Late slots (instances preempted by
        // the deliberately tiny window) are gaps: they consume a position
        // but predict nothing — exactly how the core treats them.
        let mut used = 0;
        let mut pos = 0usize;
        loop {
            match queues.consume_at_fetch(0x60) {
                crate::pqueue::FetchVerdict::Use { value, .. } => {
                    assert!(
                        pos < expected_b.len(),
                        "B produced more outcomes than A-NT iterations"
                    );
                    assert_eq!(
                        value, expected_b[pos],
                        "B outcome at A-NT position {pos} misaligned"
                    );
                    used += 1;
                    pos += 1;
                }
                crate::pqueue::FetchVerdict::Late { .. } => pos += 1,
                _ => break,
            }
            if pos > expected_b.len() + 4 {
                break;
            }
        }
        assert!(
            used >= 6,
            "B must produce a healthy number of usable predictions: {used} over {pos} positions"
        );
    }

    #[test]
    fn wrong_assumption_speculation_cancels_slots() {
        // Predictive mode with a trigger that is always TAKEN but whose
        // counter initially predicts NT half the time: killed speculative
        // B instances must leave *no* consumable slots behind.
        let machine = machine_with(&[]); // all zero: A outcome Eq=taken
        let mut mem = MemorySystem::new(MemoryConfig::default());
        let mut cache = DependenceChainCache::new(8);
        let mut queues = PredictionQueues::new(4, 64);
        let mut stats = BrStats::default();
        cache.install(self_chain());
        cache.install(guarded_chain());
        let mut dce = DependenceChainEngine::new(BranchRunaheadConfig::mini());
        // Bias the initiation counter toward NT so speculation fires.
        for _ in 0..8 {
            dce.train_init_counter(0x50, false);
        }
        let cpu = CpuState::new();
        dce.sync_initiate(0x50, true, &cpu, &mut cache, &mut queues, &mut stats);
        for c in 0..1500 {
            let resps = mem.tick(c);
            dce.tick(
                c,
                &machine,
                &mut mem,
                &resps,
                2,
                4,
                &mut cache,
                &mut queues,
                &mut stats,
            );
        }
        // A is always taken (mem is zero -> cmp 0 -> Eq -> taken), so B
        // never executes; every B slot must have been cancelled.
        match queues.consume_at_fetch(0x60) {
            crate::pqueue::FetchVerdict::Inactive | crate::pqueue::FetchVerdict::NoQueue => {}
            v => panic!("B queue must be empty after cancellations, got {v:?}"),
        }
        assert!(
            stats.instances_flushed > 0,
            "speculation must have fired and been killed"
        );
    }
}
