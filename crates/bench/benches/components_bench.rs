//! Component micro-benchmarks: the hot per-cycle primitives of the
//! simulator (predictor lookup, cache access, DRAM tick, chain
//! extraction). Whole-simulator speed is `perfbench`'s to measure.
//!
//! Plain self-timing harness (`cargo bench -p br-bench`): each entry runs
//! a fixed iteration count and reports mean wall-clock per iteration.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use br_core::{extract_chain, CebRecord, ChainExtractionBuffer};
use br_isa::Machine;
use br_mem::{Cache, CacheConfig, Dram, DramConfig};
use br_predictor::{ConditionalPredictor, TageScl, TageSclConfig};
use br_workloads::{workload_by_name, WorkloadParams};

fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) {
    black_box(f()); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = start.elapsed().as_secs_f64() * 1e6 / f64::from(iters);
    println!("{name:<36} {iters:>8} iters  {per_iter:>12.3} us/iter");
}

fn bench_predictor() {
    let mut p = TageScl::new(TageSclConfig::kb64());
    let mut pc = 0x1000u64;
    bench("tage_scl_predict_train", 100_000, || {
        pc = pc.wrapping_mul(6364136223846793005).wrapping_add(1);
        let addr = 0x1000 + (pc >> 56);
        let pred = p.predict(addr);
        let taken = pc & 8 == 8;
        p.update_history(addr, taken);
        p.train(addr, taken, &pred);
        pred.taken
    });
}

fn bench_caches() {
    let mut l1 = Cache::new(CacheConfig::l1());
    let mut x = 1u64;
    bench("l1_access", 100_000, || {
        x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        l1.access(x % (1 << 20), false).hit
    });

    let mut dram = Dram::new(DramConfig::default());
    let mut now = 0u64;
    let mut id = 0u64;
    bench("dram_tick_with_traffic", 100_000, || {
        if dram.can_accept() {
            id += 1;
            dram.enqueue(id, (id * 4096) % (1 << 28), false, now);
        }
        now += 1;
        dram.tick(now).len()
    });
}

fn bench_extraction() {
    // Fill a CEB with a realistic retired stream from the leela kernel.
    let w = workload_by_name("leela_17").unwrap();
    let image = w.build(&WorkloadParams {
        scale: 512,
        iterations: 200,
        seed: 1,
    });
    let mut m = Machine::new(image.memory.to_memory());
    let mut ceb = ChainExtractionBuffer::new(512);
    let mut branch_pc = None;
    while !m.halted() {
        let rec = m.step(&image.program, None).unwrap();
        let uop = *image.program.fetch(rec.pc).unwrap();
        let retired = br_ooo::RetiredUop {
            seq: m.steps(),
            uop,
            rec,
            cycle: m.steps(),
        };
        ceb.push(CebRecord::from_retired(&retired));
        if uop.is_cond_branch() && branch_pc.is_none() && m.steps() > 100 {
            branch_pc = Some(uop.pc);
        }
    }
    let target = branch_pc.expect("kernel has branches");
    let limits = br_core::ExtractLimits {
        max_chain_len: 16,
        local_regs: 8,
    };
    bench("chain_extraction_walk", 10_000, || {
        extract_chain(&ceb, target, &BTreeSet::new(), &limits).is_ok()
    });
}

fn main() {
    bench_predictor();
    bench_caches();
    bench_extraction();
}
