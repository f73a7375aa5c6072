//! The reported metrics, and the order statistics behind them.

use br_core::PredictionCategory;

use crate::JobRun;

/// Named metrics with units, in report order.
#[derive(Default)]
pub struct Report(Vec<(&'static str, f64, &'static str)>);

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// First quartile, median and third quartile of `v`, by the same method
/// as Python's `statistics.quantiles(v, n=4)` (exclusive); zeros for an
/// empty slice.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut d = v.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => return (0.0, 0.0, 0.0),
        1 => return (d[0], d[0], d[0]),
        _ => {}
    }
    let ld = d.len();
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

fn geomean(v: impl Iterator<Item = f64>) -> f64 {
    let (mut log_sum, mut n) = (0.0, 0.0);
    for x in v {
        log_sum += x.ln();
        n += 1.0;
    }
    if n == 0.0 {
        0.0
    } else {
        (log_sum / n).exp()
    }
}

/// End-to-end metrics of an untraced run.
pub fn end_to_end(jobs: &[&JobRun], peak_rss_mb: f64) -> Report {
    let outcomes = || jobs.iter().filter_map(|j| j.outcome.as_ref());
    let mut r = Report::default();
    r.put(
        "sim_kuops_per_s",
        geomean(jobs.iter().filter_map(|j| {
            let o = j.outcome.as_ref()?;
            Some(o.core.retired_uops as f64 / 1e3 / j.best())
        })),
        "kuops/s",
    );
    r.put("sweep_s", jobs.iter().map(|j| j.best()).sum(), "s");
    r.put(
        "setup_s",
        jobs.iter()
            .map(|j| j.best_setup(|s| s.build + s.system_new))
            .sum(),
        "s",
    );
    r.put("peak_rss_mb", peak_rss_mb, "MiB");
    r.put(
        "sim_ipc",
        geomean(outcomes().map(|o| o.core.ipc())),
        "uops/cycle",
    );
    let mpki: Vec<f64> = outcomes().map(|o| o.core.mpki()).collect();
    r.put(
        "sim_mpki",
        ratio(mpki.iter().sum(), mpki.len() as f64),
        "1/kuop",
    );
    r
}

/// Per-layer metrics of a traced run: each job's fastest traced
/// repetition, summed over the jobs before dividing.
pub fn per_layer(jobs: &[&JobRun]) -> Report {
    let traced: Vec<_> = jobs
        .iter()
        .filter_map(|j| Some((j.best_trace()?, j.outcome.as_ref()?, j.best())))
        .collect();
    let sum = |f: &dyn Fn(&crate::trace::LayerTrace, &crate::digest::Outcome) -> u64| -> f64 {
        traced.iter().map(|(t, o, _)| f(t, o) as f64).sum()
    };
    let cycles = sum(&|t, _| t.cycles);
    let kuops = sum(&|_, o| o.core.retired_uops) / 1e3;
    let br = |f: fn(&br_core::BrStats) -> u64| sum(&|_, o| o.br.as_ref().map_or(0, f));
    let category = |c: PredictionCategory| {
        sum(&|_, o| {
            o.br.as_ref()
                .and_then(|b| b.prediction_breakdown.get(&c).copied())
                .unwrap_or(0)
        })
    };
    let per_cycle = |ns: f64| ratio(ns, cycles);
    let per_kuop = |n: f64| ratio(n, kuops);

    let mut r = Report::default();
    let dce_ns = sum(&|t, _| t.dce.ns);
    r.put("core.tick_ns_per_cycle", per_cycle(dce_ns), "ns/cycle");
    let live = sum(&|t, _| t.live_instance_cycles);
    r.put(
        "core.tick_ns_per_live_instance",
        ratio(dce_ns, live),
        "ns/instance",
    );
    r.put("core.live_instances_mean", ratio(live, cycles), "count");
    r.put(
        "core.idle_cycle_frac",
        ratio(sum(&|t, _| t.idle_cycles), cycles),
        "fraction",
    );
    r.put(
        "core.hook.on_retire_ns_per_cycle",
        per_cycle(sum(&|t, _| t.hook_retire.ns)),
        "ns/cycle",
    );
    r.put(
        "core.hook.on_mispredict_ns_per_cycle",
        per_cycle(sum(&|t, _| t.hook_mispredict.ns)),
        "ns/cycle",
    );
    r.put(
        "core.hook.fetch_ns_per_cycle",
        per_cycle(sum(&|t, _| t.hook_fetch.ns)),
        "ns/cycle",
    );
    r.put(
        "core.hook.on_branch_retire_ns_per_cycle",
        per_cycle(sum(&|t, _| t.hook_branch_retire.ns)),
        "ns/cycle",
    );
    r.put(
        "core.dce_uops_per_kuop",
        per_kuop(br(|b| b.dce_uops)),
        "1/kuop",
    );
    r.put(
        "core.flushed_per_initiated",
        ratio(br(|b| b.instances_flushed), br(|b| b.instances_initiated)),
        "fraction",
    );
    r.put(
        "core.extraction_rejects_per_attempt",
        ratio(br(|b| b.extraction_rejects), br(|b| b.extraction_attempts)),
        "fraction",
    );
    let covered = br(|b| b.covered_branch_retires);
    r.put(
        "core.coverage",
        ratio(covered, sum(&|_, o| o.core.retired_branches)),
        "fraction",
    );
    r.put(
        "core.late_frac",
        ratio(category(PredictionCategory::Late), covered),
        "fraction",
    );
    r.put(
        "core.chain_cache_hit_rate",
        ratio(sum(&|t, _| t.cache_hits), sum(&|t, _| t.cache_lookups)),
        "fraction",
    );
    r.put(
        "ooo.tick_self_ns_per_cycle",
        per_cycle(sum(&|t, _| t.ooo_self().ns)),
        "ns/cycle",
    );
    r.put(
        "ooo.retired_per_fetched",
        ratio(kuops * 1e3, sum(&|_, o| o.core.fetched_uops)),
        "fraction",
    );
    r.put("ooo.cycles_per_kuop", per_kuop(cycles), "cycles/kuop");
    r.put(
        "predictor.ns_per_cycle",
        per_cycle(sum(&|t, _| t.predictor().ns)),
        "ns/cycle",
    );
    r.put(
        "predictor.predict_ns_per_call",
        ratio(sum(&|t, _| t.predict.ns), sum(&|t, _| t.predict.calls)),
        "ns/call",
    );
    r.put(
        "predictor.train_ns_per_call",
        ratio(sum(&|t, _| t.train.ns), sum(&|t, _| t.train.calls)),
        "ns/call",
    );
    r.put(
        "predictor.calls_per_kuop",
        per_kuop(sum(&|t, _| t.predictor().calls)),
        "1/kuop",
    );
    r.put(
        "mem.tick_ns_per_cycle",
        per_cycle(sum(&|t, _| t.mem.ns)),
        "ns/cycle",
    );
    r.put(
        "mem.l1d_miss_rate",
        ratio(
            sum(&|_, o| o.mem.l1.misses),
            sum(&|_, o| o.mem.l1.hits + o.mem.l1.misses),
        ),
        "fraction",
    );
    r.put(
        "mem.dram_reads_per_kuop",
        per_kuop(sum(&|_, o| o.mem.dram.reads)),
        "1/kuop",
    );
    let setup_ms = |f| jobs.iter().map(|j| j.best_setup(f)).sum::<f64>() * 1e3;
    r.put("workloads.build_ms", setup_ms(|s| s.build), "ms");
    r.put("sim.system_new_ms", setup_ms(|s| s.system_new), "ms");
    r.put(
        "ooo.allocs_per_kuop",
        per_kuop(sum(&|t, _| t.ooo_self().allocs)),
        "1/kuop",
    );
    r.put(
        "predictor.allocs_per_kuop",
        per_kuop(sum(&|t, _| t.predictor().allocs)),
        "1/kuop",
    );
    r.put(
        "core.allocs_per_kuop",
        per_kuop(sum(&|t, _| t.dce.allocs + t.hooks().allocs)),
        "1/kuop",
    );
    r.put(
        "mem.allocs_per_kuop",
        per_kuop(sum(&|t, _| t.mem.allocs)),
        "1/kuop",
    );
    r.put(
        "sim.loop_other_ns_per_cycle",
        per_cycle(sum(&|t, _| t.other_ns())),
        "ns/cycle",
    );
    let traced_s = sum(&|t, _| t.loop_ns) * 1e-9;
    let plain_s: f64 = traced.iter().map(|(_, _, best)| best).sum();
    r.put(
        "trace_overhead_pct",
        (ratio(traced_s, plain_s) - 1.0) * 100.0,
        "%",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        assert_eq!(
            quartiles(&[10.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]),
            (2.75, 5.5, 8.25)
        );
        // statistics.quantiles([1, 2, 3], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert_eq!(quartiles(&[]), (0.0, 0.0, 0.0));
    }

    #[test]
    fn report_renders_json_with_units() {
        let mut r = Report::default();
        r.put("a", 1.5, "s");
        r.put("b", f64::NAN, "ms");
        assert_eq!(
            r.to_json(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"ms\"}}"
        );
    }
}
