#!/usr/bin/env python3
"""Builds EXPERIMENTS.md from the stdout of `figures all`.

Usage:
    cargo run --release -p br-bench --bin figures -- all > figures_all.txt
    python3 tools/gen_experiments.py figures_all.txt [EXPERIMENTS_MD]

Keeps the hand-written methodology header of the repository's
EXPERIMENTS.md (everything up to the `<!-- RESULTS -->` marker) and
appends one section per experiment: the paper's claim, the measured
table, and the verdict commentary below. Writes EXPERIMENTS_MD (default:
the repository's EXPERIMENTS.md). Exits nonzero, writing nothing, when
an experiment's section is missing from the figures output.
"""

import re
import sys
from pathlib import Path

REPO_DOC = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

COMMENTARY = {
    "table1": (
        "Table 1 — baseline configuration",
        "4-wide, 256-entry ROB, 92-entry RS, 64 KB TAGE-SC-L, "
        "32 KB L1s, 2 MB L2, stream prefetcher, DDR4.",
        "Rendered from the live `SimConfig`; every value above is the one "
        "the simulator actually uses.",
    ),
    "table2": (
        "Table 2 — Branch Runahead configurations",
        "Core-Only 9 KB / Mini 17 KB / Big unlimited.",
        "Same structures and the same 32-entry chain cache / 64-instance "
        "window / 16x queues. Our storage estimate (6.1 / 10.5 KiB) "
        "counts only the major arrays, so it under-reads the paper's "
        "9/17 KB labels; the ratio between the classes is what matters "
        "and it matches.",
    ),
    "fig1": (
        "Figure 1 — misprediction rate on the hardest branches",
        "TAGE-SC-L 11%, MTAGE-SC 9% (only 18% better despite "
        "unlimited storage), dependence chains 5%.",
        "Shape reproduced: the unlimited-history MTAGE is statistically "
        "indistinguishable from the 64 KB baseline on these branches, "
        "while dependence chains cut the rate by ~4x. Our synthetic hard "
        "branches are purer (near 50% baseline rate vs the paper's 11%) "
        "because each kernel concentrates its data-dependence; the "
        "*ordering and the gap structure* are the reproduced claim. "
        "Chains do not help xz_17 (control-dependent inner-loop trip "
        "count), tc (self-affecting two-pointer branch) or gobmk_06 "
        "(stores continuously mutate the chain's source data) — honest "
        "divergence cases the paper's §3 anticipates.",
    ),
    "fig2": (
        "Figure 2 — average dependence chain length",
        "Below 16 by construction, average under 8 micro-ops.",
        "Measured mean ≈7.8 uops — the same 'chains are short' conclusion, "
        "almost exactly the paper's number.",
    ),
    "fig3": (
        "Figure 3 — extra micro-ops due to Branch Runahead",
        "+34.3% micro-ops on average (vs SlipStream's +85%).",
        "`dce-overhead` (chain uops / retired uops) is the comparable "
        "metric: ~56% on these misprediction-dense kernels, still far "
        "below SlipStream's 85% re-execution. The *net* issued-uop change "
        "is only ~+2% because Branch Runahead also removes wrong-path "
        "fetch/issue work — a second-order effect the paper's Figure 3 "
        "does not isolate.",
    ),
    "fig5": (
        "Figure 5 — chains impacted by affectors or guards",
        "A large fraction of chains is affected (varies 10–100% "
        "per benchmark).",
        "Kernels with explicit guard structure (gcc_06 81%, astar_06 54%, "
        "leela_17 42%) show exactly the paper's effect; single-branch "
        "kernels have little to guard, pulling the mean down. The "
        "mechanism (guard-terminated tags like `<A, NT>`) is exercised "
        "end-to-end — see the `board_scan` example.",
    ),
    "fig10": (
        "Figure 10 — MPKI and IPC improvement (the headline)",
        "Means: MPKI −37.5% (Core-Only), −43.6% (Mini), −47.5% "
        "(Big); IPC +8.2% / +13.7% / +16.9%. The 80 KB TAGE-SC-L — same "
        "added storage as Mini — improves MPKI by only 0.8% and IPC by "
        "0.3%.",
        "Every structural claim holds: the 80 KB TAGE is a rounding error "
        "(−0.05% MPKI, +0.03% IPC gmean) while the same storage spent on "
        "Branch Runahead buys tens of percent; Core-Only < Mini; Big adds "
        "only a few points over Mini (paper: +3.8%). Our absolute "
        "improvements are larger than the paper's because the synthetic "
        "kernels are more misprediction-bound than full SPEC regions. "
        "tc regresses slightly (−6% MPKI) — its self-affecting chain "
        "diverges and the §4.2 throttle caps the damage.",
    ),
    "fig11-top": (
        "Figure 11 (top) — MTAGE vs Big Branch Runahead",
        "Unlimited MTAGE-SC helps SPEC somewhat but fails on GAP; "
        "Big BR beats it on average; MTAGE+BR is best on every benchmark.",
        "Reproduced in the essentials: MTAGE's mean improvement is ~0 "
        "(slightly negative — unlimited tables only add allocation noise "
        "on history-free branches), and Big BR dominates it by ~70 "
        "points. The combination tracks Big BR on most kernels; on two "
        "(omnetpp_17, gcc_06) it falls between MTAGE and BR rather than "
        "strictly above both — with MTAGE as the base predictor the "
        "misprediction pattern that triggers synchronization shifts, a "
        "coupling the paper's full-size regions average away.",
    ),
    "fig11-bottom": (
        "Figure 11 (bottom) — chain initiation policies",
        "Predictive ≥ Independent-early ≥ Non-speculative.",
        "The essential gap reproduces dramatically: non-speculative "
        "initiation is nearly useless (+4%) while both speculative "
        "policies deliver ~64% — chain-level parallelism is what buys "
        "timeliness. Predictive and independent-early tie here because "
        "wildcard (self-triggering) chains dominate these kernels, and "
        "those are initiated early under both policies; the paper's "
        "Predictive edge comes from guarded-chain-heavy benchmarks.",
    ),
    "fig12": (
        "Figure 12 — prediction breakdown",
        "Used predictions are almost always correct; ~40% arrive "
        "on time; *late* is the largest loss category.",
        "Reproduced: correct dominates used predictions (incorrect ≈1%), "
        "and late is the biggest non-correct slice — timeliness is the "
        "binding constraint here too. Our inactive fraction is smaller "
        "than the paper's because synchronization opportunities "
        "(mispredicts) are denser on these kernels.",
    ),
    "fig13": (
        "Figure 13 — parameter sweeps (Mini → Big)",
        "Window size and chain cache size dominate the Mini→Big "
        "gap; queues/CEB/HBT saturate early; optimal ≈128-entry window, "
        "64-entry chain cache.",
        "The paper's main finding — window size dominates the Mini→Big "
        "gap — reproduces exactly (+24% at 8 instances, +59% at Mini's "
        "64, saturating toward Big's 1024). The 16-uop chain-length cap "
        "is load-bearing (halving it drops the mean to +20%), and queue "
        "depth matters up to ~64 entries. Chain cache, CEB and HBT sizes "
        "are flat here: each synthetic kernel has only a handful of "
        "static branches, so Mini's 32 chains never thrash — the paper's "
        "chain-cache sensitivity comes from SPEC's thousands of branch "
        "sites, which is a workload-scale difference, not a mechanism "
        "difference.",
    ),
    "fig14": (
        "Figure 14 — energy",
        "Energy *decreases* on average (faster run time outweighs "
        "the new structures and extra uops).",
        "Same sign and mechanism under the analytic model: Mini and Big "
        "save ~13% on average because the leakage and per-uop energy "
        "saved by shorter runs exceeds the DCE's added dynamic energy. "
        "Core-Only is roughly neutral (+3%) — less speedup to pay for "
        "the same extraction machinery — and tc, the divergent kernel "
        "with no speedup, pays the bill (+13–21%), exactly the paper's "
        "worst-case pattern.",
    ),
    "merge-point": (
        "§4.4 — merge-point prediction accuracy",
        "The WPB method is 92% accurate vs 78% for prior "
        "code-layout heuristics.",
        "The WPB is essentially perfect on these kernels (their hammocks "
        "reconverge within the ROB), while the classic 'merge = taken "
        "target' layout heuristic averages 85% and collapses to 0% on "
        "two-sided branches (tc) — the same qualitative gap as the "
        "paper's 92-vs-78, wider here because the WPB has easy hammocks "
        "and the heuristic has hard diamonds.",
    ),
    "ablations": (
        "Ablations — in-order DCE and disabled affector/guard detection",
        "Out-of-order intra-chain scheduling is needed for "
        "MLP (§4.2); affector/guard identification matters (§4.4).",
        "The affector/guard claim reproduces sharply: disabling it drops "
        "the mean from 63% to 54%, and collapses exactly the kernels with "
        "guard structure — astar_06 98→5, deepsjeng_17 96→66, leela_17 "
        "95→68, mcf_17 12→1 (their guarded chains degrade into mis-tagged "
        "self chains that diverge whenever the guard changes direction). "
        "In-order intra-chain scheduling ties here because most chains "
        "carry a single load; the paper's MLP argument applies to "
        "multi-load slices.",
    ),
    "area": (
        "§5.2 — area",
        "DCE ≈0.38 mm², ≈2.2% of a 16.96 mm² core (1.4% for "
        "Core-Only).",
        "The analytic model is calibrated to the paper's McPAT breakdown "
        "and reproduces it by construction; it exists so energy scaling "
        "has a consistent basis.",
    ),
}

ORDER = [
    "table1", "table2", "fig1", "fig2", "fig3", "fig5", "fig10",
    "fig11-top", "fig11-bottom", "fig12", "fig13", "fig14",
    "merge-point", "ablations", "area",
]


def main() -> None:
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    figures_out = Path(sys.argv[1])
    target = Path(sys.argv[2]) if len(sys.argv) == 3 else REPO_DOC
    full = figures_out.read_text(encoding="utf-8")
    sections = {}
    for m in re.finditer(r"=== (\S+) ===\n(.*?)(?=\n=== |\Z)", full, re.S):
        sections[m.group(1)] = m.group(2).strip("\n")
    missing = [name for name in ORDER if name not in sections]
    if missing:
        sys.exit(f"{figures_out}: missing sections: {', '.join(missing)}")

    head = REPO_DOC.read_text(encoding="utf-8").split("<!-- RESULTS -->")[0]
    out = [head + "<!-- RESULTS -->\n"]
    for name in ORDER:
        title, paper, verdict = COMMENTARY[name]
        out.append(f"\n## {title}\n")
        out.append(f"\n**Paper.** {paper}\n")
        out.append(f"\n```text\n{sections[name]}\n```\n")
        out.append(f"\n**Measured.** {verdict}\n")
    target.write_text("".join(out), encoding="utf-8")
    print(f"{target} written with {len(ORDER)} sections")


if __name__ == "__main__":
    main()
