//! Dependence-chain representation after extraction and local rename.
//!
//! A chain is the backward dataflow slice of a hard-to-predict branch,
//! expressed over *local* registers (local rename happens once, at
//! extraction — §4.3). The chain's live-in/live-out maps record which
//! architectural registers each local register corresponds to; global
//! rename (at initiation) uses them to link an instance to its producer's
//! register file (§4.2, Figure 8).

use std::collections::BTreeSet;
use std::fmt;

use br_isa::{AluOp, ArchReg, Cond, Flags, Pc, Width};

/// Index into a chain's local register file.
pub type LocalReg = u8;

/// A register-or-immediate source inside a chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainSrc {
    /// A local register.
    Reg(LocalReg),
    /// An immediate.
    Imm(i64),
}

/// One executable chain micro-op. Chains contain no stores and no control
/// flow — guaranteed by construction (§4.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChainOp {
    /// ALU operation.
    Alu {
        /// Operation (never `Div` — rejected at extraction).
        op: AluOp,
        /// Destination local register.
        dst: LocalReg,
        /// First source.
        src1: ChainSrc,
        /// Second source.
        src2: ChainSrc,
    },
    /// Register/immediate move (most are move-eliminated; immediates that
    /// fed an eliminated store→load pair survive as moves).
    Mov {
        /// Destination local register.
        dst: LocalReg,
        /// Source.
        src: ChainSrc,
    },
    /// Memory load.
    Load {
        /// Destination local register.
        dst: LocalReg,
        /// Base register.
        base: Option<ChainSrc>,
        /// Index register.
        index: Option<ChainSrc>,
        /// Index scale.
        scale: u8,
        /// Displacement.
        disp: i64,
        /// Access width.
        width: Width,
        /// Sign extension.
        signed: bool,
    },
    /// Flag-setting compare; the chain's final outcome is `cond(flags)`.
    Cmp {
        /// First source.
        src1: ChainSrc,
        /// Second source.
        src2: ChainSrc,
    },
}

impl ChainOp {
    /// Local registers this op reads.
    #[must_use]
    pub fn src_regs(&self) -> Vec<LocalReg> {
        let mut v = Vec::new();
        let mut push = |s: &ChainSrc| {
            if let ChainSrc::Reg(r) = s {
                v.push(*r);
            }
        };
        match self {
            ChainOp::Alu { src1, src2, .. } | ChainOp::Cmp { src1, src2 } => {
                push(src1);
                push(src2);
            }
            ChainOp::Mov { src, .. } => push(src),
            ChainOp::Load { base, index, .. } => {
                if let Some(b) = base {
                    push(b);
                }
                if let Some(i) = index {
                    push(i);
                }
            }
        }
        v
    }

    /// The local register this op writes, if any (`Cmp` writes the chain's
    /// flags instead).
    #[must_use]
    pub fn dst_reg(&self) -> Option<LocalReg> {
        match self {
            ChainOp::Alu { dst, .. } | ChainOp::Mov { dst, .. } | ChainOp::Load { dst, .. } => {
                Some(*dst)
            }
            ChainOp::Cmp { .. } => None,
        }
    }

    /// Whether this op is a load.
    #[must_use]
    pub fn is_load(&self) -> bool {
        matches!(self, ChainOp::Load { .. })
    }

    /// Compute latency in cycles (memory latency modelled separately).
    #[must_use]
    pub fn latency(&self) -> u64 {
        match self {
            ChainOp::Alu { op, .. } => u64::from(op.latency()),
            _ => 1,
        }
    }
}

/// The tag that initiates a chain: a trigger branch PC and the outcome it
/// must produce. `outcome == None` is the wildcard `<PC, *>` of §3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ChainTag {
    /// Triggering branch PC.
    pub pc: Pc,
    /// Required trigger outcome; `None` matches either direction.
    pub outcome: Option<bool>,
}

impl ChainTag {
    /// Whether an observed `(pc, outcome)` event matches this tag.
    #[must_use]
    pub fn matches(&self, pc: Pc, outcome: bool) -> bool {
        self.pc == pc && self.outcome.is_none_or(|o| o == outcome)
    }

    /// Whether this is a wildcard tag.
    #[must_use]
    pub fn is_wildcard(&self) -> bool {
        self.outcome.is_none()
    }
}

impl fmt::Display for ChainTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.outcome {
            None => write!(f, "<{:#x}, *>", self.pc),
            Some(true) => write!(f, "<{:#x}, T>", self.pc),
            Some(false) => write!(f, "<{:#x}, NT>", self.pc),
        }
    }
}

/// An extracted, locally renamed dependence chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DependenceChain {
    /// Initiation tag.
    pub tag: ChainTag,
    /// PC of the branch this chain pre-computes.
    pub branch_pc: Pc,
    /// The branch's condition, applied to the chain's final flags.
    pub cond: Cond,
    /// Chain ops in program order.
    pub ops: Vec<ChainOp>,
    /// Architectural live-ins: `(arch reg, local reg)` pairs, copied from
    /// the producer at initiation.
    pub live_ins: Vec<(ArchReg, LocalReg)>,
    /// Architectural live-outs: `(arch reg, binding)` pairs exposed to
    /// successor chains. A binding may be an immediate when move
    /// elimination folded a constant into the register.
    pub live_outs: Vec<(ArchReg, ChainSrc)>,
    /// Number of local registers used.
    pub num_local_regs: usize,
    /// Whether extraction terminated at an affector/guard branch (versus a
    /// second instance of the target itself). Drives Figure 5.
    pub guard_terminated: bool,
    /// Uops eliminated by move / store→load elimination (for stats).
    pub eliminated_uops: usize,
    /// Static PCs of every uop in the backward slice (including ones that
    /// move elimination removed). Diagnostic: shows *which* program
    /// instructions the chain covers.
    pub source_pcs: BTreeSet<Pc>,
}

impl DependenceChain {
    /// Number of executable uops in the chain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the chain has no executable uops (possible when everything
    /// was move-eliminated; the outcome still depends on live-in flags —
    /// such chains are rejected at extraction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The local register holding the live-in copy of `r`, if any.
    #[must_use]
    pub fn live_in_local(&self, r: ArchReg) -> Option<LocalReg> {
        self.live_ins.iter().find(|(a, _)| *a == r).map(|(_, l)| *l)
    }

    /// The binding whose final value corresponds to arch reg `r` at chain
    /// end, if the chain writes it.
    #[must_use]
    pub fn live_out_binding(&self, r: ArchReg) -> Option<ChainSrc> {
        self.live_outs
            .iter()
            .find(|(a, _)| *a == r)
            .map(|(_, l)| *l)
    }

    /// Reference evaluation: runs `ops` in program order over the
    /// architectural context `live_ins` (indexed by register) and returns
    /// the branch outcome. `load_values[k]` is the value the `k`-th load
    /// produced (already width- and sign-extended); addresses are not
    /// recomputed, so the result is exactly what a correct datapath
    /// derives from the same inputs, however stale they are.
    ///
    /// # Panics
    ///
    /// Panics if `load_values` holds fewer values than the chain has
    /// loads, or if the chain has no compare.
    #[must_use]
    pub fn evaluate(&self, live_ins: &[u64; 16], load_values: &[u64]) -> bool {
        let mut locals = [0u64; 256];
        for (a, l) in &self.live_ins {
            locals[usize::from(*l)] = live_ins[a.index()];
        }
        let val = |s: ChainSrc, locals: &[u64; 256]| match s {
            ChainSrc::Reg(l) => locals[usize::from(l)],
            ChainSrc::Imm(v) => v as u64,
        };
        let mut loads = load_values.iter();
        let mut flags = None;
        for op in &self.ops {
            match *op {
                ChainOp::Alu {
                    op,
                    dst,
                    src1,
                    src2,
                } => locals[usize::from(dst)] = op.eval(val(src1, &locals), val(src2, &locals)),
                ChainOp::Mov { dst, src } => locals[usize::from(dst)] = val(src, &locals),
                ChainOp::Load { dst, .. } => {
                    locals[usize::from(dst)] = *loads.next().expect("a value per load");
                }
                ChainOp::Cmp { src1, src2 } => {
                    flags = Some(Flags::from_cmp(val(src1, &locals), val(src2, &locals)));
                }
            }
        }
        self.cond.eval(flags.expect("chains end in a cmp"))
    }
}

impl fmt::Display for DependenceChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chain tag {} -> branch {:#x} ({:?}), {} ops, {} live-ins",
            self.tag,
            self.branch_pc,
            self.cond,
            self.ops.len(),
            self.live_ins.len()
        )?;
        for op in &self.ops {
            writeln!(f, "  {op:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_matching() {
        let wild = ChainTag {
            pc: 0x10,
            outcome: None,
        };
        assert!(wild.is_wildcard());
        assert!(wild.matches(0x10, true) && wild.matches(0x10, false));
        assert!(!wild.matches(0x14, true));

        let nt = ChainTag {
            pc: 0x10,
            outcome: Some(false),
        };
        assert!(nt.matches(0x10, false));
        assert!(!nt.matches(0x10, true));
        assert_eq!(nt.to_string(), "<0x10, NT>");
        assert_eq!(wild.to_string(), "<0x10, *>");
    }

    #[test]
    fn op_dataflow() {
        let op = ChainOp::Alu {
            op: AluOp::Add,
            dst: 2,
            src1: ChainSrc::Reg(0),
            src2: ChainSrc::Imm(4),
        };
        assert_eq!(op.src_regs(), vec![0]);
        assert_eq!(op.dst_reg(), Some(2));

        let cmp = ChainOp::Cmp {
            src1: ChainSrc::Reg(1),
            src2: ChainSrc::Imm(2),
        };
        assert_eq!(cmp.dst_reg(), None);
        assert_eq!(cmp.src_regs(), vec![1]);

        let ld = ChainOp::Load {
            dst: 3,
            base: Some(ChainSrc::Reg(0)),
            index: Some(ChainSrc::Reg(1)),
            scale: 4,
            disp: 0x6f0,
            width: Width::B4,
            signed: false,
        };
        assert!(ld.is_load());
        assert_eq!(ld.src_regs(), vec![0, 1]);
    }

    /// One op of every kind: l0 = r3, l1 = r5;
    /// op0: mov l2 = 7; op1: load l3 = [l0 + l1*8]; op2: sub l4 = l3 - l2;
    /// op3: cmp l4, l1 -> Lt.
    fn every_kind() -> DependenceChain {
        DependenceChain {
            tag: ChainTag {
                pc: 0x10,
                outcome: None,
            },
            branch_pc: 0x20,
            cond: Cond::Lt,
            ops: vec![
                ChainOp::Mov {
                    dst: 2,
                    src: ChainSrc::Imm(7),
                },
                ChainOp::Load {
                    dst: 3,
                    base: Some(ChainSrc::Reg(0)),
                    index: Some(ChainSrc::Reg(1)),
                    scale: 8,
                    disp: 0,
                    width: Width::B8,
                    signed: false,
                },
                ChainOp::Alu {
                    op: AluOp::Sub,
                    dst: 4,
                    src1: ChainSrc::Reg(3),
                    src2: ChainSrc::Reg(2),
                },
                ChainOp::Cmp {
                    src1: ChainSrc::Reg(4),
                    src2: ChainSrc::Reg(1),
                },
            ],
            live_ins: vec![(br_isa::reg::R3, 0), (br_isa::reg::R5, 1)],
            live_outs: vec![],
            num_local_regs: 5,
            guard_terminated: false,
            eliminated_uops: 0,
            source_pcs: BTreeSet::new(),
        }
    }

    #[test]
    fn evaluate_runs_every_op_kind() {
        let chain = every_kind();
        let mut ctx = [0u64; 16];
        ctx[br_isa::reg::R5.index()] = 10;
        // (load - 7) < 10 holds for a loaded 16, not for 17.
        assert!(chain.evaluate(&ctx, &[16]));
        assert!(!chain.evaluate(&ctx, &[17]));
        // The compare is signed: 0 - 7 is negative, so less than 10.
        assert!(chain.evaluate(&ctx, &[0]));
        // The live-in feeds the compare directly: 9 < 5 fails.
        ctx[br_isa::reg::R5.index()] = 5;
        assert!(!chain.evaluate(&ctx, &[16]));
    }
}
