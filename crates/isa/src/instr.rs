//! Instructions and opcodes.

use serde::{Deserialize, Serialize};

use crate::pattern::{GlobalPattern, SharedPattern};
use crate::reg::Reg;

/// Maximum number of source operands an instruction can carry (FFMA needs 3).
pub const MAX_SRCS: usize = 3;

/// Operation performed by an [`Instr`].
///
/// Latencies are *not* encoded here; they come from the simulator's pipeline
/// configuration so that a single program can be simulated under different
/// machine models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Integer ALU op (add/sub/logic/compare/setp).
    IAlu,
    /// Integer multiply (longer latency class on the modelled GPU).
    IMul,
    /// Single-precision add.
    FAdd,
    /// Single-precision multiply.
    FMul,
    /// Fused multiply-add (three sources).
    FFma,
    /// Special-function unit op (rsqrt, sin, exp, ...).
    Sfu,
    /// Global-memory load with the given address pattern.
    LdGlobal(GlobalPattern),
    /// Global-memory store with the given address pattern.
    StGlobal(GlobalPattern),
    /// Scratchpad (shared-memory) load.
    LdShared(SharedPattern),
    /// Scratchpad (shared-memory) store.
    StShared(SharedPattern),
    /// Block-wide barrier, `__syncthreads()`.
    Barrier,
    /// Backward branch to instruction index `target`, taken `trips` times per
    /// warp (then falls through). `loop_id` indexes the warp's trip-counter
    /// table; ids must be unique within a program.
    BranchBack {
        target: u16,
        trips: u16,
        loop_id: u8,
    },
    /// Retire the warp.
    Exit,
}

impl Op {
    /// True for `LdGlobal`/`StGlobal` — the class the paper's *dynamic warp
    /// execution* optimization throttles for non-owner warps (Sec. IV-C).
    #[inline]
    pub fn is_global_mem(&self) -> bool {
        matches!(self, Op::LdGlobal(_) | Op::StGlobal(_))
    }

    /// True for scratchpad accesses.
    #[inline]
    pub fn is_shared_mem(&self) -> bool {
        matches!(self, Op::LdShared(_) | Op::StShared(_))
    }

    /// True for any memory access (global or scratchpad).
    #[inline]
    pub fn is_mem(&self) -> bool {
        self.is_global_mem() || self.is_shared_mem()
    }

    /// True for control instructions (barrier / branch / exit).
    #[inline]
    pub fn is_control(&self) -> bool {
        matches!(self, Op::Barrier | Op::BranchBack { .. } | Op::Exit)
    }

    /// Short mnemonic used by the disassembler.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::IAlu => "ialu",
            Op::IMul => "imul",
            Op::FAdd => "fadd",
            Op::FMul => "fmul",
            Op::FFma => "ffma",
            Op::Sfu => "sfu",
            Op::LdGlobal(_) => "ld.global",
            Op::StGlobal(_) => "st.global",
            Op::LdShared(_) => "ld.shared",
            Op::StShared(_) => "st.shared",
            Op::Barrier => "bar.sync",
            Op::BranchBack { .. } => "bra",
            Op::Exit => "exit",
        }
    }
}

/// One static instruction: an opcode plus register operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Instr {
    /// Operation.
    pub op: Op,
    /// Destination register (loads and arithmetic write one).
    pub dst: Option<Reg>,
    /// Source registers, `srcs[..nsrc]` are valid.
    pub srcs: [Reg; MAX_SRCS],
    /// Number of valid sources, at most [`MAX_SRCS`] (`validate` rejects a
    /// larger count).
    pub nsrc: u8,
}

impl Instr {
    /// Build an instruction; panics if more than [`MAX_SRCS`] sources are
    /// given (a static program-construction error).
    pub fn new(op: Op, dst: Option<Reg>, srcs: &[Reg]) -> Self {
        assert!(srcs.len() <= MAX_SRCS, "at most {MAX_SRCS} sources");
        let mut s = [Reg(0); MAX_SRCS];
        s[..srcs.len()].copy_from_slice(srcs);
        Instr {
            op,
            dst,
            srcs: s,
            nsrc: srcs.len() as u8,
        }
    }

    /// Valid source operands: `srcs[..nsrc]`, cut at [`MAX_SRCS`] when an
    /// instruction nobody validated claims more.
    #[inline]
    pub fn sources(&self) -> &[Reg] {
        &self.srcs[..usize::from(self.nsrc).min(MAX_SRCS)]
    }

    /// Iterate every register operand (sources then destination).
    pub fn operands(&self) -> impl Iterator<Item = Reg> + '_ {
        self.sources().iter().copied().chain(self.dst)
    }

    /// PTX-flavoured one-line disassembly.
    pub fn disasm(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(32);
        s.push_str(self.op.mnemonic());
        if let Op::BranchBack {
            target,
            trips,
            loop_id,
        } = self.op
        {
            let _ = write!(s, " L{target} (trips={trips}, loop={loop_id})");
            return s;
        }
        let mut first = true;
        if let Some(d) = self.dst {
            let _ = write!(s, " {d}");
            first = false;
        }
        for r in self.sources() {
            let _ = write!(s, "{} {r}", if first { "" } else { "," });
            first = false;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_predicates() {
        let ld = Op::LdGlobal(GlobalPattern::Stream);
        let st = Op::StShared(SharedPattern::new(0, 64));
        assert!(ld.is_global_mem() && ld.is_mem() && !ld.is_shared_mem());
        assert!(st.is_shared_mem() && st.is_mem() && !st.is_global_mem());
        assert!(Op::Barrier.is_control());
        assert!(!Op::IAlu.is_mem() && !Op::IAlu.is_control());
    }

    #[test]
    fn instr_holds_sources_in_order() {
        let i = Instr::new(Op::FFma, Some(Reg(4)), &[Reg(1), Reg(2), Reg(3)]);
        assert_eq!(i.sources(), &[Reg(1), Reg(2), Reg(3)]);
        assert_eq!(
            i.operands().collect::<Vec<_>>(),
            vec![Reg(1), Reg(2), Reg(3), Reg(4)]
        );
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_sources_panics() {
        let _ = Instr::new(Op::IAlu, None, &[Reg(0), Reg(1), Reg(2), Reg(3)]);
    }

    #[test]
    fn disasm_is_readable() {
        let i = Instr::new(Op::FAdd, Some(Reg(2)), &[Reg(0), Reg(1)]);
        assert_eq!(i.disasm(), "fadd $r2, $r0, $r1");
        let b = Instr::new(
            Op::BranchBack {
                target: 3,
                trips: 10,
                loop_id: 0,
            },
            None,
            &[],
        );
        assert_eq!(b.disasm(), "bra L3 (trips=10, loop=0)");
    }

    #[test]
    fn a_source_count_past_the_array_reads_only_the_array() {
        // `nsrc` is public, so an instruction nobody validated can claim
        // more sources than `srcs` holds; every reader stops at MAX_SRCS.
        let mut i = Instr::new(Op::FFma, Some(Reg(4)), &[Reg(1), Reg(2), Reg(3)]);
        for nsrc in [4, 255] {
            i.nsrc = nsrc;
            assert_eq!(i.sources(), &[Reg(1), Reg(2), Reg(3)]);
            assert_eq!(
                i.operands().collect::<Vec<_>>(),
                vec![Reg(1), Reg(2), Reg(3), Reg(4)]
            );
            assert_eq!(i.disasm(), "ffma $r4, $r1, $r2, $r3");
        }
    }
}
