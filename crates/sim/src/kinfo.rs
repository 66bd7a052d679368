//! Preprocessed per-kernel information.
//!
//! Before a run, the simulator resolves everything that is static for the
//! whole simulation: the private/shared classification of every instruction
//! under the configured threshold (paper Figs. 3–4 steps (b)/(c) are pure
//! comparator logic, so we evaluate them once per static instruction), warp
//! shapes, and loop-table sizes. The per-instruction results are packed into
//! one [`InstrMeta`] record per static instruction so the per-cycle readiness
//! scan and issue paths touch a single contiguous table instead of several
//! parallel vectors plus the program itself.

use grs_core::{ResourceKind, Threshold};
use grs_isa::{Instr, Kernel, Op, WARP_SIZE};

use crate::warp::NO_REG;

/// Everything the simulator's hot paths need to know about one static
/// instruction, resolved once per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstrMeta {
    /// Scoreboard mask of all register operands (sources and destination).
    /// Requires `regs_per_thread ≤ 64`, checked by the simulator entry point.
    pub op_mask: u64,
    /// The operation, copied out of the program for locality.
    pub op: Op,
    /// Destination register, [`NO_REG`] when the instruction writes none.
    pub dst: u16,
    /// Line transactions one warp-level execution generates (0 for
    /// non-global-memory instructions). The memory system's issue gate
    /// reserves this much MSHR/DRAM-queue capacity up front.
    pub mem_txns: u8,
    /// Classification bits (global or scratchpad access, global load,
    /// exit, and whether it touches the run's shared resource past the
    /// threshold's private part), read through the accessor methods.
    pub flags: u8,
}

const FLAG_GLOBAL_MEM: u8 = 1 << 0;
const FLAG_SHARED_MEM: u8 = 1 << 1;
const FLAG_SHARED: u8 = 1 << 2;
const FLAG_EXIT: u8 = 1 << 3;
const FLAG_GLOBAL_LOAD: u8 = 1 << 4;

impl InstrMeta {
    /// Global-memory load or store?
    #[inline]
    pub fn is_global_mem(&self) -> bool {
        self.flags & FLAG_GLOBAL_MEM != 0
    }

    /// Scratchpad load or store?
    #[inline]
    pub fn is_shared_mem(&self) -> bool {
        self.flags & FLAG_SHARED_MEM != 0
    }

    /// Needs the pair lock: touches a register (under register sharing)
    /// or scratchpad bytes (under scratchpad sharing) classified *shared*
    /// under the run's threshold?
    #[inline]
    pub fn uses_shared(&self) -> bool {
        self.flags & FLAG_SHARED != 0
    }

    /// Global-memory **load** (allocates an MSHR entry on an L2 miss under
    /// the event-driven model)?
    #[inline]
    pub fn is_global_load(&self) -> bool {
        self.flags & FLAG_GLOBAL_LOAD != 0
    }

    /// Warp retirement?
    #[inline]
    pub fn is_exit(&self) -> bool {
        self.flags & FLAG_EXIT != 0
    }
}

/// Immutable, preprocessed view of a kernel for one run configuration.
#[derive(Debug, Clone)]
pub struct KernelInfo {
    /// The (possibly transform-optimized) kernel.
    pub kernel: Kernel,
    /// Warps per block.
    pub warps_per_block: u32,
    /// Active threads in each warp of a block (last warp may be partial,
    /// e.g. b+tree's 508-thread blocks).
    pub threads_in_warp: Vec<u32>,
    /// Per static instruction: packed scan/issue metadata.
    pub meta: Vec<InstrMeta>,
    /// Loop-counter table size per warp.
    pub num_loops: usize,
}

impl KernelInfo {
    /// Preprocess `kernel` for a run with the given sharing resource (or
    /// `None` for a baseline run, in which case everything is private).
    pub fn new(kernel: Kernel, sharing: Option<ResourceKind>, threshold: Threshold) -> Self {
        let warps_per_block = kernel.warps_per_block();
        let mut threads_in_warp = Vec::with_capacity(warps_per_block as usize);
        let mut remaining = kernel.threads_per_block;
        for _ in 0..warps_per_block {
            threads_in_warp.push(remaining.min(WARP_SIZE));
            remaining = remaining.saturating_sub(WARP_SIZE);
        }

        // The shared resource's private part; everything past it is
        // shared. Registers: a register is shared iff its declaration
        // sequence number reaches ⌊t·regs_per_thread⌋ (the `Rw·t` boundary
        // of Fig. 3 in per-thread sequence numbers). Scratchpad: an access
        // is shared iff its highest byte reaches ⌊t·Rtb⌋ (Fig. 4).
        let uses_shared = |i: &Instr| match sharing {
            Some(ResourceKind::Registers) => {
                let private = threshold.private_units(kernel.regs_per_thread);
                i.operands().any(|r| u32::from(kernel.seq_of(r)) >= private)
            }
            Some(ResourceKind::Scratchpad) => {
                let private = threshold.private_units(kernel.smem_per_block);
                matches!(i.op, Op::LdShared(p) | Op::StShared(p) if p.max_byte() >= private)
            }
            None => false,
        };

        let meta: Vec<InstrMeta> = kernel
            .program
            .instrs
            .iter()
            .map(|i| {
                let mut flags = 0u8;
                let mut mem_txns = 0u8;
                if i.op.is_global_mem() {
                    flags |= FLAG_GLOBAL_MEM;
                    if let Op::LdGlobal(p) | Op::StGlobal(p) = i.op {
                        if matches!(i.op, Op::LdGlobal(_)) {
                            flags |= FLAG_GLOBAL_LOAD;
                        }
                        mem_txns = p.transactions().min(255) as u8;
                    }
                }
                if i.op.is_shared_mem() {
                    flags |= FLAG_SHARED_MEM;
                }
                if uses_shared(i) {
                    flags |= FLAG_SHARED;
                }
                if matches!(i.op, Op::Exit) {
                    flags |= FLAG_EXIT;
                }
                InstrMeta {
                    op_mask: i.operands().fold(0u64, |m, r| m | (1 << (r.0 as u64 & 63))),
                    op: i.op,
                    dst: i.dst.map(|d| d.0).unwrap_or(NO_REG),
                    mem_txns,
                    flags,
                }
            })
            .collect();
        let num_loops = kernel.program.num_loops();

        KernelInfo {
            warps_per_block,
            threads_in_warp,
            meta,
            num_loops,
            kernel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_isa::{GlobalPattern, Program, Reg, SharedPattern};

    /// 508 threads, 24 registers and 2180 scratchpad bytes a block. At
    /// t = 0.1 the registers below ⌊0.1·24⌋ = 2 and the bytes below
    /// ⌊0.1·2180⌋ = 218 are private, and each boundary has an access on
    /// either side: IALUs on registers 1 and 2, and scratchpad loads whose
    /// highest bytes are 217 and 218.
    fn kernel() -> Kernel {
        let alu = |r| Instr::new(Op::IAlu, Some(Reg(r)), &[Reg(r)]);
        let lds = |bytes| {
            Instr::new(
                Op::LdShared(SharedPattern::new(0, bytes)),
                Some(Reg(0)),
                &[],
            )
        };
        let instrs = vec![
            alu(1),
            alu(2),
            lds(218),
            lds(219),
            Instr::new(Op::LdGlobal(GlobalPattern::Stream), Some(Reg(0)), &[]),
            Instr::new(Op::Exit, None, &[]),
        ];
        Kernel::new("k", 508, 24, 2180, 4, Program::new(instrs))
    }

    /// Which instructions of `k` need the pair lock under `sharing`.
    fn shared(k: Kernel, sharing: Option<ResourceKind>) -> Vec<bool> {
        let ki = KernelInfo::new(k, sharing, Threshold::paper_default());
        ki.meta.iter().map(|m| m.uses_shared()).collect()
    }

    #[test]
    fn partial_last_warp() {
        let ki = KernelInfo::new(kernel(), None, Threshold::paper_default());
        assert_eq!(ki.warps_per_block, 16);
        assert_eq!(ki.threads_in_warp[0], 32);
        assert_eq!(ki.threads_in_warp[15], 508 - 15 * 32); // 28 threads
    }

    #[test]
    fn baseline_marks_nothing_shared() {
        assert_eq!(shared(kernel(), None), [false; 6]);
    }

    #[test]
    fn register_sharing_boundary() {
        // Register 1 is private and register 2 shared; no scratchpad
        // access is shared, whatever its bytes.
        let want = [false, true, false, false, false, false];
        assert_eq!(shared(kernel(), Some(ResourceKind::Registers)), want);
        // The boundary is in declaration sequence numbers: swapping the
        // two registers' declarations swaps their classes.
        let mut k = kernel();
        k.decl_seq.swap(1, 2);
        let want = [true, false, false, false, false, false];
        assert_eq!(shared(k, Some(ResourceKind::Registers)), want);
    }

    #[test]
    fn scratchpad_sharing_boundary() {
        // The load reaching byte 217 is private and the one reaching byte
        // 218 shared; no register is shared.
        let want = [false, false, false, true, false, false];
        assert_eq!(shared(kernel(), Some(ResourceKind::Scratchpad)), want);
    }

    #[test]
    fn meta_mirrors_the_program() {
        let ki = KernelInfo::new(kernel(), None, Threshold::paper_default());
        assert_eq!(ki.meta.len(), ki.kernel.program.instrs.len());
        for (m, i) in ki.meta.iter().zip(&ki.kernel.program.instrs) {
            assert_eq!(m.op, i.op);
            assert_eq!(m.is_global_mem(), i.op.is_global_mem());
            assert_eq!(m.is_shared_mem(), i.op.is_shared_mem());
            assert_eq!(m.is_exit(), matches!(i.op, Op::Exit));
            assert_eq!(m.is_global_load(), matches!(i.op, Op::LdGlobal(_)));
            let expect_txns = match i.op {
                Op::LdGlobal(p) | Op::StGlobal(p) => p.transactions().min(255) as u8,
                _ => 0,
            };
            assert_eq!(m.mem_txns, expect_txns);
            assert_eq!(m.dst, i.dst.map(|d| d.0).unwrap_or(NO_REG));
            let expect_mask = i
                .operands()
                .fold(0u64, |acc, r| acc | (1 << (r.0 as u64 & 63)));
            assert_eq!(m.op_mask, expect_mask);
        }
    }
}
