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
use grs_isa::{Kernel, Op, WARP_SIZE};

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
    /// exit, and whether it touches a *shared* register or *shared*
    /// scratchpad under the run's threshold), read through the accessor
    /// methods.
    pub flags: u8,
}

const FLAG_GLOBAL_MEM: u8 = 1 << 0;
const FLAG_SHARED_MEM: u8 = 1 << 1;
const FLAG_SHARED_REG: u8 = 1 << 2;
const FLAG_SHARED_SMEM: u8 = 1 << 3;
const FLAG_EXIT: u8 = 1 << 4;
const FLAG_GLOBAL_LOAD: u8 = 1 << 5;

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

    /// Touches a register classified *shared* under the run's threshold?
    #[inline]
    pub fn uses_shared_reg(&self) -> bool {
        self.flags & FLAG_SHARED_REG != 0
    }

    /// Touches scratchpad classified *shared* under the run's threshold?
    #[inline]
    pub fn uses_shared_smem(&self) -> bool {
        self.flags & FLAG_SHARED_SMEM != 0
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
    /// Number of per-thread registers classified *private* under the run's
    /// threshold: a register is shared iff its declaration sequence number
    /// is `≥ private_regs` (the `Rw·t` boundary of Fig. 3 expressed in
    /// per-thread register sequence numbers).
    pub private_regs: u16,
    /// Scratchpad bytes classified private per block (`Rtb·t` of Fig. 4).
    pub private_smem: u32,
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

        // Private boundaries: with sharing disabled for a resource, every
        // access to it is private (boundary = everything).
        let private_regs = match sharing {
            Some(ResourceKind::Registers) => {
                // Rw·t warp registers = t·regs_per_thread per-thread regs.
                (threshold.t() * f64::from(kernel.regs_per_thread)).floor() as u16
            }
            _ => kernel.regs_per_thread as u16,
        };
        let private_smem = match sharing {
            Some(ResourceKind::Scratchpad) => threshold.private_units(kernel.smem_per_block),
            _ => kernel.smem_per_block,
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
                if i.operands().any(|r| kernel.seq_of(r) >= private_regs) {
                    flags |= FLAG_SHARED_REG;
                }
                if let Op::LdShared(p) | Op::StShared(p) = i.op {
                    if p.max_byte() >= private_smem {
                        flags |= FLAG_SHARED_SMEM;
                    }
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
            private_regs,
            private_smem,
            meta,
            num_loops,
            kernel,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_isa::{GlobalPattern, KernelBuilder};

    fn kernel() -> Kernel {
        KernelBuilder::new("k")
            .threads_per_block(508)
            .regs_per_thread(24)
            .smem_per_block(2180)
            .grid_blocks(4)
            .ialu(2)
            .ld_shared(0, 128)
            .ld_shared(2000, 64)
            .ld_global(GlobalPattern::Stream)
            .build()
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
        let ki = KernelInfo::new(kernel(), None, Threshold::paper_default());
        assert!(ki.meta.iter().all(|m| !m.uses_shared_reg()));
        assert!(ki.meta.iter().all(|m| !m.uses_shared_smem()));
    }

    #[test]
    fn register_sharing_boundary() {
        let ki = KernelInfo::new(
            kernel(),
            Some(ResourceKind::Registers),
            Threshold::paper_default(),
        );
        // t = 0.1, 24 regs/thread → 2 private per-thread registers.
        assert_eq!(ki.private_regs, 2);
        // Scratchpad untouched by register sharing.
        assert_eq!(ki.private_smem, 2180);
        assert!(ki.meta.iter().all(|m| !m.uses_shared_smem()));
        // Some instruction uses registers ≥ seq 2.
        assert!(ki.meta.iter().any(|m| m.uses_shared_reg()));
    }

    #[test]
    fn scratchpad_sharing_boundary() {
        let ki = KernelInfo::new(
            kernel(),
            Some(ResourceKind::Scratchpad),
            Threshold::paper_default(),
        );
        // t = 0.1 → 218 private bytes.
        assert_eq!(ki.private_smem, 218);
        // The 0..128 access is private; the access ending at 2063 is shared.
        let shared_flags: Vec<bool> = ki
            .meta
            .iter()
            .filter(|m| m.is_shared_mem())
            .map(|m| m.uses_shared_smem())
            .collect();
        assert_eq!(shared_flags, vec![false, true]);
        // Registers untouched by scratchpad sharing.
        assert!(ki.meta.iter().all(|m| !m.uses_shared_reg()));
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
