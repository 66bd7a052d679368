//! Kernels: a program plus its launch footprint.

use serde::{Deserialize, Serialize};

use crate::program::Program;
use crate::reg::Reg;
use crate::WARP_SIZE;

/// A GPU kernel: the unit the dispatcher launches onto SMs.
///
/// The footprint fields correspond 1:1 to the columns of the paper's
/// Tables II–IV (threads per block, registers per thread, scratchpad bytes
/// per block) and fully determine occupancy and the sharing launch plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Kernel {
    /// Human-readable kernel name (e.g. `"calculate_temp"`).
    pub name: String,
    /// Threads per thread block (paper "Block Size").
    pub threads_per_block: u32,
    /// Architectural registers per thread.
    pub regs_per_thread: u32,
    /// Scratchpad bytes per thread block.
    pub smem_per_block: u32,
    /// Total thread blocks in the grid.
    pub grid_blocks: u32,
    /// The warp program (every warp executes the same stream).
    pub program: Program,
    /// Declaration order: `decl_seq[reg.index()]` is the register's sequence
    /// number (0-based position among `.reg` declarations). The Fig. 3
    /// register-sharing automaton classifies a register as *private* iff its
    /// sequence number is below the `Rw·t` boundary; the paper's
    /// unroll/reorder pass (Sec. IV-B) permutes exactly this table.
    pub decl_seq: Vec<u16>,
}

impl Kernel {
    /// Build a kernel with the identity declaration order (register `i` has
    /// sequence number `i`).
    pub fn new(
        name: impl Into<String>,
        threads_per_block: u32,
        regs_per_thread: u32,
        smem_per_block: u32,
        grid_blocks: u32,
        program: Program,
    ) -> Self {
        Kernel {
            name: name.into(),
            threads_per_block,
            regs_per_thread,
            smem_per_block,
            grid_blocks,
            program,
            decl_seq: (0..regs_per_thread as u16).collect(),
        }
    }

    /// Warps per thread block (threads rounded up to warp granularity).
    #[inline]
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block.div_ceil(WARP_SIZE)
    }

    /// Registers required by one thread block
    /// (`Rtb = regs_per_thread × threads_per_block`, paper Sec. I),
    /// saturating at `u32::MAX` (more than any SM holds).
    #[inline]
    pub fn regs_per_block(&self) -> u32 {
        self.regs_per_thread.saturating_mul(self.threads_per_block)
    }

    /// Sequence number of a register under the current declaration order.
    #[inline]
    pub fn seq_of(&self, reg: Reg) -> u16 {
        self.decl_seq[reg.index()]
    }

    /// Replace the declaration order. `seq` must be a permutation of
    /// `0..regs_per_thread`; validated in debug builds and by
    /// [`crate::validate()`].
    pub fn set_decl_order(&mut self, seq: Vec<u16>) {
        debug_assert_eq!(seq.len(), self.regs_per_thread as usize);
        self.decl_seq = seq;
    }

    /// Dynamic warp-instruction count of one warp.
    pub fn dynamic_instrs_per_warp(&self) -> u64 {
        self.program.dynamic_len()
    }

    /// Total dynamic *thread* instructions of the whole grid (what the
    /// paper's IPC metric counts).
    pub fn total_thread_instrs(&self) -> u64 {
        self.dynamic_instrs_per_warp()
            * u64::from(self.warps_per_block())
            * u64::from(WARP_SIZE)
            * u64::from(self.grid_blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Instr, Op};

    fn k(threads: u32, regs: u32) -> Kernel {
        Kernel::new(
            "t",
            threads,
            regs,
            0,
            4,
            Program::new(vec![Instr::new(Op::Exit, None, &[])]),
        )
    }

    #[test]
    fn hotspot_footprint_matches_paper_motivation() {
        // Paper Sec. I-A: hotspot uses 36 regs × 256 threads = 9216 per block.
        let hotspot = k(256, 36);
        assert_eq!(hotspot.regs_per_block(), 9216);
        assert_eq!(hotspot.warps_per_block(), 8);
        assert_eq!(k(u32::MAX, 36).regs_per_block(), u32::MAX);
    }

    #[test]
    fn partial_warps_round_up() {
        // b+tree: 508 threads/block → 16 warps.
        assert_eq!(k(508, 24).warps_per_block(), 16);
        assert_eq!(k(16, 24).warps_per_block(), 1);
    }

    #[test]
    fn identity_decl_order_by_default() {
        let kern = k(32, 8);
        for r in 0..8u16 {
            assert_eq!(kern.seq_of(Reg(r)), r);
        }
    }

    #[test]
    fn decl_order_can_be_replaced() {
        let mut kern = k(32, 4);
        kern.set_decl_order(vec![3, 2, 1, 0]);
        assert_eq!(kern.seq_of(Reg(0)), 3);
        assert_eq!(kern.seq_of(Reg(3)), 0);
    }

    #[test]
    fn total_thread_instrs_scales_with_grid() {
        let kern = k(64, 8); // 2 warps/block, 1 dynamic instr, 4 blocks
        assert_eq!(kern.total_thread_instrs(), 2 * 32 * 4);
    }
}
