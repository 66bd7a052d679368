//! Per-warp microarchitectural state: program counter, loop counters,
//! scoreboard and the count of in-flight global-memory instructions. A
//! memory instruction's completion is one SM writeback
//! ([`crate::sm::WbKind::Mem`]), so a warp keeps no per-transaction state.

use crate::rng::XorShift64;

/// Sentinel register id for "no destination": instructions that write no
/// register, stores included.
pub const NO_REG: u16 = u16::MAX;

/// State of one resident warp.
#[derive(Debug, Clone)]
pub struct Warp {
    /// Program counter (index into the kernel program).
    pub pc: u32,
    /// Launch-order id within the SM ("dynamic warp id", used by GTO/OWF).
    pub dynamic_id: u64,
    /// Owning block slot on the SM.
    pub block_slot: u32,
    /// Warp index within its block (pairs warp *i* of block A with warp *i*
    /// of block B under register sharing).
    pub warp_in_block: u32,
    /// Active threads (≤ 32; last warp of a partial block has fewer).
    pub threads: u32,
    /// Per-loop remaining-trip counters.
    pub loop_counters: Vec<u16>,
    /// Bitmask: which loop counters are initialized.
    pub loop_init: u64,
    /// Bitmask of architectural registers with a pending writeback
    /// (scoreboard). Limits the simulator to ≤ 64 registers per thread,
    /// ample for the paper's kernels (max 48).
    pub pending_regs: u64,
    /// In-flight global-memory instructions. Each frees its slot at its
    /// one writeback, when its last transaction returns.
    pub outstanding_mem: u32,
    /// Waiting at a block barrier.
    pub at_barrier: bool,
    /// Retired.
    pub finished: bool,
    /// Streaming-pattern position counter. Wide on purpose: the address
    /// generator advances it saturatingly, never by wrapping — a wrap would
    /// silently re-alias the stream onto already-visited lines and corrupt
    /// the hit-rate statistics (see `mem::generate_addresses`).
    pub stream_pos: u64,
    /// Tile-pattern position counter; same non-wrapping contract as
    /// [`Self::stream_pos`].
    pub tile_pos: u64,
    /// Per-warp deterministic RNG for scatter address generation.
    pub rng: XorShift64,
}

impl Warp {
    /// Fresh warp at pc 0.
    pub fn new(
        dynamic_id: u64,
        block_slot: u32,
        warp_in_block: u32,
        threads: u32,
        num_loops: usize,
        grid_block: u32,
    ) -> Self {
        Warp {
            pc: 0,
            dynamic_id,
            block_slot,
            warp_in_block,
            threads,
            loop_counters: vec![0; num_loops],
            loop_init: 0,
            pending_regs: 0,
            outstanding_mem: 0,
            at_barrier: false,
            finished: false,
            stream_pos: 0,
            tile_pos: 0,
            rng: XorShift64::new(
                0xC0FF_EE00_0000_0000 ^ (u64::from(grid_block) << 16) ^ u64::from(warp_in_block),
            ),
        }
    }

    /// Does `reg_mask` overlap a pending writeback?
    #[inline]
    pub fn has_hazard(&self, reg_mask: u64) -> bool {
        self.pending_regs & reg_mask != 0
    }

    /// Mark `reg` pending.
    #[inline]
    pub fn mark_pending(&mut self, reg: u16) {
        debug_assert!(reg < 64);
        self.pending_regs |= 1 << reg;
    }

    /// Clear `reg` on writeback; `NO_REG` clears nothing.
    #[inline]
    pub fn clear_pending(&mut self, reg: u16) {
        if reg != NO_REG {
            self.pending_regs &= !(1 << reg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoreboard_mask_roundtrip() {
        let mut w = Warp::new(0, 0, 0, 32, 2, 0);
        assert!(!w.has_hazard(1 << 5));
        w.mark_pending(5);
        assert!(w.has_hazard(1 << 5));
        assert!(w.has_hazard((1 << 5) | (1 << 9)));
        assert!(!w.has_hazard(1 << 9));
        w.clear_pending(5);
        assert!(!w.has_hazard(1 << 5));
    }

    #[test]
    fn no_reg_clear_is_noop() {
        let mut w = Warp::new(0, 0, 0, 32, 0, 0);
        w.mark_pending(3);
        w.clear_pending(NO_REG);
        assert!(w.has_hazard(1 << 3));
    }

    #[test]
    fn rng_seed_depends_on_identity() {
        let a = Warp::new(0, 0, 0, 32, 0, 1);
        let b = Warp::new(0, 0, 1, 32, 0, 1);
        let c = Warp::new(0, 0, 0, 32, 0, 2);
        assert_ne!(a.rng, b.rng);
        assert_ne!(a.rng, c.rng);
    }
}
