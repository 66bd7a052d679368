//! Memory address patterns.
//!
//! The paper's benchmarks are real CUDA programs; we model them (see the
//! `grs-workloads` crate docs) with synthetic kernels whose memory
//! instructions carry a *pattern* describing how the 32 lanes of a warp
//! compute addresses. The simulator's coalescer expands a pattern into
//! 128-byte line transactions, and the L1/L2 models do the rest — so the
//! cache-contention effects the paper discusses (mri-q and LIB losing
//! performance when extra shared blocks thrash L1/L2, Sec. VI-B) emerge from
//! the same mechanism as on real hardware: more resident blocks ⇒ larger
//! combined working set ⇒ more capacity misses.

use serde::{Deserialize, Serialize};

/// How a warp's lanes address **global** memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GlobalPattern {
    /// Perfectly coalesced streaming: the n-th dynamic execution of this
    /// instruction by a warp touches the n-th consecutive 128 B line of the
    /// warp's private stream. One transaction per access, no temporal reuse —
    /// the classic memory-bound pattern (MUM's output writes, stencil
    /// streams).
    Stream,
    /// Coalesced accesses that wrap around inside a *per-block tile* of
    /// `tile_lines` lines. Reuse within the tile gives L1 hits as long as the
    /// sum of resident blocks' tiles fits in L1 — the knob that reproduces
    /// "extra blocks increase L1 misses" (mri-q, LIB).
    BlockTile {
        /// Tile size in 128 B lines.
        tile_lines: u32,
    },
    /// Coalesced accesses into a tile *shared by every block of the kernel*
    /// (e.g. read-only coefficient tables). Hits in L1/L2 regardless of
    /// residency.
    KernelTile {
        /// Tile size in 128 B lines.
        tile_lines: u32,
    },
    /// Uncoalesced gather/scatter: each access produces `txns` distinct line
    /// transactions pseudo-randomly spread over a per-block span of
    /// `span_lines` lines (pointer chasing in MUM's suffix tree, b+tree node
    /// walks).
    Scatter {
        /// Span, in lines, of the per-block region addresses are drawn from.
        span_lines: u32,
        /// Transactions generated per warp access (1..=32).
        txns: u8,
    },
}

impl GlobalPattern {
    /// Number of 128 B transactions one warp-level execution generates.
    #[inline]
    pub fn transactions(self) -> u32 {
        match self {
            GlobalPattern::Stream
            | GlobalPattern::BlockTile { .. }
            | GlobalPattern::KernelTile { .. } => 1,
            GlobalPattern::Scatter { txns, .. } => txns.max(1) as u32,
        }
    }

    /// Clamped [`GlobalPattern::Scatter`] constructor: `txns` is held to the
    /// architectural 1..=32 band (one warp has 32 lanes, so a warp access
    /// can produce at most 32 distinct line transactions) and `span_lines`
    /// to at least 1. The generator frontend draws scatter shapes from
    /// seeded streams and relies on this clamp for unconditional validity.
    #[inline]
    pub fn scatter(span_lines: u32, txns: u8) -> Self {
        GlobalPattern::Scatter {
            span_lines: span_lines.max(1),
            txns: txns.clamp(1, 32),
        }
    }
}

/// How a warp addresses the **scratchpad** (shared memory).
///
/// Scratchpad addresses are *byte offsets within the owning block's
/// allocation* (`0 .. smem_per_block`). The scratchpad-sharing automaton
/// (paper Fig. 4) classifies an access as *shared* when it touches any byte
/// past the `Rtb·t` boundary, so the only property that matters to the
/// sharing runtime is the highest byte touched, [`SharedPattern::max_byte`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SharedPattern {
    /// First byte of the region this access touches.
    pub offset: u32,
    /// Number of bytes touched (the warp's lanes spread over it).
    pub bytes: u32,
}

impl SharedPattern {
    /// A warp-wide access to `bytes` bytes starting at `offset`.
    pub const fn new(offset: u32, bytes: u32) -> Self {
        SharedPattern { offset, bytes }
    }

    /// Highest byte offset touched (inclusive); compared against the sharing
    /// boundary by the Fig. 4 automaton. A range that runs past `u32::MAX`
    /// reads as `u32::MAX`, past any scratchpad size.
    #[inline]
    pub const fn max_byte(self) -> u32 {
        self.offset.saturating_add(self.bytes.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesced_patterns_are_single_transaction() {
        assert_eq!(GlobalPattern::Stream.transactions(), 1);
        assert_eq!(GlobalPattern::BlockTile { tile_lines: 8 }.transactions(), 1);
        assert_eq!(
            GlobalPattern::KernelTile { tile_lines: 8 }.transactions(),
            1
        );
    }

    #[test]
    fn scatter_transaction_count_is_clamped_to_at_least_one() {
        assert_eq!(
            GlobalPattern::Scatter {
                span_lines: 64,
                txns: 0
            }
            .transactions(),
            1
        );
        assert_eq!(
            GlobalPattern::Scatter {
                span_lines: 64,
                txns: 7
            }
            .transactions(),
            7
        );
    }

    #[test]
    fn scatter_constructor_clamps_to_the_legal_band() {
        assert_eq!(
            GlobalPattern::scatter(0, 0),
            GlobalPattern::Scatter {
                span_lines: 1,
                txns: 1
            }
        );
        assert_eq!(
            GlobalPattern::scatter(64, 200),
            GlobalPattern::Scatter {
                span_lines: 64,
                txns: 32
            }
        );
        assert_eq!(
            GlobalPattern::scatter(7, 7),
            GlobalPattern::Scatter {
                span_lines: 7,
                txns: 7
            }
        );
    }

    #[test]
    fn shared_pattern_max_byte() {
        assert_eq!(SharedPattern::new(0, 128).max_byte(), 127);
        assert_eq!(SharedPattern::new(100, 1).max_byte(), 100);
        // Zero-length access degenerates to its own offset.
        assert_eq!(SharedPattern::new(100, 0).max_byte(), 100);
        assert_eq!(SharedPattern::new(u32::MAX, 33).max_byte(), u32::MAX);
    }
}
