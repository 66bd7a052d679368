//! Per-block state and block-slot pairing.

use grs_core::PairMember;

/// How a block slot participates in sharing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pairing {
    /// Full private allocation (paper's "unshared thread block").
    Unshared,
    /// Member of shared pair `pair` (index into the SM's pair-lock table).
    Paired {
        /// Pair index.
        pair: u32,
        /// Which member of the pair.
        member: PairMember,
    },
}

/// State of one resident thread block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Global grid block id.
    pub grid_id: u32,
    /// Warps not yet retired.
    pub live_warps: u32,
    /// Warps currently waiting at the barrier.
    pub at_barrier: u32,
    /// Sharing role of the occupied slot.
    pub pairing: Pairing,
}

/// Compute the pairing of block slot `slot` in a launch plan with `unshared`
/// leading unshared slots: slots `unshared + 2i` / `unshared + 2i + 1` form
/// pair `i` as members A / B.
pub fn pairing_of_slot(slot: u32, unshared: u32) -> Pairing {
    if slot < unshared {
        Pairing::Unshared
    } else {
        let off = slot - unshared;
        Pairing::Paired {
            pair: off / 2,
            member: if off.is_multiple_of(2) {
                PairMember::A
            } else {
                PairMember::B
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_pairing_layout() {
        // U = 2, S = 2 → slots: [U, U, A0, B0, A1, B1]
        assert_eq!(pairing_of_slot(0, 2), Pairing::Unshared);
        assert_eq!(pairing_of_slot(1, 2), Pairing::Unshared);
        assert_eq!(
            pairing_of_slot(2, 2),
            Pairing::Paired {
                pair: 0,
                member: PairMember::A
            }
        );
        assert_eq!(
            pairing_of_slot(3, 2),
            Pairing::Paired {
                pair: 0,
                member: PairMember::B
            }
        );
        assert_eq!(
            pairing_of_slot(4, 2),
            Pairing::Paired {
                pair: 1,
                member: PairMember::A
            }
        );
        assert_eq!(
            pairing_of_slot(5, 2),
            Pairing::Paired {
                pair: 1,
                member: PairMember::B
            }
        );
    }

    #[test]
    fn all_unshared_when_u_covers_slots() {
        for s in 0..8 {
            assert_eq!(pairing_of_slot(s, 8), Pairing::Unshared);
        }
    }
}
