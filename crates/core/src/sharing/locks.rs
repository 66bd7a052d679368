//! The pair-lock automaton for shared resources, with the barrier-deadlock
//! avoidance rule.
//!
//! One automaton guards both resources, at two granularities:
//!
//! * **Register sharing** (paper Sec. III-A, Fig. 3): warp *i* of block A and
//!   warp *i* of block B share one register region guarded by one lock, so a
//!   pair holds one lock per warp index. A warp accessing a register whose
//!   sequence number reaches the `Rw·t` boundary must hold its lock; it
//!   busy-waits (retries every cycle) otherwise.
//! * **Scratchpad sharing** (paper Sec. III-B, Fig. 4): one lock per block
//!   pair, which every warp of a block takes in the block's name.
//!
//! **Deadlock avoidance** (paper Fig. 5): with barriers, naive per-warp
//! locking deadlocks (W1 waits on W3's registers, W3 waits at a barrier for
//! W4, W4 waits on W2's registers, W2 waits at a barrier for W1). The paper's
//! rule: *a warp from block A may acquire a lock only if no warp of block B
//! currently holds a live (unfinished) lock*. Hence at any time all live lock
//! holders of a pair belong to a single block — the **owner block**. With one
//! lock per pair the rule holds by construction.
//!
//! Locks are released when the *holder finishes*: a warp's exit releases its
//! register lock ([`PairLock::warp_finished`]), and a block's completion
//! releases whatever the block still holds, the scratchpad lock included
//! ([`PairLock::block_completed`]).

use serde::{Deserialize, Serialize};

/// Identifies a member of a shared block pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PairMember {
    /// First member (launched earlier).
    A,
    /// Second member.
    B,
}

impl PairMember {
    /// The other member.
    #[inline]
    pub fn other(self) -> Self {
        match self {
            PairMember::A => PairMember::B,
            PairMember::B => PairMember::A,
        }
    }

    /// 0 for A, 1 for B.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            PairMember::A => 0,
            PairMember::B => 1,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum LockSlot {
    Free,
    Held(PairMember),
}

/// Lock state for one shared *block pair*: its locks, the live-holder
/// counts that implement the deadlock-avoidance rule, and the owner
/// designation used by OWF scheduling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairLock {
    locks: Vec<LockSlot>,
    /// Live (unfinished) lock holders per member.
    live_held: [u32; 2],
    owner: Option<PairMember>,
}

impl PairLock {
    /// Create lock state with `locks` locks: one per warp index of a block
    /// under register sharing, one for the pair under scratchpad sharing.
    pub fn new(locks: usize) -> Self {
        PairLock {
            locks: vec![LockSlot::Free; locks],
            live_held: [0, 0],
            owner: None,
        }
    }

    /// Does `member` currently hold lock `lock`?
    #[inline]
    pub fn holds(&self, member: PairMember, lock: usize) -> bool {
        self.locks[lock] == LockSlot::Held(member)
    }

    /// Non-mutating check: would [`Self::access_shared`] succeed right now?
    /// Used by the simulator's readiness scan, which must not acquire locks
    /// for warps the scheduler may not pick.
    pub fn can_access(&self, member: PairMember, lock: usize) -> bool {
        match self.locks[lock] {
            LockSlot::Held(m) => m == member,
            LockSlot::Free => self.live_held[member.other().index()] == 0,
        }
    }

    /// Attempt a shared access by a warp of `member` that needs lock `lock`
    /// (paper Figs. 3–4 steps (d)–(e)). Acquires the lock if the
    /// deadlock-avoidance rule permits and returns whether the access is
    /// granted; a denied warp must retry in a later cycle.
    pub fn access_shared(&mut self, member: PairMember, lock: usize) -> bool {
        match self.locks[lock] {
            LockSlot::Held(m) => m == member,
            LockSlot::Free => {
                // Deadlock-avoidance: the partner block must have no live
                // lock holders (Fig. 5 rule).
                if self.live_held[member.other().index()] > 0 {
                    return false;
                }
                self.locks[lock] = LockSlot::Held(member);
                self.live_held[member.index()] += 1;
                // The member with live locks is, by the paper's definition,
                // the owner block: its partner waits on it.
                self.owner = Some(member);
                true
            }
        }
    }

    /// Warp `lock` of `member` finished execution: its shared registers are
    /// released and the partner warp may acquire them (paper Sec. III-A:
    /// "only after W20 finishes execution, W30 can access the shared
    /// registers"). Register sharing only: the scratchpad lock is the
    /// block's, released at its completion.
    pub fn warp_finished(&mut self, member: PairMember, lock: usize) {
        if self.locks[lock] == LockSlot::Held(member) {
            self.locks[lock] = LockSlot::Free;
            self.live_held[member.index()] -= 1;
        }
    }

    /// The owner block of this pair, if determined (paper Sec. IV: the block
    /// whose warps hold shared resources the partner waits for).
    #[inline]
    pub fn owner(&self) -> Option<PairMember> {
        self.owner
    }

    /// Number of live lock holders of `member`.
    #[inline]
    pub fn live_holders(&self, member: PairMember) -> u32 {
        self.live_held[member.index()]
    }

    /// `member`'s block completed: release any remaining locks, transfer
    /// ownership to the partner (paper Sec. IV: "as soon as the owner thread
    /// block finishes ... it transfers its ownership to the non-owner thread
    /// block"), and make the slot ready for a replacement block.
    pub fn block_completed(&mut self, member: PairMember) {
        for slot in &mut self.locks {
            if *slot == LockSlot::Held(member) {
                *slot = LockSlot::Free;
            }
        }
        self.live_held[member.index()] = 0;
        if self.owner == Some(member) {
            self.owner = Some(member.other());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use PairMember::{A, B};

    #[test]
    fn private_member_helpers() {
        assert_eq!(A.other(), B);
        assert_eq!(B.other(), A);
        assert_eq!(A.index(), 0);
        assert_eq!(B.index(), 1);
    }

    #[test]
    fn first_acquirer_becomes_owner() {
        let mut l = PairLock::new(4);
        assert_eq!(l.owner(), None);
        assert!(l.access_shared(B, 2));
        assert_eq!(l.owner(), Some(B));
        assert!(l.holds(B, 2));
        assert_eq!(l.live_holders(B), 1);
    }

    #[test]
    fn partner_blocked_on_same_pair_lock() {
        let mut l = PairLock::new(2);
        assert!(l.access_shared(A, 0));
        assert!(!l.access_shared(B, 0));
        // Holder re-accessing is fine (no self-blocking).
        assert!(l.access_shared(A, 0));
    }

    #[test]
    fn deadlock_avoidance_rule_fig5() {
        // Fig. 5: W2 (block A, warp idx 1) holds shared registers; W3
        // (block B, warp idx 0) must NOT be able to acquire its own pair
        // lock even though that lock is free — otherwise the barrier
        // deadlock of Fig. 5 becomes reachable.
        let mut l = PairLock::new(2);
        assert!(l.access_shared(A, 1)); // W2
        assert!(!l.access_shared(B, 0)); // W3 denied

        // Once W2 finishes, B may proceed.
        l.warp_finished(A, 1);
        assert!(l.access_shared(B, 0));
    }

    #[test]
    fn regrants_and_denials_mutate_nothing() {
        // The simulator invalidates cached readiness only when an access
        // acquires a lock the warp did not hold; that is exact because
        // every other access leaves the lock state as it was.
        for locks in [1, 2] {
            let mut l = PairLock::new(locks);
            l.access_shared(A, 0);
            let before = l.clone();
            assert!(l.holds(A, 0));
            assert!(l.access_shared(A, 0));
            for lock in 0..locks {
                assert!(!l.access_shared(B, lock));
            }
            assert_eq!(l, before);
        }
    }

    #[test]
    fn same_block_warps_may_hold_multiple_locks() {
        let mut l = PairLock::new(3);
        assert!(l.access_shared(A, 0));
        assert!(l.access_shared(A, 1));
        assert!(l.access_shared(A, 2));
        assert_eq!(l.live_holders(A), 3);
    }

    #[test]
    fn warp_finish_releases_exactly_its_lock() {
        let mut l = PairLock::new(2);
        l.access_shared(A, 0);
        l.access_shared(A, 1);
        l.warp_finished(A, 0);
        assert!(!l.holds(A, 0));
        assert!(l.holds(A, 1));
        assert_eq!(l.live_holders(A), 1);
        // Partner still blocked by the live holder on warp 1.
        assert!(!l.access_shared(B, 0));
        l.warp_finished(A, 1);
        assert!(l.access_shared(B, 0));
    }

    #[test]
    fn finishing_a_nonholder_is_a_noop() {
        let mut l = PairLock::new(2);
        l.access_shared(A, 0);
        l.warp_finished(B, 0); // B holds nothing
        assert!(l.holds(A, 0));
        assert_eq!(l.live_holders(A), 1);
    }

    #[test]
    fn block_completion_transfers_ownership() {
        let mut l = PairLock::new(2);
        l.access_shared(A, 0);
        l.access_shared(A, 1);
        assert_eq!(l.owner(), Some(A));
        l.block_completed(A);
        assert_eq!(l.owner(), Some(B));
        assert_eq!(l.live_holders(A), 0);
        // Replacement block in slot A can acquire once B has no live locks.
        assert!(l.access_shared(A, 0));
        assert_eq!(l.owner(), Some(A));
    }

    #[test]
    fn non_owner_completion_keeps_ownership() {
        let mut l = PairLock::new(1);
        l.access_shared(A, 0);
        l.block_completed(B); // non-owner leaves
        assert_eq!(l.owner(), Some(A));
        assert!(l.holds(A, 0));
    }

    #[test]
    fn one_lock_guards_the_whole_pair() {
        // Scratchpad sharing: every warp of a block takes lock 0 in the
        // block's name, and the partner waits until the block completes.
        let mut l = PairLock::new(1);
        assert!(l.access_shared(B, 0));
        assert_eq!(l.owner(), Some(B));
        assert!(!l.access_shared(A, 0));
        assert!(l.access_shared(B, 0));
        assert_eq!(l.live_holders(B), 1);
        l.block_completed(B);
        assert_eq!(l.owner(), Some(A));
        assert!(l.access_shared(A, 0));
    }
}
