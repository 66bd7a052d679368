//! Pair locks for shared resources, with the barrier-deadlock avoidance rule.
//!
//! **Register sharing** (paper Sec. III-A, Fig. 3): warp *i* of block A and
//! warp *i* of block B share one register region guarded by one lock. A warp
//! accessing a register whose sequence number exceeds the `Rw·t` boundary
//! must hold its pair lock; it busy-waits (retries every cycle) otherwise.
//!
//! **Deadlock avoidance** (paper Fig. 5): with barriers, naive per-pair
//! locking deadlocks (W1 waits on W3's registers, W3 waits at a barrier for
//! W4, W4 waits on W2's registers, W2 waits at a barrier for W1). The paper's
//! rule: *a warp from block A may acquire a lock only if no warp of block B
//! currently holds a live (unfinished) lock*. Hence at any time all live lock
//! holders of a pair belong to a single block — the **owner block**.
//!
//! **Scratchpad sharing** (paper Sec. III-B, Fig. 4): one lock per block
//! pair; deadlock-free by construction.
//!
//! Locks are released when the *holder finishes* (warp exit for registers,
//! block completion for scratchpad), never earlier — that is what allows the
//! paper's future-work section to speculate about live-range-based early
//! release as an extension ([`release_early`] implements that extension,
//! disabled by default).

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

/// Outcome of a shared-register access attempt (Fig. 3 steps (c)–(e)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegAccess {
    /// Register below the `Rw·t` boundary: direct register-file access.
    Private,
    /// Shared register and the warp holds (or just acquired) its pair lock.
    Granted,
    /// Shared register, lock unavailable: retry next cycle (busy-wait).
    Blocked,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum LockSlot {
    Free,
    Held(PairMember),
}

/// Lock state for one shared *block pair* under register sharing: one lock
/// per warp index, plus the live-holder counts that implement the deadlock
/// avoidance rule, plus the owner designation used by OWF scheduling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegPairLocks {
    locks: Vec<LockSlot>,
    /// Live (unfinished) lock holders per member.
    live_held: [u32; 2],
    owner: Option<PairMember>,
}

impl RegPairLocks {
    /// Create lock state for blocks of `warps_per_block` warps.
    pub fn new(warps_per_block: usize) -> Self {
        RegPairLocks {
            locks: vec![LockSlot::Free; warps_per_block],
            live_held: [0, 0],
            owner: None,
        }
    }

    /// Does warp `warp_idx` of `member` currently hold its pair lock?
    #[inline]
    pub fn holds(&self, member: PairMember, warp_idx: usize) -> bool {
        self.locks[warp_idx] == LockSlot::Held(member)
    }

    /// Non-mutating check: would [`Self::access_shared`] succeed right now?
    /// Used by the simulator's readiness scan, which must not acquire locks
    /// for warps the scheduler may not pick.
    pub fn can_access(&self, member: PairMember, warp_idx: usize) -> bool {
        match self.locks[warp_idx] {
            LockSlot::Held(m) => m == member,
            LockSlot::Free => self.live_held[member.other().index()] == 0,
        }
    }

    /// Attempt a shared-register access by warp `warp_idx` of `member`
    /// (paper Fig. 3 steps (d)–(e)). Acquires the pair lock if permitted by
    /// the deadlock-avoidance rule; returns [`RegAccess::Blocked`] otherwise
    /// (the warp must retry in a later cycle).
    pub fn access_shared(&mut self, member: PairMember, warp_idx: usize) -> RegAccess {
        match self.locks[warp_idx] {
            LockSlot::Held(m) if m == member => RegAccess::Granted,
            LockSlot::Held(_) => RegAccess::Blocked,
            LockSlot::Free => {
                // Deadlock-avoidance: the partner block must have no live
                // lock holders (Fig. 5 rule).
                if self.live_held[member.other().index()] > 0 {
                    return RegAccess::Blocked;
                }
                self.locks[warp_idx] = LockSlot::Held(member);
                self.live_held[member.index()] += 1;
                // The member with live locks is, by the paper's definition,
                // the owner block: its partner waits on it.
                self.owner = Some(member);
                RegAccess::Granted
            }
        }
    }

    /// A warp of `member` finished execution: its shared registers are
    /// released and the partner warp may acquire them (paper Sec. III-A:
    /// "only after W20 finishes execution, W30 can access the shared
    /// registers").
    pub fn warp_finished(&mut self, member: PairMember, warp_idx: usize) {
        if self.locks[warp_idx] == LockSlot::Held(member) {
            self.locks[warp_idx] = LockSlot::Free;
            self.live_held[member.index()] -= 1;
        }
    }

    /// Early lock release for a warp that provably no longer needs its shared
    /// registers (live-range analysis) — the paper's *future work* extension
    /// (Sec. VIII). Semantically identical to [`Self::warp_finished`]; kept
    /// separate so ablations can count how often it fires.
    pub fn release_early(&mut self, member: PairMember, warp_idx: usize) {
        self.warp_finished(member, warp_idx);
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

    /// Forget ownership (used when a pair dissolves at the grid tail, when
    /// one slot will never be refilled).
    pub fn clear_owner(&mut self) {
        self.owner = None;
    }
}

/// Lock state for one shared block pair under **scratchpad** sharing: a
/// single lock at block granularity (paper Sec. III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmemPairLock {
    holder: Option<PairMember>,
    owner: Option<PairMember>,
}

impl SmemPairLock {
    /// Fresh, unheld lock.
    pub fn new() -> Self {
        SmemPairLock {
            holder: None,
            owner: None,
        }
    }

    /// Does `member` hold the scratchpad lock?
    #[inline]
    pub fn holds(&self, member: PairMember) -> bool {
        self.holder == Some(member)
    }

    /// Non-mutating check: would [`Self::access_shared`] succeed right now?
    pub fn can_access(&self, member: PairMember) -> bool {
        self.holder.is_none() || self.holder == Some(member)
    }

    /// Attempt a shared-scratchpad access by `member` (paper Fig. 4 steps
    /// (d)–(e)). The whole block acquires; the partner block busy-waits until
    /// this block completes.
    pub fn access_shared(&mut self, member: PairMember) -> RegAccess {
        match self.holder {
            Some(m) if m == member => RegAccess::Granted,
            Some(_) => RegAccess::Blocked,
            None => {
                self.holder = Some(member);
                self.owner = Some(member);
                RegAccess::Granted
            }
        }
    }

    /// The owner block, if determined.
    #[inline]
    pub fn owner(&self) -> Option<PairMember> {
        self.owner
    }

    /// `member`'s block completed: release the lock if held and transfer
    /// ownership.
    pub fn block_completed(&mut self, member: PairMember) {
        if self.holder == Some(member) {
            self.holder = None;
        }
        if self.owner == Some(member) {
            self.owner = Some(member.other());
        }
    }

    /// Forget ownership (pair dissolution at the grid tail).
    pub fn clear_owner(&mut self) {
        self.owner = None;
    }
}

impl Default for SmemPairLock {
    fn default() -> Self {
        Self::new()
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
        let mut l = RegPairLocks::new(4);
        assert_eq!(l.owner(), None);
        assert_eq!(l.access_shared(B, 2), RegAccess::Granted);
        assert_eq!(l.owner(), Some(B));
        assert!(l.holds(B, 2));
        assert_eq!(l.live_holders(B), 1);
    }

    #[test]
    fn partner_blocked_on_same_pair_lock() {
        let mut l = RegPairLocks::new(2);
        assert_eq!(l.access_shared(A, 0), RegAccess::Granted);
        assert_eq!(l.access_shared(B, 0), RegAccess::Blocked);
        // Holder re-accessing is fine (no self-blocking).
        assert_eq!(l.access_shared(A, 0), RegAccess::Granted);
    }

    #[test]
    fn deadlock_avoidance_rule_fig5() {
        // Fig. 5: W2 (block A, warp idx 1) holds shared registers; W3
        // (block B, warp idx 0) must NOT be able to acquire its own pair
        // lock even though that lock is free — otherwise the barrier
        // deadlock of Fig. 5 becomes reachable.
        let mut l = RegPairLocks::new(2);
        assert_eq!(l.access_shared(A, 1), RegAccess::Granted); // W2
        assert_eq!(l.access_shared(B, 0), RegAccess::Blocked); // W3 denied

        // Once W2 finishes, B may proceed.
        l.warp_finished(A, 1);
        assert_eq!(l.access_shared(B, 0), RegAccess::Granted);
    }

    #[test]
    fn regrants_and_denials_mutate_nothing() {
        // The simulator invalidates cached readiness only when an access
        // acquires a lock the warp did not hold; that is exact because
        // every other access leaves the lock state as it was.
        let mut l = RegPairLocks::new(2);
        l.access_shared(A, 0);
        let before = l.clone();
        assert!(l.holds(A, 0));
        assert_eq!(l.access_shared(A, 0), RegAccess::Granted);
        assert_eq!(l.access_shared(B, 0), RegAccess::Blocked);
        assert_eq!(l.access_shared(B, 1), RegAccess::Blocked);
        assert_eq!(l, before);

        let mut s = SmemPairLock::new();
        s.access_shared(B);
        let before = s;
        assert!(s.holds(B));
        assert_eq!(s.access_shared(B), RegAccess::Granted);
        assert_eq!(s.access_shared(A), RegAccess::Blocked);
        assert_eq!(s, before);
    }

    #[test]
    fn same_block_warps_may_hold_multiple_locks() {
        let mut l = RegPairLocks::new(3);
        assert_eq!(l.access_shared(A, 0), RegAccess::Granted);
        assert_eq!(l.access_shared(A, 1), RegAccess::Granted);
        assert_eq!(l.access_shared(A, 2), RegAccess::Granted);
        assert_eq!(l.live_holders(A), 3);
    }

    #[test]
    fn warp_finish_releases_exactly_its_lock() {
        let mut l = RegPairLocks::new(2);
        l.access_shared(A, 0);
        l.access_shared(A, 1);
        l.warp_finished(A, 0);
        assert!(!l.holds(A, 0));
        assert!(l.holds(A, 1));
        assert_eq!(l.live_holders(A), 1);
        // Partner still blocked by the live holder on warp 1.
        assert_eq!(l.access_shared(B, 0), RegAccess::Blocked);
        l.warp_finished(A, 1);
        assert_eq!(l.access_shared(B, 0), RegAccess::Granted);
    }

    #[test]
    fn finishing_a_nonholder_is_a_noop() {
        let mut l = RegPairLocks::new(2);
        l.access_shared(A, 0);
        l.warp_finished(B, 0); // B holds nothing
        assert!(l.holds(A, 0));
        assert_eq!(l.live_holders(A), 1);
    }

    #[test]
    fn block_completion_transfers_ownership() {
        let mut l = RegPairLocks::new(2);
        l.access_shared(A, 0);
        l.access_shared(A, 1);
        assert_eq!(l.owner(), Some(A));
        l.block_completed(A);
        assert_eq!(l.owner(), Some(B));
        assert_eq!(l.live_holders(A), 0);
        // Replacement block in slot A can acquire once B has no live locks.
        assert_eq!(l.access_shared(A, 0), RegAccess::Granted);
        assert_eq!(l.owner(), Some(A));
    }

    #[test]
    fn non_owner_completion_keeps_ownership() {
        let mut l = RegPairLocks::new(1);
        l.access_shared(A, 0);
        l.block_completed(B); // non-owner leaves
        assert_eq!(l.owner(), Some(A));
        assert!(l.holds(A, 0));
    }

    #[test]
    fn smem_lock_basics() {
        let mut l = SmemPairLock::new();
        assert_eq!(l.access_shared(B), RegAccess::Granted);
        assert_eq!(l.owner(), Some(B));
        assert_eq!(l.access_shared(A), RegAccess::Blocked);
        assert_eq!(l.access_shared(B), RegAccess::Granted);
        l.block_completed(B);
        assert_eq!(l.owner(), Some(A));
        assert_eq!(l.access_shared(A), RegAccess::Granted);
    }

    #[test]
    fn smem_clear_owner() {
        let mut l = SmemPairLock::new();
        l.access_shared(A);
        l.clear_owner();
        assert_eq!(l.owner(), None);
    }

    #[test]
    fn early_release_behaves_like_finish() {
        let mut l = RegPairLocks::new(1);
        l.access_shared(A, 0);
        l.release_early(A, 0);
        assert_eq!(l.access_shared(B, 0), RegAccess::Granted);
    }
}
