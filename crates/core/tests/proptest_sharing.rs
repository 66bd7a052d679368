//! Property tests for the sharing runtime: lock mutual exclusion, the
//! deadlock-avoidance invariant, ownership transfer, and scheduler contracts.
//! The lock properties run at both granularities of the pair lock: one lock
//! per warp index (register sharing) and one lock per pair (scratchpad
//! sharing).

use grs_core::sched::unit_slots;
use grs_core::{PairLock, PairMember, Scheduler, SchedulerKind, SlotView};
use proptest::prelude::*;

/// An operation on a pair's locks; `lock` is taken modulo the lock count.
#[derive(Debug, Clone)]
enum LockOp {
    Access { member: bool, lock: usize },
    Finish { member: bool, lock: usize },
    CompleteBlock { member: bool },
}

/// Locks of a register-sharing pair of eight-warp blocks.
const WARP_LOCKS: usize = 8;

/// A pair's lock count: one per warp index or one for the pair.
fn lock_count() -> impl Strategy<Value = usize> {
    any::<bool>().prop_map(|per_warp| if per_warp { WARP_LOCKS } else { 1 })
}

fn lock_ops() -> impl Strategy<Value = Vec<LockOp>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<bool>(), 0..WARP_LOCKS).prop_map(|(m, lock)| LockOp::Access { member: m, lock }),
            (any::<bool>(), 0..WARP_LOCKS).prop_map(|(m, lock)| LockOp::Finish { member: m, lock }),
            any::<bool>().prop_map(|m| LockOp::CompleteBlock { member: m }),
        ],
        1..200,
    )
}

fn member(b: bool) -> PairMember {
    if b {
        PairMember::A
    } else {
        PairMember::B
    }
}

/// A pair lock of `n` locks after the accesses among `ops`.
fn accessed(n: usize, ops: &[LockOp]) -> PairLock {
    let mut locks = PairLock::new(n);
    for op in ops {
        if let LockOp::Access { member: m, lock } = *op {
            locks.access_shared(member(m), lock % n);
        }
    }
    locks
}

proptest! {
    /// At any point, live lock holders belong to a single block — the
    /// invariant that makes the Fig. 5 barrier deadlock unreachable.
    #[test]
    fn live_holders_always_single_block(n in lock_count(), ops in lock_ops()) {
        let mut locks = PairLock::new(n);
        for op in ops {
            match op {
                LockOp::Access { member: m, lock } => { locks.access_shared(member(m), lock % n); }
                LockOp::Finish { member: m, lock } => locks.warp_finished(member(m), lock % n),
                LockOp::CompleteBlock { member: m } => locks.block_completed(member(m)),
            }
            let a = locks.live_holders(PairMember::A);
            let b = locks.live_holders(PairMember::B);
            prop_assert!(a == 0 || b == 0, "both blocks hold live locks: A={a} B={b}");
        }
    }

    /// A granted access means the partner is denied on the same lock.
    #[test]
    fn mutual_exclusion_per_warp_pair(
        n in lock_count(),
        ops in lock_ops(),
        probe in 0..WARP_LOCKS,
    ) {
        let locks = accessed(n, &ops);
        let probe = probe % n;
        let a = locks.holds(PairMember::A, probe);
        let b = locks.holds(PairMember::B, probe);
        prop_assert!(!(a && b), "both members hold lock {probe}");
    }

    /// `can_access` exactly predicts `access_shared` (peek soundness).
    #[test]
    fn peek_matches_acquire(
        n in lock_count(),
        ops in lock_ops(),
        m in any::<bool>(),
        l in 0..WARP_LOCKS,
    ) {
        let mut locks = accessed(n, &ops);
        let predicted = locks.can_access(member(m), l % n);
        prop_assert_eq!(predicted, locks.access_shared(member(m), l % n));
    }

    /// A one-lock pair (scratchpad sharing) never reports two concurrent
    /// holders, and its peek is sound.
    #[test]
    fn smem_lock_exclusive(accessors in proptest::collection::vec(any::<bool>(), 1..50)) {
        let mut lock = PairLock::new(1);
        for m in accessors {
            let predicted = lock.can_access(member(m), 0);
            prop_assert_eq!(predicted, lock.access_shared(member(m), 0));
            prop_assert!(!(lock.holds(PairMember::A, 0) && lock.holds(PairMember::B, 0)));
        }
    }
}

/// A random SM view: per slot, a dynamic id, an OWF class and readiness;
/// every slot listed.
#[derive(Debug, Clone)]
struct Slots {
    ids: Vec<u64>,
    ready: u64,
    owner: u64,
    non_owner: u64,
}

impl Slots {
    fn view(&self) -> SlotView<'_> {
        SlotView {
            listed: (1u64 << self.ids.len()) - 1,
            ready: self.ready,
            owner: self.owner,
            non_owner: self.non_owner,
            dynamic_ids: &self.ids,
        }
    }
}

fn arb_slots() -> impl Strategy<Value = Slots> {
    proptest::collection::vec((0u64..100, 0u8..3, any::<bool>()), 1..24).prop_map(|entries| {
        let mut slots = Slots {
            ids: Vec::with_capacity(entries.len()),
            ready: 0,
            owner: 0,
            non_owner: 0,
        };
        for (slot, (id, class, ready)) in entries.into_iter().enumerate() {
            slots.ids.push(id);
            slots.ready |= u64::from(ready) << slot;
            match class {
                0 => slots.owner |= 1 << slot,
                1 => {}
                _ => slots.non_owner |= 1 << slot,
            }
        }
        slots
    })
}

proptest! {
    /// Every scheduler only ever picks a ready warp in its own partition,
    /// and picks None iff no such warp exists.
    #[test]
    fn schedulers_pick_ready_warps_in_partition(
        slots in arb_slots(),
        kind in prop_oneof![
            Just(SchedulerKind::Lrr),
            Just(SchedulerKind::Gto),
            Just(SchedulerKind::TwoLevel { group_size: 4 }),
            Just(SchedulerKind::Owf),
        ],
        rounds in 1usize..8,
    ) {
        let units = 2;
        let n = slots.ids.len();
        let mut sched: Scheduler = kind.build(n, units);
        let masks = unit_slots(n, units);
        for _ in 0..rounds {
            for (unit, &mine) in masks.iter().enumerate() {
                let pick = sched.pick(unit, mine, &slots.view());
                let any_candidate = slots.ready & mine != 0;
                match pick {
                    Some(slot) => {
                        prop_assert!(slots.ready >> slot & 1 == 1, "{kind:?} picked non-ready warp");
                        prop_assert_eq!(slot % units, unit, "scheduler {:?} violated partition", kind);
                    }
                    None => prop_assert!(!any_candidate, "{kind:?} missed a ready warp"),
                }
            }
        }
    }

    /// OWF never picks a lower class while a strictly higher class is ready
    /// (owner > unshared > non-owner, paper Sec. IV-A).
    #[test]
    fn owf_respects_class_priority(slots in arb_slots()) {
        let n = slots.ids.len();
        let mut sched = SchedulerKind::Owf.build(n, 1);
        let view = slots.view();
        if let Some(slot) = sched.pick(0, unit_slots(n, 1)[0], &view) {
            let best_rank = (0..n)
                .filter(|&s| slots.ready >> s & 1 == 1)
                .map(|s| view.class(s).rank())
                .min()
                .unwrap();
            prop_assert_eq!(view.class(slot).rank(), best_rank);
        }
    }
}
