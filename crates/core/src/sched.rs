//! Warp-scheduling policies.
//!
//! Each SM has `SmConfig::schedulers` scheduler units; warps are statically
//! partitioned among them by slot index (GPGPU-Sim's arrangement). Every
//! cycle each unit picks at most one *ready* warp. The policies:
//!
//! * **LRR** — loose round robin, the paper's baseline (Table I).
//! * **GTO** — greedy-then-oldest: keep issuing the same warp until it
//!   stalls, then fall back to the oldest ready warp (by dynamic id).
//! * **Two-Level** — Narasiman et al.'s fetch groups: round robin inside an
//!   active group, switch groups when the active group has no ready warp.
//! * **OWF** — the paper's Owner-Warp-First (Sec. IV-A): strict priority
//!   *owner > unshared > non-owner*, ties broken by dynamic warp id. With no
//!   sharing active every warp is unshared, so OWF degenerates to
//!   oldest-first — which is why the paper observes Shared-OWF ≈
//!   Unshared-GTO on Set-3 (Sec. VI-B2).

use serde::{Deserialize, Serialize};

/// Scheduling class of a warp under resource sharing (paper Sec. IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum WarpClass {
    /// Warp of an owner block (holds shared resources): highest priority —
    /// finishing it unblocks its dependent non-owner warps.
    Owner,
    /// Warp of an unshared block.
    Unshared,
    /// Warp of a non-owner shared block: lowest priority, used to fill
    /// stall cycles only.
    NonOwner,
}

impl WarpClass {
    /// OWF priority rank; lower is scheduled first.
    #[inline]
    pub fn rank(self) -> u8 {
        match self {
            WarpClass::Owner => 0,
            WarpClass::Unshared => 1,
            WarpClass::NonOwner => 2,
        }
    }
}

/// Most warp slots an SM may have: a [`SlotView`] keeps one bit per slot in
/// a `u64`. Table I's SM has 48.
pub const MAX_WARP_SLOTS: usize = 64;

/// A scheduler's per-cycle view of an SM's warp slots, as bit masks: bit
/// `s` stands for warp slot `s`.
#[derive(Debug, Clone, Copy)]
pub struct SlotView<'a> {
    /// The view list: the slots that held a live warp when the view was
    /// last rebuilt. LRR's rotation pointer is a position in this list: it
    /// is kept as a slot of the list it was set in, and a pick that sees a
    /// different list moves it to the same position in the new one, so a
    /// warp that exits or a block that refills between rebuilds does not
    /// move it.
    pub listed: u64,
    /// Listed slots that can issue this cycle.
    pub ready: u64,
    /// Listed slots of owner blocks ([`WarpClass::Owner`]).
    pub owner: u64,
    /// Listed slots of non-owner blocks ([`WarpClass::NonOwner`]). Slots in
    /// neither class mask are [`WarpClass::Unshared`].
    pub non_owner: u64,
    /// Monotonic launch-order id per slot ("dynamic warp id"); smaller =
    /// older.
    pub dynamic_ids: &'a [u64],
}

impl SlotView<'_> {
    /// Sharing class of `slot` for OWF.
    #[inline]
    pub fn class(&self, slot: usize) -> WarpClass {
        if has(self.owner, slot) {
            WarpClass::Owner
        } else if has(self.non_owner, slot) {
            WarpClass::NonOwner
        } else {
            WarpClass::Unshared
        }
    }

    /// The oldest slot (smallest dynamic id) in `mask`; the lowest slot
    /// wins a tie.
    fn oldest(&self, mut mask: u64) -> Option<usize> {
        let mut best: Option<usize> = None;
        while mask != 0 {
            let slot = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if best.is_none_or(|b| self.dynamic_ids[slot] < self.dynamic_ids[b]) {
                best = Some(slot);
            }
        }
        best
    }
}

/// The constant slot mask of each of `units` scheduler units on an SM with
/// `num_slots` warp slots (at most [`MAX_WARP_SLOTS`]): unit `u` owns the
/// slots with `slot % units == u`.
pub fn unit_slots(num_slots: usize, units: usize) -> Vec<u64> {
    debug_assert!(num_slots <= MAX_WARP_SLOTS);
    let mut masks = vec![0u64; units];
    for slot in 0..num_slots {
        masks[slot % units] |= 1 << slot;
    }
    masks
}

/// Is `slot` set in `mask`?
#[inline]
fn has(mask: u64, slot: usize) -> bool {
    slot < MAX_WARP_SLOTS && mask >> slot & 1 == 1
}

/// The slots below `slot`.
#[inline]
fn below(slot: usize) -> u64 {
    if slot >= MAX_WARP_SLOTS {
        u64::MAX
    } else {
        (1 << slot) - 1
    }
}

/// The lowest slot in `mask`.
#[inline]
fn lowest(mask: u64) -> Option<usize> {
    (mask != 0).then(|| mask.trailing_zeros() as usize)
}

/// The `n`-th lowest slot in `mask` (which holds more than `n` slots).
#[inline]
fn nth_slot(mut mask: u64, mut n: u32) -> usize {
    debug_assert!(n < mask.count_ones());
    let mut base = 0;
    for width in [32, 16, 8, 4, 2, 1] {
        let low = mask & ((1u64 << width) - 1);
        let count = low.count_ones();
        if n >= count {
            n -= count;
            mask >>= width;
            base += width;
        } else {
            mask = low;
        }
    }
    base
}

/// Which scheduling policy to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Loose round robin (baseline).
    Lrr,
    /// Greedy-then-oldest.
    Gto,
    /// Two-level with the given fetch-group size (paper uses 8).
    TwoLevel {
        /// Warps per fetch group.
        group_size: u32,
    },
    /// Owner-warp-first (the paper's optimization).
    Owf,
}

impl SchedulerKind {
    /// Canonical name used in figures and reports.
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Lrr => "LRR",
            SchedulerKind::Gto => "GTO",
            SchedulerKind::TwoLevel { .. } => "2LV",
            SchedulerKind::Owf => "OWF",
        }
    }

    /// Instantiate per-unit state for an SM with `num_slots` warp slots and
    /// `units` scheduler units.
    pub fn build(self, num_slots: usize, units: usize) -> Scheduler {
        match self {
            SchedulerKind::Lrr => Scheduler::Lrr {
                start: vec![(0, 0); units],
            },
            SchedulerKind::Gto => Scheduler::Gto {
                last: vec![None; units],
            },
            SchedulerKind::TwoLevel { group_size } => Scheduler::TwoLevel {
                group_size: group_size.max(1) as usize,
                active_group: vec![0; units],
                next_in_group: vec![0; units],
                num_slots,
            },
            SchedulerKind::Owf => Scheduler::Owf {
                last: vec![None; units],
            },
        }
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Scheduler state (one instance per SM; internal vectors are per unit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scheduler {
    /// Loose round robin: rotate a pointer over the view list.
    Lrr {
        /// Per unit, the listed slot to consider first and the view list
        /// ([`SlotView::listed`]) it was set in (0 before the first pick,
        /// with the slot at position 0). The slot's position in that list
        /// is the rotation pointer.
        start: Vec<(usize, u64)>,
    },
    /// Greedy-then-oldest.
    Gto {
        /// Last issued slot, per unit.
        last: Vec<Option<usize>>,
    },
    /// Two-level warp scheduling.
    TwoLevel {
        /// Fetch-group size in warps.
        group_size: usize,
        /// Active group per unit.
        active_group: Vec<usize>,
        /// RR pointer within the active group, per unit.
        next_in_group: Vec<usize>,
        /// Total SM warp slots.
        num_slots: usize,
    },
    /// Owner-warp-first: strict class priority, greedy within a class (so
    /// that with no sharing active it degenerates to GTO, as the paper
    /// observes on Set-3).
    Owf {
        /// Last issued slot, per unit.
        last: Vec<Option<usize>>,
    },
}

impl Scheduler {
    /// Per-cycle bookkeeping for a cycle in which the readiness scan found
    /// no issuable warp: exactly the state transitions [`Self::pick`] would
    /// make for every unit over an all-unready view, without the per-unit
    /// view walks. Greedy policies (GTO, OWF) lose their streak — the
    /// greedy warp stalled — while the rotation pointers of LRR and
    /// Two-Level stay put, as `pick` only advances them on a successful
    /// pick. Because a second ready-less cycle is a no-op for every policy,
    /// the fast-forward engine can skip such cycles without touching
    /// scheduler state at all.
    pub fn note_idle_cycle(&mut self) {
        match self {
            Scheduler::Lrr { .. } | Scheduler::TwoLevel { .. } => {}
            Scheduler::Gto { last } | Scheduler::Owf { last } => {
                for l in last.iter_mut() {
                    *l = None;
                }
            }
        }
    }

    /// Pick a ready warp for scheduler `unit`, which owns the slots in
    /// `unit_slots` (see [`unit_slots`]), and return its slot.
    pub fn pick(&mut self, unit: usize, unit_slots: u64, view: &SlotView) -> Option<usize> {
        let cand = view.ready & view.listed & unit_slots;
        match self {
            Scheduler::Lrr { start } => {
                if cand == 0 {
                    return None;
                }
                let (first, list) = &mut start[unit];
                if *list != view.listed {
                    // A rebuild changed the list: start from the same
                    // position in the new one, wrapping around.
                    let pos = (*list & below(*first)).count_ones();
                    *first = nth_slot(view.listed, pos % view.listed.count_ones());
                    *list = view.listed;
                }
                // Rotate from the start slot, wrapping around; the next
                // rotation starts at the listed slot after the pick.
                let slot = lowest(cand & !below(*first)).or(lowest(cand))?;
                *first = lowest(view.listed & !below(slot + 1)).or(lowest(view.listed))?;
                Some(slot)
            }
            Scheduler::Gto { last } => {
                if let Some(slot) = last[unit] {
                    if has(cand, slot) {
                        return Some(slot);
                    }
                }
                let pick = view.oldest(cand);
                last[unit] = pick;
                pick
            }
            Scheduler::TwoLevel {
                group_size,
                active_group,
                next_in_group,
                num_slots,
            } => {
                if cand == 0 {
                    return None;
                }
                let size = *group_size;
                let group_range = |g: usize| (g * size, ((g + 1) * size).min(*num_slots));
                // The active group resumes its round robin at its pointer.
                let (lo, hi) = group_range(active_group[unit]);
                let in_active = cand & below(hi) & !below(lo);
                let slot = if in_active != 0 {
                    let start = lo + next_in_group[unit] % (hi - lo);
                    lowest(in_active & !below(start)).or(lowest(in_active))?
                } else {
                    // Then the other groups in rotation order, each freshly
                    // entered at its beginning: the first ready slot above
                    // the active group, else the first one below it.
                    lowest(cand & !below(hi)).or(lowest(cand & below(lo)))?
                };
                let g = slot / size;
                let (lo, hi) = group_range(g);
                active_group[unit] = g;
                next_in_group[unit] = (slot - lo + 1) % (hi - lo);
                Some(slot)
            }
            Scheduler::Owf { last } => {
                // Strict class priority, oldest first within the class.
                let owners = cand & view.owner;
                let unshared = cand & !view.owner & !view.non_owner;
                let (tier, rank) = if owners != 0 {
                    (owners, WarpClass::Owner.rank())
                } else if unshared != 0 {
                    (unshared, WarpClass::Unshared.rank())
                } else {
                    (cand, WarpClass::NonOwner.rank())
                };
                let Some(best) = view.oldest(tier) else {
                    // The greedy warp lost its streak; forget it so the next
                    // pick falls to the oldest ready warp (matching GTO's
                    // behaviour when everything stalls).
                    last[unit] = None;
                    return None;
                };
                // Greedy within the best class: keep issuing the previously
                // chosen warp while it stays ready and no higher class shows
                // up.
                if let Some(slot) = last[unit] {
                    if has(cand, slot) && view.class(slot).rank() <= rank {
                        return Some(slot);
                    }
                }
                last[unit] = Some(best);
                Some(best)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A scheduler's view of one warp slot, as the slice-based model takes
    /// it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct WarpView {
        slot: usize,
        dynamic_id: u64,
        class: WarpClass,
        ready: bool,
    }

    /// The model's scheduler state: for LRR a rotation pointer kept as a
    /// position in the view list, for the other policies the state of the
    /// mask pick itself.
    #[derive(Debug)]
    enum Model {
        Lrr { next: Vec<usize> },
        Other(Scheduler),
    }

    impl Model {
        fn build(kind: SchedulerKind, num_slots: usize, units: usize) -> Self {
            match kind {
                SchedulerKind::Lrr => Model::Lrr {
                    next: vec![0; units],
                },
                _ => Model::Other(kind.build(num_slots, units)),
            }
        }
    }

    /// The slice-based pick the mask pick replaced: the model it must
    /// equal. `views` is the view list, sorted by slot; unit `unit` owns
    /// the slots with `slot % units == unit`.
    fn model_pick(
        model: &mut Model,
        unit: usize,
        units: usize,
        views: &[WarpView],
    ) -> Option<usize> {
        debug_assert!(views.windows(2).all(|w| w[0].slot < w[1].slot));
        let mine = |v: &WarpView| v.slot % units == unit;
        let sched = match model {
            Model::Lrr { next } => {
                let n = views.len();
                if n == 0 {
                    return None;
                }
                let start = next[unit] % n;
                for off in 0..n {
                    let v = &views[(start + off) % n];
                    if mine(v) && v.ready {
                        next[unit] = (start + off + 1) % n;
                        return Some(v.slot);
                    }
                }
                return None;
            }
            Model::Other(sched) => sched,
        };
        match sched {
            Scheduler::Lrr { .. } => unreachable!("the model keeps LRR's pointer itself"),
            Scheduler::Gto { last } => {
                if let Some(slot) = last[unit] {
                    if let Some(v) = views.iter().find(|v| v.slot == slot) {
                        if v.ready && mine(v) {
                            return Some(slot);
                        }
                    }
                }
                let pick = views
                    .iter()
                    .filter(|v| mine(v) && v.ready)
                    .min_by_key(|v| v.dynamic_id)
                    .map(|v| v.slot);
                last[unit] = pick;
                pick
            }
            Scheduler::TwoLevel {
                group_size,
                active_group,
                next_in_group,
                num_slots,
            } => {
                if *num_slots == 0 {
                    return None;
                }
                let groups = num_slots.div_ceil(*group_size).max(1);
                for g_off in 0..groups {
                    let g = (active_group[unit] + g_off) % groups;
                    let lo = g * *group_size;
                    let hi = (lo + *group_size).min(*num_slots);
                    let width = hi.saturating_sub(lo);
                    if width == 0 {
                        continue;
                    }
                    let start = if g == active_group[unit] {
                        next_in_group[unit] % width
                    } else {
                        0
                    };
                    for off in 0..width {
                        let slot = lo + (start + off) % width;
                        if let Some(v) = views.iter().find(|v| v.slot == slot) {
                            if mine(v) && v.ready {
                                active_group[unit] = g;
                                next_in_group[unit] = ((slot - lo) + 1) % width;
                                return Some(slot);
                            }
                        }
                    }
                }
                None
            }
            Scheduler::Owf { last } => {
                let best = views
                    .iter()
                    .filter(|v| mine(v) && v.ready)
                    .min_by_key(|v| (v.class.rank(), v.dynamic_id));
                let Some(best) = best else {
                    last[unit] = None;
                    return None;
                };
                if let Some(slot) = last[unit] {
                    if let Some(v) = views.iter().find(|v| v.slot == slot) {
                        if v.ready && mine(v) && v.class.rank() <= best.class.rank() {
                            return Some(slot);
                        }
                    }
                }
                last[unit] = Some(best.slot);
                Some(best.slot)
            }
        }
    }

    /// Slot masks plus per-slot ids for the mask pick.
    struct Masks {
        listed: u64,
        ready: u64,
        owner: u64,
        non_owner: u64,
        ids: Vec<u64>,
    }

    impl Masks {
        /// `ready[s]` for slots `0..ready.len()`, all listed and unshared,
        /// with dynamic id = slot.
        fn unshared(ready: &[bool]) -> Self {
            let listed = below(ready.len());
            let ready = ready
                .iter()
                .enumerate()
                .filter(|(_, &r)| r)
                .fold(0, |m, (s, _)| m | 1 << s);
            Masks {
                listed,
                ready,
                owner: 0,
                non_owner: 0,
                ids: (0..listed.count_ones() as u64).collect(),
            }
        }

        /// One listed, ready slot per entry of `(dynamic id, class)`.
        fn classed(warps: &[(u64, WarpClass)]) -> Self {
            let mut m = Masks::unshared(&vec![true; warps.len()]);
            for (slot, &(id, class)) in warps.iter().enumerate() {
                m.ids[slot] = id;
                match class {
                    WarpClass::Owner => m.owner |= 1 << slot,
                    WarpClass::NonOwner => m.non_owner |= 1 << slot,
                    WarpClass::Unshared => {}
                }
            }
            m
        }

        fn set_ready(&mut self, slot: usize, ready: bool) {
            if ready {
                self.ready |= 1 << slot;
            } else {
                self.ready &= !(1 << slot);
            }
        }

        fn view(&self) -> SlotView<'_> {
            SlotView {
                listed: self.listed,
                ready: self.ready,
                owner: self.owner,
                non_owner: self.non_owner,
                dynamic_ids: &self.ids,
            }
        }

        /// The same view as the model's slice.
        fn views(&self) -> Vec<WarpView> {
            let view = self.view();
            (0..MAX_WARP_SLOTS)
                .filter(|&s| has(self.listed, s))
                .map(|slot| WarpView {
                    slot,
                    dynamic_id: self.ids[slot],
                    class: view.class(slot),
                    ready: has(self.ready, slot),
                })
                .collect()
        }
    }

    /// Pick for `unit` of `units` on an SM of `num_slots` slots.
    fn pick(
        s: &mut Scheduler,
        unit: usize,
        units: usize,
        num_slots: usize,
        m: &Masks,
    ) -> Option<usize> {
        s.pick(unit, unit_slots(num_slots, units)[unit], &m.view())
    }

    #[test]
    fn lrr_rotates() {
        let mut s = SchedulerKind::Lrr.build(4, 1);
        let m = Masks::unshared(&[true, true, true, true]);
        for want in [0, 1, 2, 3, 0] {
            assert_eq!(pick(&mut s, 0, 1, 4, &m), Some(want));
        }
    }

    #[test]
    fn lrr_skips_unready() {
        let mut s = SchedulerKind::Lrr.build(4, 1);
        let m = Masks::unshared(&[false, true, false, true]);
        for want in [1, 3, 1] {
            assert_eq!(pick(&mut s, 0, 1, 4, &m), Some(want));
        }
    }

    #[test]
    fn lrr_partitions_by_unit() {
        let mut s = SchedulerKind::Lrr.build(4, 2);
        let m = Masks::unshared(&[true, true, true, true]);
        // Unit 0 owns even slots, unit 1 odd slots.
        assert_eq!(pick(&mut s, 0, 2, 4, &m), Some(0));
        assert_eq!(pick(&mut s, 1, 2, 4, &m), Some(1));
        assert_eq!(pick(&mut s, 0, 2, 4, &m), Some(2));
        assert_eq!(pick(&mut s, 1, 2, 4, &m), Some(3));
    }

    #[test]
    fn gto_is_greedy() {
        let mut s = SchedulerKind::Gto.build(3, 1);
        let mut m = Masks::unshared(&[true, true, true]);
        assert_eq!(pick(&mut s, 0, 1, 3, &m), Some(0)); // oldest
        assert_eq!(pick(&mut s, 0, 1, 3, &m), Some(0)); // greedy
        m.set_ready(0, false);
        assert_eq!(pick(&mut s, 0, 1, 3, &m), Some(1)); // falls to next oldest
        m.set_ready(0, true);
        assert_eq!(pick(&mut s, 0, 1, 3, &m), Some(1)); // stays greedy on 1
    }

    #[test]
    fn gto_picks_oldest_by_dynamic_id_not_slot() {
        let mut s = SchedulerKind::Gto.build(3, 1);
        let u = WarpClass::Unshared;
        let m = Masks::classed(&[(30, u), (10, u), (20, u)]);
        assert_eq!(pick(&mut s, 0, 1, 3, &m), Some(1));
    }

    #[test]
    fn owf_priority_order() {
        let mut s = SchedulerKind::Owf.build(3, 1);
        let (n, u, o) = (WarpClass::NonOwner, WarpClass::Unshared, WarpClass::Owner);
        let mut m = Masks::classed(&[(0, n), (1, u), (2, o)]);
        assert_eq!(pick(&mut s, 0, 1, 3, &m), Some(2)); // owner first
        m.set_ready(2, false);
        assert_eq!(pick(&mut s, 0, 1, 3, &m), Some(1)); // then unshared
        m.set_ready(1, false);
        assert_eq!(pick(&mut s, 0, 1, 3, &m), Some(0)); // non-owner fills stalls
    }

    #[test]
    fn owf_ties_break_by_dynamic_id() {
        let mut s = SchedulerKind::Owf.build(2, 1);
        let u = WarpClass::Unshared;
        let m = Masks::classed(&[(9, u), (3, u)]);
        assert_eq!(pick(&mut s, 0, 1, 2, &m), Some(1));
    }

    #[test]
    fn two_level_stays_in_group_then_switches() {
        let mut s = SchedulerKind::TwoLevel { group_size: 2 }.build(4, 1);
        let mut m = Masks::unshared(&[true, true, true, true]);
        // Group 0 = slots {0,1}: round robin inside.
        for want in [0, 1, 0] {
            assert_eq!(pick(&mut s, 0, 1, 4, &m), Some(want));
        }
        // Group 0 all stalled → switch to group 1.
        m.set_ready(0, false);
        m.set_ready(1, false);
        assert_eq!(pick(&mut s, 0, 1, 4, &m), Some(2));
        assert_eq!(pick(&mut s, 0, 1, 4, &m), Some(3));
        // Group 0 wakes up but group 1 is active and still ready.
        m.set_ready(0, true);
        assert_eq!(pick(&mut s, 0, 1, 4, &m), Some(2));
    }

    #[test]
    fn note_idle_cycle_matches_pick_on_unready_views() {
        // The fast-forward engine relies on two properties per policy:
        // (1) one ready-less cycle leaves the same state as `pick` on an
        //     all-unready view for every unit, and
        // (2) further ready-less cycles are no-ops (so they can be skipped).
        for kind in [
            SchedulerKind::Lrr,
            SchedulerKind::Gto,
            SchedulerKind::TwoLevel { group_size: 2 },
            SchedulerKind::Owf,
        ] {
            let mut via_pick = kind.build(4, 2);
            let mut via_note = kind.build(4, 2);
            // Build up some state with a ready phase.
            let ready = Masks::unshared(&[true, true, true, true]);
            for unit in 0..2 {
                assert_eq!(
                    pick(&mut via_pick, unit, 2, 4, &ready),
                    pick(&mut via_note, unit, 2, 4, &ready)
                );
            }
            // One all-unready cycle, both ways.
            let unready = Masks::unshared(&[false, false, false, false]);
            for unit in 0..2 {
                assert_eq!(pick(&mut via_pick, unit, 2, 4, &unready), None);
            }
            via_note.note_idle_cycle();
            assert_eq!(via_pick, via_note, "{kind:?}");
            // A second unready cycle must be a no-op.
            for unit in 0..2 {
                assert_eq!(pick(&mut via_pick, unit, 2, 4, &unready), None);
            }
            assert_eq!(via_pick, via_note, "{kind:?}");
        }
    }

    #[test]
    fn empty_view_yields_none() {
        for kind in [
            SchedulerKind::Lrr,
            SchedulerKind::Gto,
            SchedulerKind::TwoLevel { group_size: 8 },
            SchedulerKind::Owf,
        ] {
            let mut s = kind.build(0, 2);
            let m = Masks::unshared(&[]);
            assert_eq!(pick(&mut s, 0, 2, 0, &m), None);
            assert_eq!(pick(&mut s, 1, 2, 0, &m), None);
        }
    }

    #[test]
    fn nth_slot_selects_by_rank() {
        let mask = 0b1011_0100u64 | 1 << 63;
        let want = [2, 4, 5, 7, 63];
        for (n, &slot) in want.iter().enumerate() {
            assert_eq!(nth_slot(mask, n as u32), slot);
        }
        assert_eq!(nth_slot(u64::MAX, 40), 40);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SchedulerKind::Lrr.name(), "LRR");
        assert_eq!(SchedulerKind::Gto.name(), "GTO");
        assert_eq!(SchedulerKind::TwoLevel { group_size: 8 }.name(), "2LV");
        assert_eq!(SchedulerKind::Owf.name(), "OWF");
    }

    /// xorshift64, the random source of one property case.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// With the owner and non-owner masks empty, every warp is
        /// unshared and OWF picks exactly as GTO, call for call, and keeps
        /// the same greedy state: what lets a plan without shared pairs run
        /// OWF as GTO. Random readiness, view compositions, dynamic ids and
        /// ready-less cycles on 1–4 units.
        #[test]
        fn owf_equals_gto_without_owner_classes(
            units in 1usize..=4,
            num_slots in 1usize..=48,
            cycles in 1usize..60,
            seed in 1u64..u64::MAX,
        ) {
            let mut rng = seed;
            let mut masks = Masks::unshared(&vec![false; num_slots]);
            let mut owf = SchedulerKind::Owf.build(num_slots, units);
            let mut gto = SchedulerKind::Gto.build(num_slots, units);
            let unit_masks = unit_slots(num_slots, units);
            for cycle in 0..cycles {
                if next(&mut rng).is_multiple_of(4) {
                    masks.listed = next(&mut rng) & below(num_slots);
                    for id in masks.ids.iter_mut() {
                        *id = next(&mut rng) % 64;
                    }
                }
                masks.ready = next(&mut rng) & next(&mut rng) & masks.listed;
                if next(&mut rng).is_multiple_of(8) {
                    owf.note_idle_cycle();
                    gto.note_idle_cycle();
                } else {
                    for (unit, &mine) in unit_masks.iter().enumerate() {
                        let view = masks.view();
                        prop_assert_eq!(
                            owf.pick(unit, mine, &view),
                            gto.pick(unit, mine, &view),
                            "unit {} cycle {}", unit, cycle
                        );
                    }
                }
                match (&owf, &gto) {
                    (Scheduler::Owf { last: a }, Scheduler::Gto { last: b }) => {
                        prop_assert_eq!(a, b, "cycle {}", cycle);
                    }
                    _ => unreachable!("built as OWF and GTO"),
                }
            }
        }

        /// The mask pick makes the model's picks and leaves the model's
        /// state, call for call: every policy, 1–4 units, up to 48 slots,
        /// random readiness and classes, and a new view composition (with
        /// newly launched, younger warps) every few cycles. LRR's state is
        /// its rotation pointer: the model's position must be the rank of
        /// the mask pick's start slot in the list that slot was set in.
        #[test]
        fn mask_pick_equals_the_slice_model(
            policy in 0u8..6,
            units in 1usize..=4,
            num_slots in 1usize..=48,
            cycles in 1usize..60,
            seed in 1u64..u64::MAX,
        ) {
            let kind = match policy {
                0 => SchedulerKind::Lrr,
                1 => SchedulerKind::Gto,
                2 => SchedulerKind::Owf,
                3 => SchedulerKind::TwoLevel { group_size: 1 },
                4 => SchedulerKind::TwoLevel { group_size: 3 },
                _ => SchedulerKind::TwoLevel { group_size: 8 },
            };
            let mut rng = seed;
            let slots = below(num_slots);
            let mut masks = Masks {
                listed: 0,
                ready: 0,
                owner: 0,
                non_owner: 0,
                ids: vec![0; num_slots],
            };
            let mut next_id = 0u64;
            let mut model = Model::build(kind, num_slots, units);
            let mut fast = kind.build(num_slots, units);
            let unit_masks = unit_slots(num_slots, units);
            for cycle in 0..cycles {
                if cycle % 4 == 0 || next(&mut rng).is_multiple_of(3) {
                    // A new composition: some slots retire, others launch
                    // younger warps.
                    let listed = next(&mut rng) & slots;
                    for slot in 0..num_slots {
                        if has(listed & !masks.listed, slot) || next(&mut rng).is_multiple_of(8) {
                            // Ids may tie, as the model breaks ties too.
                            masks.ids[slot] = next_id;
                            next_id += next(&mut rng) % 3;
                        }
                    }
                    masks.listed = listed;
                }
                let density = next(&mut rng) % 4;
                let mut ready = next(&mut rng);
                for _ in 0..density {
                    ready &= next(&mut rng);
                }
                masks.ready = ready & masks.listed;
                let owner = next(&mut rng) & masks.listed;
                masks.owner = owner;
                masks.non_owner = next(&mut rng) & masks.listed & !owner;
                let views = masks.views();
                for (unit, &mine) in unit_masks.iter().enumerate() {
                    let want = model_pick(&mut model, unit, units, &views);
                    let got = fast.pick(unit, mine, &masks.view());
                    prop_assert_eq!(got, want, "{:?} unit {} cycle {}", kind, unit, cycle);
                    match (&fast, &model) {
                        (Scheduler::Lrr { start }, Model::Lrr { next }) => {
                            let ranks: Vec<usize> = start
                                .iter()
                                .map(|&(s, l)| (l & below(s)).count_ones() as usize)
                                .collect();
                            prop_assert_eq!(&ranks, next, "unit {} cycle {}", unit, cycle);
                        }
                        (fast, Model::Other(model)) => {
                            let at = format!("{kind:?} unit {unit} cycle {cycle}");
                            prop_assert_eq!(fast, model, "{}", at);
                        }
                        _ => unreachable!("both sides build the same policy"),
                    }
                }
            }
        }
    }
}
