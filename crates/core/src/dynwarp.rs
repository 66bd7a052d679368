//! Dynamic Warp Execution (paper Sec. IV-C).
//!
//! Extra non-owner warps can *increase* stalls on memory-bound kernels by
//! thrashing L1/L2. The paper throttles global-memory instructions issued by
//! non-owner warps with a per-SM probability, tuned online:
//!
//! * SM0 is the reference: it **never** issues non-owner memory instructions
//!   (probability pinned to 0).
//! * Every `period` cycles (1000 in the paper) each other SM compares the
//!   stall cycles it accumulated over the window with SM0's. More stalls
//!   than SM0 ⇒ probability decreases by `p`; fewer ⇒ increases by `p`
//!   (`p = 0.1`), saturating in `[0, 1]`.
//!
//! Initially every SM (except the reference) allows all memory instructions
//! (probability 1). Draws use a deterministic per-SM xorshift stream so a
//! simulation is reproducible.

use serde::{Deserialize, Serialize};

/// Per-GPU dynamic warp-execution throttle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynThrottle {
    probs: Vec<f64>,
    window_stalls: Vec<u64>,
    rng_state: Vec<u64>,
    /// Start of a pending idle span per SM: the cycle since which the SM has
    /// been asleep in the fast-forward engine, accumulating one stall per
    /// cycle that has not yet been added to `window_stalls`.
    idle_since: Vec<Option<u64>>,
    period: u64,
    step: f64,
    next_deadline: u64,
    enabled: bool,
}

impl DynThrottle {
    /// Paper parameters: 1000-cycle monitoring period, `p = 0.1`.
    pub const PAPER_PERIOD: u64 = 1000;
    /// Probability adjustment step.
    pub const PAPER_STEP: f64 = 0.1;

    /// Create a throttle for `num_sms` SMs with the paper's parameters.
    pub fn paper(num_sms: usize) -> Self {
        Self::new(num_sms, Self::PAPER_PERIOD, Self::PAPER_STEP, true)
    }

    /// Create a disabled throttle (every SM always allows non-owner memory
    /// instructions) — the "no Dyn" ablation configuration.
    pub fn disabled(num_sms: usize) -> Self {
        Self::new(num_sms, Self::PAPER_PERIOD, Self::PAPER_STEP, false)
    }

    /// Fully parameterized constructor.
    pub fn new(num_sms: usize, period: u64, step: f64, enabled: bool) -> Self {
        let mut probs = vec![1.0; num_sms];
        if enabled && !probs.is_empty() {
            probs[0] = 0.0; // SM0 is the suppressed reference
        }
        DynThrottle {
            probs,
            window_stalls: vec![0; num_sms],
            rng_state: (0..num_sms as u64)
                .map(|i| 0x9E37_79B9_7F4A_7C15 ^ (i + 1))
                .collect(),
            idle_since: vec![None; num_sms],
            period,
            step,
            next_deadline: period,
            enabled,
        }
    }

    /// Is the throttle active?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Current probability for `sm`.
    #[inline]
    pub fn probability(&self, sm: usize) -> f64 {
        self.probs[sm]
    }

    /// Record that `sm` observed a stall cycle (called by the simulator).
    #[inline]
    pub fn note_stall(&mut self, sm: usize) {
        self.window_stalls[sm] += 1;
    }

    /// Should `sm` be allowed to issue a non-owner global-memory instruction
    /// this cycle? Deterministic: consumes one draw from the SM's stream.
    pub fn allow(&mut self, sm: usize) -> bool {
        if !self.enabled {
            return true;
        }
        let p = self.probs[sm];
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        // xorshift64* : cheap, deterministic, well-distributed.
        let s = &mut self.rng_state[sm];
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        let draw = (*s >> 11) as f64 / (1u64 << 53) as f64;
        draw < p
    }

    /// Advance to `cycle`; at each window boundary, compare every SM's
    /// window stalls with SM0's and adjust probabilities (paper Sec. IV-C).
    pub fn on_cycle(&mut self, cycle: u64) {
        if !self.enabled || cycle < self.next_deadline {
            return;
        }
        self.next_deadline = cycle + self.period;
        self.close_window();
    }

    /// Compare every SM's window stalls with SM0's, adjust probabilities,
    /// and reset the window counters.
    fn close_window(&mut self) {
        let reference = self.window_stalls.first().copied().unwrap_or(0);
        for sm in 1..self.probs.len() {
            if self.window_stalls[sm] > reference {
                self.probs[sm] = (self.probs[sm] - self.step).max(0.0);
            } else if self.window_stalls[sm] < reference {
                self.probs[sm] = (self.probs[sm] + self.step).min(1.0);
            }
        }
        for w in &mut self.window_stalls {
            *w = 0;
        }
    }

    /// Fast-forward support: `sm` goes to sleep starting at cycle `from`,
    /// idle with live warps. While asleep it would call [`Self::note_stall`]
    /// once per cycle; instead the span is credited lazily — per window by
    /// [`Self::advance_to`], and on wake-up by [`Self::wake_sm`] — so window
    /// comparisons see exactly the per-cycle counts.
    pub fn sleep_sm(&mut self, sm: usize, from: u64) {
        debug_assert!(self.idle_since[sm].is_none(), "SM {sm} already asleep");
        self.idle_since[sm] = Some(from);
    }

    /// `sm` wakes at cycle `now` (it will be stepped normally this cycle):
    /// credit the stalls of its sleeping span `[since, now)`.
    pub fn wake_sm(&mut self, sm: usize, now: u64) {
        if let Some(since) = self.idle_since[sm].take() {
            debug_assert!(since <= now);
            self.window_stalls[sm] += now - since;
        }
    }

    /// Fire every window boundary up to and including `now`, crediting
    /// sleeping SMs' idle stalls into each window first. Calling this once
    /// per simulated-or-skipped-to cycle is exactly equivalent to the
    /// per-cycle [`Self::note_stall`] + [`Self::on_cycle`] sequence of the
    /// reference loop.
    pub fn advance_to(&mut self, now: u64) {
        if !self.enabled {
            return;
        }
        while self.next_deadline <= now {
            let d = self.next_deadline;
            for (w, since) in self.window_stalls.iter_mut().zip(&mut self.idle_since) {
                if let Some(s) = since {
                    if *s <= d {
                        *w += d - *s + 1;
                        *since = Some(d + 1);
                    }
                }
            }
            self.next_deadline = d + self.period;
            self.close_window();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_sm_is_always_suppressed() {
        let mut t = DynThrottle::paper(4);
        assert_eq!(t.probability(0), 0.0);
        for _ in 0..100 {
            assert!(!t.allow(0));
        }
    }

    #[test]
    fn other_sms_start_fully_allowed() {
        let mut t = DynThrottle::paper(4);
        for sm in 1..4 {
            assert_eq!(t.probability(sm), 1.0);
            assert!(t.allow(sm));
        }
    }

    #[test]
    fn disabled_throttle_always_allows() {
        let mut t = DynThrottle::disabled(2);
        assert!(t.allow(0));
        assert!(t.allow(1));
        t.note_stall(1);
        t.on_cycle(10_000);
        assert_eq!(t.probability(1), 1.0);
    }

    #[test]
    fn stallier_sm_gets_throttled() {
        let mut t = DynThrottle::paper(2);
        for _ in 0..50 {
            t.note_stall(1); // SM1 stalls more than SM0
        }
        t.on_cycle(1000);
        assert!((t.probability(1) - 0.9).abs() < 1e-12);
        // Repeated pressure keeps lowering it...
        for round in 2..=12u64 {
            for _ in 0..50 {
                t.note_stall(1);
            }
            t.on_cycle(1000 * round);
        }
        // ...but saturates at 0.
        assert_eq!(t.probability(1), 0.0);
    }

    #[test]
    fn calmer_sm_recovers_probability() {
        let mut t = DynThrottle::paper(2);
        for _ in 0..10 {
            t.note_stall(1);
        }
        t.on_cycle(1000);
        assert!((t.probability(1) - 0.9).abs() < 1e-12);
        // Next window SM0 stalls more ⇒ SM1 recovers, saturating at 1.
        for round in 2..=5u64 {
            for _ in 0..10 {
                t.note_stall(0);
            }
            t.on_cycle(1000 * round);
        }
        assert_eq!(t.probability(1), 1.0);
    }

    #[test]
    fn window_boundaries_respect_period() {
        let mut t = DynThrottle::paper(2);
        t.note_stall(1);
        t.on_cycle(999); // before the deadline: no adjustment
        assert_eq!(t.probability(1), 1.0);
        t.on_cycle(1000);
        assert!((t.probability(1) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn equal_stalls_leave_probability_unchanged() {
        let mut t = DynThrottle::paper(2);
        for _ in 0..7 {
            t.note_stall(0);
            t.note_stall(1);
        }
        t.on_cycle(1000);
        assert_eq!(t.probability(1), 1.0);
    }

    #[test]
    fn sleeping_spans_match_the_per_cycle_loop() {
        // An SM that sleeps across a span (crediting stalls lazily via
        // sleep_sm / advance_to / wake_sm) must leave the throttle in the
        // same state as one stepped every cycle with note_stall + on_cycle.
        // Spans straddle zero, one and several window boundaries.
        for enabled in [true, false] {
            for (from, to) in [
                (5u64, 9u64),
                (990, 1005),
                (1000, 3001),
                (2999, 3000),
                (10, 4010),
            ] {
                let mut fast = DynThrottle::new(3, 1000, 0.1, enabled);
                let mut slow = DynThrottle::new(3, 1000, 0.1, enabled);
                // Shared prefix processed cycle by cycle, with uneven stall
                // pressure so probabilities move.
                for c in 0..from {
                    for t in [&mut slow, &mut fast] {
                        t.note_stall(1);
                        t.on_cycle(c);
                    }
                }
                // Reference: SMs 0 and 2 stall every cycle of the span.
                for c in from..to {
                    slow.note_stall(0);
                    slow.note_stall(2);
                    slow.on_cycle(c);
                }
                // Fast path: both sleep at `from`; SM2 wakes mid-span and
                // stalls through the rest per-cycle, SM0 sleeps to the end.
                let mid = from + (to - from) / 2;
                fast.sleep_sm(0, from);
                fast.sleep_sm(2, from);
                fast.advance_to(mid.saturating_sub(1));
                fast.wake_sm(2, mid);
                for c in mid..to {
                    fast.note_stall(2);
                    fast.advance_to(c);
                }
                fast.wake_sm(0, to);
                fast.advance_to(to - 1);
                assert_eq!(fast.probs, slow.probs, "enabled={enabled} {from}..{to}");
                assert_eq!(
                    fast.window_stalls, slow.window_stalls,
                    "enabled={enabled} {from}..{to}"
                );
                assert_eq!(
                    fast.next_deadline, slow.next_deadline,
                    "enabled={enabled} {from}..{to}"
                );
                assert_eq!(fast.rng_state, slow.rng_state);
            }
        }
    }

    #[test]
    fn draws_are_deterministic_across_instances() {
        let mut a = DynThrottle::new(2, 1000, 0.1, true);
        let mut b = DynThrottle::new(2, 1000, 0.1, true);
        // Force an intermediate probability so draws matter.
        for _ in 0..5 {
            a.note_stall(1);
            b.note_stall(1);
        }
        a.on_cycle(1000);
        b.on_cycle(1000);
        for _ in 0..64 {
            assert_eq!(a.allow(1), b.allow(1));
        }
    }
}
