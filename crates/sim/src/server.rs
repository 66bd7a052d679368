//! Bandwidth servers: single-queue service models for L2 banks and DRAM.
//!
//! A [`ServerQueue`] admits one transaction every `interval` *quarter-cycles*
//! (sub-cycle resolution lets us express realistic rates such as "4 lines per
//! cycle" for L2 banks or "1 line per cycle" for the GDDR3 channels of paper
//! Table I); a transaction arriving while the server is busy queues behind
//! the previous ones. This is the standard analytic stand-in for FR-FCFS
//! DRAM scheduling at the fidelity the paper's experiments need: it produces
//! the first-order effect (memory bandwidth saturates, latency grows with
//! load) that makes extra thread blocks hurt memory-bound kernels.

/// Quarter-cycles per cycle.
const Q: u64 = 4;

/// A FIFO bandwidth server with quarter-cycle resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerQueue {
    next_free_q: u64,
    interval_q: u64,
    /// Transactions admitted (for bandwidth statistics).
    pub serviced: u64,
}

impl ServerQueue {
    /// One transaction per `interval_q4` quarter-cycles (4 = one per cycle,
    /// 1 = four per cycle).
    pub fn new(interval_q4: u32) -> Self {
        ServerQueue {
            next_free_q: 0,
            interval_q: u64::from(interval_q4.max(1)),
            serviced: 0,
        }
    }

    /// Admit a transaction at cycle `now`; returns the *queueing delay* in
    /// whole cycles (rounded down) the transaction waits before service.
    pub fn admit(&mut self, now: u64) -> u64 {
        self.admit_timed(now).0
    }

    /// Admit a transaction at cycle `now`; returns `(queueing delay, service
    /// end)` — the delay in whole cycles (rounded down, like [`Self::admit`])
    /// and the first cycle by which the server has finished this transaction
    /// (rounded up). The memory system holds a DRAM-queue slot until the
    /// service end.
    pub fn admit_timed(&mut self, now: u64) -> (u64, u64) {
        let now_q = now * Q;
        let start = self.next_free_q.max(now_q);
        self.next_free_q = start + self.interval_q;
        self.serviced += 1;
        ((start - now_q) / Q, (start + self.interval_q).div_ceil(Q))
    }

    /// Whole cycles (rounded **down**) a transaction admitted at cycle `now`
    /// would wait before service; 0 both when the server is idle and when the
    /// residual backlog is sub-cycle. This is a lower bound on the next
    /// [`Self::admit`]'s delay at `now`, exact at quarter-cycle granularity —
    /// see the boundary tests below for the pinned rounding behaviour.
    pub fn backlog(&self, now: u64) -> u64 {
        self.next_free_q.saturating_sub(now * Q) / Q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_server_has_no_delay() {
        let mut s = ServerQueue::new(4);
        assert_eq!(s.admit(100), 0);
    }

    #[test]
    fn back_to_back_transactions_queue() {
        let mut s = ServerQueue::new(16); // one per 4 cycles
        assert_eq!(s.admit(0), 0); // services q 0..16
        assert_eq!(s.admit(0), 4); // waits 16 q = 4 cycles
        assert_eq!(s.admit(0), 8);
        assert_eq!(s.serviced, 3);
    }

    #[test]
    fn subcycle_rates_fit_multiple_per_cycle() {
        let mut s = ServerQueue::new(1); // four per cycle
        assert_eq!(s.admit(0), 0);
        assert_eq!(s.admit(0), 0); // same cycle, still sub-cycle delay
        assert_eq!(s.admit(0), 0);
        assert_eq!(s.admit(0), 0);
        assert_eq!(s.admit(0), 1); // fifth in the same cycle spills over
    }

    #[test]
    fn idle_time_drains_backlog() {
        let mut s = ServerQueue::new(40); // 10 cycles per txn
        s.admit(0);
        assert_eq!(s.backlog(5), 5);
        assert_eq!(s.backlog(20), 0);
        assert_eq!(s.admit(20), 0);
    }

    #[test]
    fn zero_interval_is_clamped() {
        let mut s = ServerQueue::new(0);
        assert_eq!(s.admit(0), 0);
        // 1 quarter-cycle per txn: four per cycle before any delay.
        assert_eq!(s.admit(0), 0);
    }

    // ---- q4 fixed-point boundary pins (docs-vs-behaviour contract) ----

    #[test]
    fn admit_on_an_empty_queue_at_now_is_free_and_books_from_now() {
        // An idle server never back-dates service: admitting at `now` starts
        // service at `now` exactly, not at the (stale) `next_free_q`.
        let mut s = ServerQueue::new(4);
        let (delay, end) = s.admit_timed(100);
        assert_eq!(delay, 0);
        assert_eq!(end, 101); // service occupies q [400, 404) → done by 101
        assert_eq!(s.backlog(100), 1); // one full service interval pending
        assert_eq!(s.backlog(101), 0);
    }

    #[test]
    fn subcycle_residue_rounds_delay_down_but_service_end_up() {
        // interval 3 q4 = 0.75 cycles. The second admit at cycle 0 starts at
        // q3: a 3-quarter-cycle wait reported as delay 0 (floor), with the
        // service end at q6 reported as cycle 2 (ceil).
        let mut s = ServerQueue::new(3);
        assert_eq!(s.admit_timed(0), (0, 1)); // q [0, 3)
        assert_eq!(s.admit_timed(0), (0, 2)); // q [3, 6): sub-cycle wait
        assert_eq!(s.admit_timed(0), (1, 3)); // q [6, 9): 6 q = 1.5 cy → 1
    }

    #[test]
    fn backlog_floors_subcycle_residue_to_zero() {
        let mut s = ServerQueue::new(6); // 1.5 cycles per txn
        s.admit(0); // busy until q6
        assert_eq!(s.backlog(0), 1); // 6 q = 1.5 cycles → floor 1
        assert_eq!(s.backlog(1), 0); // 2 q residue → floor 0 ...
        assert_eq!(s.admit(1), 0); // ... and the matching admit delay is 0
    }

    #[test]
    fn backlog_matches_next_admit_delay_at_whole_cycle_boundaries() {
        let mut s = ServerQueue::new(8); // 2 cycles per txn
        for _ in 0..5 {
            s.admit(0);
        }
        // next_free_q = 40 (cycle 10): at whole-cycle arrival times the
        // backlog is exactly the delay the next admit would see.
        for now in 0..12 {
            assert_eq!(s.backlog(now), s.admit(now), "now {now}");
            s = ServerQueue::new(8);
            for _ in 0..5 {
                s.admit(0);
            }
        }
    }
}
