//! Cycle-level telemetry: structured event tracing and sampled timelines.
//!
//! The subsystem is gated by [`crate::RunConfig`]`::telemetry` and is
//! **zero-cost when disabled**: every recording site is behind an
//! `Option` that is `None` unless a [`TelemetryConfig`] was supplied, and
//! the hard contract (pinned by `tests/telemetry.rs`) is that enabling it
//! never perturbs `SimStats` — traced and untraced runs are bit-identical
//! across all schedulers, sharing modes, memory presets, and both engines.
//!
//! Events are recorded per track — one per SM and one for the shared
//! memory system — each into one buffer that keeps the newest `capacity`
//! events and counts the ones it drops. At run end every track is handed
//! over as recorded: its buffer, rotated oldest first, becomes the track's
//! [`TrackTrace`], so no event is copied after it is recorded. A track's
//! events keep the order they were recorded in, which is nondecreasing in
//! cycle.
//!
//! On top of events, a periodic sampler (`sample_every` cycles) emits
//! per-SM timeline rows (occupancy, instruction deltas, stall breakdown)
//! and memory-system rows (MSHR / DRAM queue depth). Sampling is exact
//! across fast-forward clock jumps: the closed-form crediting paths emit
//! rows piecewise at each sample boundary inside a skipped span, so a row
//! at cycle `b` always reflects the machine state at the start of cycle
//! `b`, whichever engine produced it.

use crate::stats::SmStats;
use serde::{Deserialize, Serialize};

/// Configuration for the telemetry subsystem.
///
/// Attach one to a run via [`crate::RunConfig::with_telemetry`]. The
/// default records events into 65 536-entry rings with sampling disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Per-track ring-buffer capacity (events kept per SM / memory
    /// track). When a ring overflows, the oldest events are dropped and
    /// counted in [`TrackTrace::dropped`].
    pub capacity: usize,
    /// Sampling period in cycles; `0` disables the sampler. The first
    /// row is emitted at cycle `sample_every`, and each row reports
    /// deltas since the previous row.
    pub sample_every: u64,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            capacity: 1 << 16,
            sample_every: 0,
        }
    }
}

impl TelemetryConfig {
    /// Returns the config with the sampling period set to `every` cycles.
    pub fn with_sample_every(mut self, every: u64) -> Self {
        self.sample_every = every;
        self
    }
}

/// Why a warp (slot) is not ready to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StallReason {
    /// Waiting on an outstanding register hazard (scoreboard).
    Scoreboard,
    /// Parked at a block-wide barrier.
    Barrier,
    /// Held back by the memory system: per-warp MSHR limit or the
    /// MSHR/DRAM-queue issue gate.
    MemGate,
}

/// One structured, cycle-stamped telemetry event.
///
/// Every variant is recorded on exactly one track (SM or memory), and the
/// stream per track is monotone in cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TelemetryEvent {
    /// A thread block was launched into an SM slot.
    BlockLaunch {
        /// Grid-wide block id.
        grid_id: u32,
        /// Block slot index within the SM.
        slot: u32,
    },
    /// A thread block retired from an SM slot.
    BlockRetire {
        /// Grid-wide block id.
        grid_id: u32,
        /// Block slot index within the SM.
        slot: u32,
    },
    /// A warp slot entered a stalled state (edge-triggered: recorded when
    /// the reason changes, not every stalled cycle).
    WarpStall {
        /// Warp slot index within the SM.
        slot: u32,
        /// Why the warp cannot issue.
        reason: StallReason,
    },
    /// The SM slept from the stamped cycle until `until` (fast-forward
    /// clock jump). `gated` spans were held up by the memory system.
    SleepSpan {
        /// First cycle after the sleep span.
        until: u64,
        /// Whether the span counted as pipeline stall (a warp at the
        /// per-warp MSHR limit or blocked by the memory gate) rather than
        /// idleness.
        gated: bool,
    },
    /// An MSHR entry filled and released its waiters.
    MshrFill {
        /// Memory partition index.
        part: u32,
    },
    /// A memory access merged into an existing MSHR entry.
    MshrMerge {
        /// Memory partition index.
        part: u32,
    },
    /// A transaction was admitted into a DRAM queue.
    DramAdmit {
        /// Memory partition index.
        part: u32,
    },
    /// A DRAM queue slot was serviced and freed.
    DramService {
        /// Memory partition index.
        part: u32,
    },
}

/// The lane an event was recorded on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Track {
    /// A streaming multiprocessor, by id.
    Sm(u32),
    /// The shared L2/MSHR/DRAM system.
    Mem,
}

impl Track {
    /// Human-readable track label (used as the Chrome-trace thread name).
    pub fn label(&self) -> String {
        match *self {
            Track::Sm(id) => format!("SM {id}"),
            Track::Mem => "MEM".to_string(),
        }
    }
}

/// One track's retained events, handed over as recorded.
///
/// `events` holds the newest events the track recorded, oldest first, each
/// with the cycle it is stamped with; the cycles are nondecreasing. A track
/// that recorded more than [`TelemetryConfig::capacity`] events dropped the
/// `dropped` oldest ones, so the `i`-th retained event is the track's event
/// number `dropped + i`.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackTrace {
    /// The track.
    pub track: Track,
    /// Events dropped by ring overflow: the track's oldest.
    pub dropped: u64,
    /// The retained `(cycle, event)` pairs, oldest first.
    pub events: Vec<(u64, TelemetryEvent)>,
}

/// One sampled per-SM timeline row.
///
/// A row at `cycle` reflects the machine state at the *start* of that
/// cycle; delta fields cover the `sample_every` cycles since the
/// previous row (or since cycle 0 for the first row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampleRow {
    /// Sample boundary cycle.
    pub cycle: u64,
    /// SM id.
    pub sm: u32,
    /// Blocks resident at the boundary.
    pub live_blocks: u32,
    /// Warps resident at the boundary.
    pub live_warps: u32,
    /// Warp instructions issued in the window.
    pub warp_instrs: u64,
    /// Idle cycles spent with every live warp scoreboard-blocked.
    pub scoreboard: u64,
    /// Idle cycles spent with warps parked at barriers (none
    /// scoreboard-blocked).
    pub barrier: u64,
    /// Pipeline-stall cycles (memory gate, MSHR limits, port conflicts).
    pub mem_gate: u64,
    /// Remaining zero-issue cycles with live but unready warps
    /// (lock busy-wait, throttle suppression, exit drain).
    pub no_ready: u64,
}

/// One sampled memory-system timeline row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemSampleRow {
    /// Sample boundary cycle.
    pub cycle: u64,
    /// MSHR entries in flight across all partitions at the boundary.
    pub mshr_in_flight: u32,
    /// DRAM queue slots occupied across all partitions at the boundary.
    pub dram_in_queue: u32,
}

/// The collected telemetry of one run: every track's retained events,
/// the sampled timelines, and the drop counts. Attached to
/// [`crate::RunReport`]`::telemetry` when tracing was enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Every track's events as recorded: the SMs by id, then `MEM`.
    pub tracks: Vec<TrackTrace>,
    /// Per-SM sampled timeline rows, in (cycle, SM id) order.
    pub sm_samples: Vec<SampleRow>,
    /// Memory-system sampled rows, in cycle order.
    pub mem_samples: Vec<MemSampleRow>,
}

impl TelemetryReport {
    /// Total events appended across all tracks (including dropped ones).
    pub fn appended(&self) -> u64 {
        self.dropped() + self.kept() as u64
    }

    /// Total events dropped by ring overflow across all tracks.
    pub fn dropped(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }

    /// Total events retained across all tracks.
    fn kept(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// One-line human summary, used by [`crate::RunReport::summary`].
    pub fn summary(&self) -> String {
        format!(
            "{} events kept ({} appended, {} dropped) on {} tracks; {} SM + {} MEM sample rows",
            self.kept(),
            self.appended(),
            self.dropped(),
            self.tracks.len(),
            self.sm_samples.len(),
            self.mem_samples.len(),
        )
    }
}

/// A track's recording buffer: one `Vec` that grows until it holds `cap`
/// entries, then wraps, overwriting its oldest entry in place.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    buf: Vec<T>,
    cap: usize,
    /// Index of the oldest entry (0 until the ring wraps).
    head: usize,
    /// Entries overwritten so far.
    dropped: u64,
}

impl<T> Ring<T> {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            buf: Vec::new(),
            cap: cap.max(1),
            head: 0,
            dropped: 0,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, v: T) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.head] = v;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    /// The retained entries, oldest first, and how many were dropped.
    fn into_oldest_first(mut self) -> (Vec<T>, u64) {
        self.buf.rotate_left(self.head);
        (self.buf, self.dropped)
    }
}

/// Per-SM recording state. Lives on `Sm` (boxed), so each SM records its
/// own track.
#[derive(Debug, Clone)]
pub(crate) struct SmTelemetry {
    pub(crate) ring: Ring<(u64, TelemetryEvent)>,
    pub(crate) samples: Vec<SampleRow>,
    pub(crate) sample_every: u64,
    /// Next sample boundary cycle (`u64::MAX` when sampling is off).
    pub(crate) next_sample: u64,
    last_warp_instrs: u64,
    last_scoreboard: u64,
    last_barrier: u64,
    last_mem_gate: u64,
    last_no_ready: u64,
}

impl SmTelemetry {
    pub(crate) fn new(cfg: &TelemetryConfig) -> Self {
        Self {
            ring: Ring::new(cfg.capacity),
            samples: Vec::new(),
            sample_every: cfg.sample_every,
            next_sample: if cfg.sample_every == 0 {
                u64::MAX
            } else {
                cfg.sample_every
            },
            last_warp_instrs: 0,
            last_scoreboard: 0,
            last_barrier: 0,
            last_mem_gate: 0,
            last_no_ready: 0,
        }
    }

    #[inline]
    pub(crate) fn record(&mut self, cycle: u64, event: TelemetryEvent) {
        self.ring.push((cycle, event));
    }

    /// Emit the row at the current `next_sample` boundary and advance it.
    /// `stats` must reflect the state at the start of that cycle.
    pub(crate) fn emit_row(&mut self, sm: u32, stats: &SmStats, live_blocks: u32, live_warps: u32) {
        let row = SampleRow {
            cycle: self.next_sample,
            sm,
            live_blocks,
            live_warps,
            warp_instrs: stats.warp_instrs - self.last_warp_instrs,
            scoreboard: stats.stall_scoreboard_cycles - self.last_scoreboard,
            barrier: stats.stall_barrier_cycles - self.last_barrier,
            mem_gate: stats.stall_mem_gate_cycles - self.last_mem_gate,
            no_ready: stats.stall_no_ready_cycles - self.last_no_ready,
        };
        self.samples.push(row);
        self.last_warp_instrs = stats.warp_instrs;
        self.last_scoreboard = stats.stall_scoreboard_cycles;
        self.last_barrier = stats.stall_barrier_cycles;
        self.last_mem_gate = stats.stall_mem_gate_cycles;
        self.last_no_ready = stats.stall_no_ready_cycles;
        self.next_sample = self.next_sample.saturating_add(self.sample_every);
    }
}

/// Memory-system recording state. Lives on `SharedMem`.
#[derive(Debug, Clone)]
pub(crate) struct MemTelemetry {
    pub(crate) ring: Ring<(u64, TelemetryEvent)>,
    pub(crate) samples: Vec<MemSampleRow>,
    pub(crate) sample_every: u64,
    /// Next sample boundary cycle (`u64::MAX` when sampling is off).
    pub(crate) next_sample: u64,
}

impl MemTelemetry {
    pub(crate) fn new(cfg: &TelemetryConfig) -> Self {
        Self {
            ring: Ring::new(cfg.capacity),
            samples: Vec::new(),
            sample_every: cfg.sample_every,
            next_sample: if cfg.sample_every == 0 {
                u64::MAX
            } else {
                cfg.sample_every
            },
        }
    }

    #[inline]
    pub(crate) fn record(&mut self, cycle: u64, event: TelemetryEvent) {
        self.ring.push((cycle, event));
    }

    /// Emit the row at the current `next_sample` boundary and advance it.
    /// Occupancy totals must reflect the state at the start of that cycle.
    pub(crate) fn emit_row(&mut self, mshr_in_flight: u32, dram_in_queue: u32) {
        self.samples.push(MemSampleRow {
            cycle: self.next_sample,
            mshr_in_flight,
            dram_in_queue,
        });
        self.next_sample = self.next_sample.saturating_add(self.sample_every);
    }
}

/// Collect a run's telemetry: every track handed over as recorded (the
/// SMs by id, then memory) and the sampled rows.
pub(crate) fn assemble(sms: Vec<SmTelemetry>, mem: Option<MemTelemetry>) -> TelemetryReport {
    // Every SM's `j`-th row sits at the `j + 1`-th sample boundary, so
    // taking row `j` of each SM in id order, `j` by `j`, is (cycle, SM id)
    // order without a sort.
    let rows = sms.iter().map(|s| s.samples.len()).max().unwrap_or(0);
    let mut sm_samples = Vec::with_capacity(sms.iter().map(|s| s.samples.len()).sum());
    for j in 0..rows {
        sm_samples.extend(sms.iter().filter_map(|s| s.samples.get(j).copied()));
    }
    debug_assert!(sm_samples.is_sorted_by_key(|r: &SampleRow| (r.cycle, r.sm)));
    let trace = |track, ring: Ring<(u64, TelemetryEvent)>| {
        let (events, dropped) = ring.into_oldest_first();
        debug_assert!(events.is_sorted_by_key(|&(cycle, _)| cycle));
        TrackTrace {
            track,
            dropped,
            events,
        }
    };
    let mut tracks: Vec<TrackTrace> = sms
        .into_iter()
        .enumerate()
        .map(|(id, sm)| trace(Track::Sm(id as u32), sm.ring))
        .collect();
    let mut mem_samples = Vec::new();
    if let Some(m) = mem {
        tracks.push(trace(Track::Mem, m.ring));
        mem_samples = m.samples;
    }
    TelemetryReport {
        tracks,
        sm_samples,
        mem_samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_in_place_and_hands_over_oldest_first() {
        let cfg = TelemetryConfig {
            capacity: 2500,
            sample_every: 0,
        };
        // The event's slot is its append index: the event number, written
        // independently of the ring.
        let stall = |i: u64| TelemetryEvent::WarpStall {
            slot: i as u32,
            reason: StallReason::Scoreboard,
        };
        // SM 0 wraps mid-buffer: 6000 events into 2500 entries leave the
        // oldest kept one stored at 1000. SM 1 and MEM stay below capacity.
        let mut sms = vec![SmTelemetry::new(&cfg), SmTelemetry::new(&cfg)];
        for i in 0..6000 {
            sms[0].record(i / 3, stall(i));
        }
        assert_eq!((sms[0].ring.buf.len(), sms[0].ring.head), (2500, 1000));
        for i in 0..3 {
            sms[1].record(7, stall(i));
        }
        let mut mem = MemTelemetry::new(&cfg);
        mem.record(5, TelemetryEvent::MshrFill { part: 1 });
        let report = assemble(sms, Some(mem));
        let shape: Vec<(Track, u64, usize)> = report
            .tracks
            .iter()
            .map(|t| (t.track, t.dropped, t.events.len()))
            .collect();
        assert_eq!(
            shape,
            [
                (Track::Sm(0), 3500, 2500),
                (Track::Sm(1), 0, 3),
                (Track::Mem, 0, 1)
            ]
        );
        // Oldest first: the i-th retained event is event number dropped + i.
        for t in &report.tracks[..2] {
            for (seq, &(cycle, event)) in (t.dropped..).zip(&t.events) {
                assert_eq!(event, stall(seq), "{:?}", t.track);
                assert_eq!(cycle, if t.dropped > 0 { seq / 3 } else { 7 });
            }
        }
        assert_eq!((report.appended(), report.dropped()), (6004, 3500));
    }
}
