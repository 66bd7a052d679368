//! Cycle-level telemetry: structured event tracing and sampled timelines.
//!
//! The subsystem is gated by [`crate::RunConfig`]`::telemetry` and is
//! **zero-cost when disabled**: every recording site is behind an
//! `Option` that is `None` unless a [`TelemetryConfig`] was supplied, and
//! the hard contract (pinned by `tests/telemetry.rs`) is that enabling it
//! never perturbs `SimStats` — traced and untraced runs are bit-identical
//! across all schedulers, sharing modes, memory presets, and both engines.
//!
//! Events are appended to per-track ring buffers — one per SM and one for
//! the shared memory system — each with a configurable capacity and a drop
//! counter. At run end the tracks are merged into one stream in the
//! canonical `(cycle, track rank, seq)` order, the same (cycle, SM id)
//! order the engine steps in.
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
use std::collections::VecDeque;

/// Configuration for the telemetry subsystem.
///
/// Attach one to a run via [`crate::RunConfig::with_telemetry`]. The
/// default records events into 65 536-entry rings with sampling disabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetryConfig {
    /// Per-track ring-buffer capacity (events kept per SM / memory
    /// track). When a ring overflows, the oldest events are dropped and
    /// counted in [`TrackStats::dropped`].
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
    /// clock jump). `gated` spans were blocked on the memory system.
    SleepSpan {
        /// First cycle after the sleep span.
        until: u64,
        /// Whether the span was a memory-gate stall rather than idleness.
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

/// Which lane of the merged trace an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Track {
    /// A streaming multiprocessor, by id.
    Sm(u32),
    /// The shared L2/MSHR/DRAM system.
    Mem,
}

impl Track {
    /// Canonical merge rank: SMs by id, then memory — mirroring the
    /// engine's (cycle, SM id) step order.
    pub fn rank(&self) -> (u8, u32) {
        match *self {
            Track::Sm(id) => (0, id),
            Track::Mem => (1, 0),
        }
    }

    /// Human-readable track label (used as the Chrome-trace thread name).
    pub fn label(&self) -> String {
        match *self {
            Track::Sm(id) => format!("SM {id}"),
            Track::Mem => "MEM".to_string(),
        }
    }
}

/// One event in the merged trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Cycle the event is stamped with.
    pub cycle: u64,
    /// Track the event was recorded on.
    pub track: Track,
    /// Per-track append sequence number (stable across ring overflow:
    /// the first retained event carries the number of dropped events).
    pub seq: u64,
    /// The event payload.
    pub event: TelemetryEvent,
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

/// Per-track append/drop accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackStats {
    /// The track.
    pub track: Track,
    /// Total events appended over the run.
    pub appended: u64,
    /// Events dropped by ring overflow (`appended - kept`).
    pub dropped: u64,
}

/// The collected telemetry of one run: the merged event stream, sampled
/// timelines, and per-track accounting. Attached to
/// [`crate::RunReport`]`::telemetry` when tracing was enabled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryReport {
    /// All retained events, merged in `(cycle, track rank, seq)` order.
    pub events: Vec<TraceRecord>,
    /// Per-SM sampled timeline rows, in (cycle, SM id) order.
    pub sm_samples: Vec<SampleRow>,
    /// Memory-system sampled rows, in cycle order.
    pub mem_samples: Vec<MemSampleRow>,
    /// Append/drop accounting per track, in track-rank order.
    pub tracks: Vec<TrackStats>,
}

impl TelemetryReport {
    /// Total events appended across all tracks (including dropped ones).
    pub fn appended(&self) -> u64 {
        self.tracks.iter().map(|t| t.appended).sum()
    }

    /// Total events dropped by ring overflow across all tracks.
    pub fn dropped(&self) -> u64 {
        self.tracks.iter().map(|t| t.dropped).sum()
    }

    /// One-line human summary, used by [`crate::RunReport::summary`].
    pub fn summary(&self) -> String {
        format!(
            "{} events kept ({} appended, {} dropped) on {} tracks; {} SM + {} MEM sample rows",
            self.events.len(),
            self.appended(),
            self.dropped(),
            self.tracks.len(),
            self.sm_samples.len(),
            self.mem_samples.len(),
        )
    }
}

/// Fixed-capacity append-only ring: keeps the newest `cap` entries and
/// counts how many were ever appended, so drops are observable.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    buf: VecDeque<T>,
    cap: usize,
    appended: u64,
}

impl<T> Ring<T> {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            buf: VecDeque::new(),
            cap: cap.max(1),
            appended: 0,
        }
    }

    pub(crate) fn push(&mut self, v: T) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(v);
        self.appended += 1;
    }

    pub(crate) fn appended(&self) -> u64 {
        self.appended
    }

    /// Rearrange the backing storage into one contiguous slice so
    /// [`Self::as_slice`] can hand the whole ring out zero-copy.
    pub(crate) fn make_contiguous(&mut self) {
        self.buf.make_contiguous();
    }

    /// The retained entries, oldest first. Callers must run
    /// [`Self::make_contiguous`] first.
    pub(crate) fn as_slice(&self) -> &[T] {
        let (head, tail) = self.buf.as_slices();
        debug_assert!(tail.is_empty(), "Ring::as_slice needs make_contiguous");
        head
    }

    /// Sequence number of the first retained entry (== dropped count).
    pub(crate) fn first_seq(&self) -> u64 {
        self.appended - self.buf.len() as u64
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

/// Per-track accounting, computed without copying the ring.
fn track_stats(ring: &Ring<(u64, TelemetryEvent)>, track: Track) -> TrackStats {
    TrackStats {
        track,
        appended: ring.appended(),
        dropped: ring.first_seq(),
    }
}

/// Merge all tracks into a [`TelemetryReport`] in the canonical
/// `(cycle, rank, seq)` order.
///
/// Every track records in nondecreasing cycle order by construction (each
/// SM's own clock is monotone and MEM events are drained in due order), so
/// the merge reads the tracks as sorted runs straight out of the rings — no
/// intermediate copy.
///
/// The k-way merge keeps one packed `cycle << 48 | rank` head key per
/// track (ranks are unique per track, so head keys never tie) and picks
/// the minimum by linear scan: for k ≤ SMs + 1 the keys stay in L1 and
/// the compare is one integer op, which beats both a `BinaryHeap` and a
/// comparison sort by 2–3× — and this merge is most of a short traced
/// run's telemetry bill.
pub(crate) fn assemble(
    mut sms: Vec<SmTelemetry>,
    mut mem: Option<MemTelemetry>,
) -> TelemetryReport {
    let mut tracks = Vec::with_capacity(sms.len() + 1);
    for sm in &mut sms {
        sm.ring.make_contiguous();
    }
    if let Some(m) = mem.as_mut() {
        m.ring.make_contiguous();
    }
    let events = {
        let mut srcs: Vec<&[(u64, TelemetryEvent)]> = Vec::with_capacity(sms.len() + 1);
        let mut track_of: Vec<Track> = Vec::with_capacity(sms.len() + 1);
        let mut base_of: Vec<u64> = Vec::with_capacity(sms.len() + 1);
        for (id, sm) in sms.iter().enumerate() {
            let track = Track::Sm(id as u32);
            tracks.push(track_stats(&sm.ring, track));
            track_of.push(track);
            base_of.push(sm.ring.first_seq());
            srcs.push(sm.ring.as_slice());
        }
        if let Some(m) = mem.as_ref() {
            tracks.push(track_stats(&m.ring, Track::Mem));
            track_of.push(Track::Mem);
            base_of.push(m.ring.first_seq());
            srcs.push(m.ring.as_slice());
        }
        debug_assert!(srcs
            .iter()
            .all(|run| run.windows(2).all(|w| w[0].0 <= w[1].0)));
        // Head key per track: cycle in the high bits, the track's (constant)
        // rank below — unique across heads because ranks are unique.
        let rank_part: Vec<u128> = track_of
            .iter()
            .map(|t| {
                let (major, minor) = t.rank();
                (major as u128) << 40 | (minor as u128) << 8
            })
            .collect();
        let key = |run: &[(u64, TelemetryEvent)], pos: usize, rank: u128| -> u128 {
            run.get(pos)
                .map_or(u128::MAX, |&(cycle, _)| (cycle as u128) << 48 | rank)
        };
        let total: usize = srcs.iter().map(|run| run.len()).sum();
        let k = srcs.len();
        let mut merged = Vec::with_capacity(total);
        let mut pos = vec![0usize; k];
        // Cursor list kept sorted ascending by head key: the next event is
        // always `order[0]`, and because the tracks advance in near
        // lockstep the advanced cursor usually re-inserts at or near the
        // front — a couple of compares per event instead of a k-wide
        // rescan. Exhausted runs carry `u128::MAX` and sink to the back.
        let mut order: Vec<(u128, usize)> =
            (0..k).map(|i| (key(srcs[i], 0, rank_part[i]), i)).collect();
        order.sort_unstable();
        for _ in 0..total {
            let i = order[0].1;
            let p = pos[i];
            let (cycle, event) = srcs[i][p];
            merged.push(TraceRecord {
                cycle,
                track: track_of[i],
                seq: base_of[i] + p as u64,
                event,
            });
            pos[i] = p + 1;
            let advanced = key(srcs[i], p + 1, rank_part[i]);
            let mut j = 1;
            while j < k && order[j].0 < advanced {
                order[j - 1] = order[j];
                j += 1;
            }
            order[j - 1] = (advanced, i);
        }
        merged
    };
    let mut sm_samples = Vec::with_capacity(sms.iter().map(|s| s.samples.len()).sum());
    for sm in sms {
        sm_samples.extend(sm.samples);
    }
    let mem_samples = mem.map_or_else(Vec::new, |m| m.samples);
    sm_samples.sort_unstable_by_key(|r| (r.cycle, r.sm));
    TelemetryReport {
        events,
        sm_samples,
        mem_samples,
        tracks,
    }
}
