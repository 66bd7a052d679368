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
//! canonical `(cycle, track rank, seq)` order, where `seq` is a track's
//! append order: the same (cycle, SM id) order the engine steps in.
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
///
/// A track's records keep their append order in the merged stream, so
/// their per-track append sequence number is implicit: the `i`-th
/// retained record of a track is its event number
/// [`TrackStats::dropped`]` + i` (stable across ring overflow).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Cycle the event is stamped with.
    pub cycle: u64,
    /// Track the event was recorded on.
    pub track: Track,
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

/// Entries per [`Ring`] chunk.
const RING_CHUNK: usize = 1024;

/// Fixed-capacity append-only ring: keeps the newest `cap` entries and
/// counts how many were ever appended, so drops are observable. It grows
/// one fixed-size chunk at a time and never moves an entry; only at
/// capacity does it wrap and overwrite its oldest entries in place.
#[derive(Debug, Clone)]
pub(crate) struct Ring<T> {
    /// `RING_CHUNK` entries each (the last up to `cap`), every chunk
    /// allocated at its full size, so filling it never reallocates.
    chunks: Vec<Vec<T>>,
    cap: usize,
    /// Storage index of the oldest entry (0 until the ring wraps).
    head: usize,
    appended: u64,
}

impl<T> Ring<T> {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            chunks: Vec::new(),
            cap: cap.max(1),
            head: 0,
            appended: 0,
        }
    }

    pub(crate) fn push(&mut self, v: T) {
        let len = self.len();
        if len < self.cap {
            if len.is_multiple_of(RING_CHUNK) {
                self.chunks
                    .push(Vec::with_capacity(RING_CHUNK.min(self.cap - len)));
            }
            self.chunks.last_mut().expect("a chunk with room").push(v);
        } else {
            self.chunks[self.head / RING_CHUNK][self.head % RING_CHUNK] = v;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
        self.appended += 1;
    }

    pub(crate) fn appended(&self) -> u64 {
        self.appended
    }

    /// Retained entry count.
    pub(crate) fn len(&self) -> usize {
        self.appended.min(self.cap as u64) as usize
    }

    /// The `i`-th retained entry, oldest first (`i < self.len()`).
    #[inline]
    pub(crate) fn get(&self, i: usize) -> &T {
        let mut at = self.head + i;
        if at >= self.cap {
            at -= self.cap;
        }
        &self.chunks[at / RING_CHUNK][at % RING_CHUNK]
    }

    /// Sequence number of the first retained entry (== dropped count).
    pub(crate) fn first_seq(&self) -> u64 {
        self.appended - self.len() as u64
    }

    /// The retained entries from the `i`-th on, oldest first, read a
    /// contiguous run of storage at a time.
    pub(crate) fn iter_from(&self, i: usize) -> impl Iterator<Item = &T> {
        let mut next = i;
        let len = self.len();
        std::iter::from_fn(move || {
            if next >= len {
                return None;
            }
            let mut at = self.head + next;
            if at >= self.cap {
                at -= self.cap;
            }
            let chunk = &self.chunks[at / RING_CHUNK];
            let off = at % RING_CHUNK;
            // A run ends at its chunk's end, at the wrap point (the oldest
            // entry's storage index, or the end of storage) or at `len`.
            let run = (chunk.len() - off).min(len - next);
            let run = if at < self.head {
                run.min(self.head - at)
            } else {
                run
            };
            next += run;
            Some(&chunk[off..off + run])
        })
        .flatten()
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

/// Cycles per window of [`assemble`]'s counting sort: small enough that
/// the per-cycle counters stay in L1, large enough that a dense trace
/// spends little on the per-window set-up.
const MERGE_WINDOW: usize = 256;

/// Merge all tracks into a [`TelemetryReport`] in the canonical
/// `(cycle, rank, seq)` order.
///
/// Every track records in nondecreasing cycle order by construction (each
/// SM's own clock is monotone and MEM events are drained in due order), so
/// the merge reads the tracks as sorted runs straight out of the rings — no
/// intermediate copy.
///
/// The merge is a counting sort by cycle over windows of
/// [`MERGE_WINDOW`] cycles, starting at the earliest unmerged event: one
/// pass counts each track's events per cycle of the window, a prefix sum
/// turns the counts into output positions, and a second pass, visiting the
/// tracks in rank order and each track in seq order, writes every event's
/// [`TraceRecord`] straight to its position. Within a cycle that is
/// exactly `(rank, seq)` order. No two tracks' events are ever compared,
/// which matters because the tracks interleave finely: after one event,
/// the same track rarely holds the next.
pub(crate) fn assemble(sms: Vec<SmTelemetry>, mem: Option<MemTelemetry>) -> TelemetryReport {
    let mut tracks = Vec::with_capacity(sms.len() + 1);
    let events = {
        // Sources in rank order: SMs by id, then memory.
        let mut srcs: Vec<&Ring<(u64, TelemetryEvent)>> = Vec::with_capacity(sms.len() + 1);
        let mut track_of: Vec<Track> = Vec::with_capacity(sms.len() + 1);
        for (id, sm) in sms.iter().enumerate() {
            let track = Track::Sm(id as u32);
            tracks.push(track_stats(&sm.ring, track));
            track_of.push(track);
            srcs.push(&sm.ring);
        }
        if let Some(m) = mem.as_ref() {
            tracks.push(track_stats(&m.ring, Track::Mem));
            track_of.push(Track::Mem);
            srcs.push(&m.ring);
        }
        debug_assert!(srcs
            .iter()
            .all(|ring| (1..ring.len()).all(|i| ring.get(i - 1).0 <= ring.get(i).0)));
        let total: usize = srcs.iter().map(|ring| ring.len()).sum();
        let k = srcs.len();
        let mut merged = Vec::with_capacity(total);
        // Per track: the first unmerged event, and the end of the window.
        let mut pos = vec![0usize; k];
        let mut end = vec![0usize; k];
        // Per cycle of the window: its event count, then its next position.
        let mut next = [0usize; MERGE_WINDOW];
        // Holds a window's positions until the second pass writes them.
        let filler = TraceRecord {
            cycle: 0,
            track: Track::Mem,
            event: TelemetryEvent::MshrFill { part: 0 },
        };
        while let Some(start) = (0..k)
            .filter(|&t| pos[t] < srcs[t].len())
            .map(|t| srcs[t].get(pos[t]).0)
            .min()
        {
            // Offsets from `start`, so a window at the end of the cycle
            // range needs no bound past `u64::MAX`.
            let in_window = |cycle: u64| cycle - start < MERGE_WINDOW as u64;
            next.fill(0);
            for (t, ring) in srcs.iter().enumerate() {
                let in_win = ring
                    .iter_from(pos[t])
                    .take_while(|&&(cycle, _)| in_window(cycle))
                    .map(|&(cycle, _)| next[(cycle - start) as usize] += 1)
                    .count();
                end[t] = pos[t] + in_win;
            }
            let mut at = merged.len();
            for n in &mut next {
                (*n, at) = (at, at + *n);
            }
            merged.resize(at, filler);
            for (t, ring) in srcs.iter().enumerate() {
                for &(cycle, event) in ring.iter_from(pos[t]).take(end[t] - pos[t]) {
                    let at = &mut next[(cycle - start) as usize];
                    merged[*at] = TraceRecord {
                        cycle,
                        track: track_of[t],
                        event,
                    };
                    *at += 1;
                }
                pos[t] = end[t];
            }
        }
        merged
    };
    // Every SM's `j`-th row sits at the `j + 1`-th sample boundary, so
    // taking row `j` of each SM in id order, `j` by `j`, is (cycle, SM id)
    // order without a sort.
    let rows = sms.iter().map(|s| s.samples.len()).max().unwrap_or(0);
    let mut sm_samples = Vec::with_capacity(sms.iter().map(|s| s.samples.len()).sum());
    for j in 0..rows {
        sm_samples.extend(sms.iter().filter_map(|s| s.samples.get(j).copied()));
    }
    debug_assert!(sm_samples.is_sorted_by_key(|r: &SampleRow| (r.cycle, r.sm)));
    let mem_samples = mem.map_or_else(Vec::new, |m| m.samples);
    TelemetryReport {
        events,
        sm_samples,
        mem_samples,
        tracks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A track recording `cycles` in order, as `WarpStall` events whose
    /// slot is the append index: the record's seq, written independently
    /// of the merge.
    fn track<T>(
        cycles: &[u64],
        cap: usize,
        mut wrap: impl FnMut(Ring<(u64, TelemetryEvent)>) -> T,
    ) -> T {
        let mut ring = Ring::new(cap);
        for (i, &cycle) in cycles.iter().enumerate() {
            let event = TelemetryEvent::WarpStall {
                slot: i as u32,
                reason: StallReason::Scoreboard,
            };
            ring.push((cycle, event));
        }
        wrap(ring)
    }

    #[test]
    fn assemble_merges_in_canonical_order() {
        let cfg = TelemetryConfig::default();
        let sm = |cycles: &[u64], cap| {
            track(cycles, cap, |ring| SmTelemetry {
                ring,
                ..SmTelemetry::new(&cfg)
            })
        };
        // Same-cycle bursts, ties across tracks, gaps far wider than a merge
        // window, an empty track, and an overflowed ring whose first kept
        // event has seq 2.
        let sms = vec![
            sm(&[0, 0, 3, 255, 256, 256, 10_000, 10_000, 10_001], 64),
            sm(&[], 64),
            sm(&[0, 3, 3, 256, 511, 512, 700, 9_999, 10_000], 64),
            sm(&[1, 2, 5, 5, 5, 1_000_000], 4),
        ];
        let mem = track(&[0, 3, 256, 256, 600, 10_000, u64::MAX], 64, |ring| {
            MemTelemetry {
                ring,
                ..MemTelemetry::new(&cfg)
            }
        });
        let report = assemble(sms, Some(mem));
        let seq = |r: &TraceRecord| match r.event {
            TelemetryEvent::WarpStall { slot, .. } => slot,
            _ => unreachable!("every test event is a WarpStall"),
        };
        let mut want = report.events.clone();
        want.sort_by_key(|r| (r.cycle, r.track.rank(), seq(r)));
        assert_eq!(report.events, want);
        assert_eq!(report.events.len(), 9 + 9 + 4 + 7);
        // A track's records keep their order: the i-th has seq dropped + i.
        for t in &report.tracks {
            let seqs: Vec<u64> = report
                .events
                .iter()
                .filter(|r| r.track == t.track)
                .map(|r| u64::from(seq(r)))
                .collect();
            let derived: Vec<u64> = (t.dropped..t.appended).collect();
            assert_eq!(seqs, derived, "{:?}", t.track);
        }
        assert_eq!(report.tracks[3].dropped, 2);
        assert_eq!(report.dropped(), 2);
        assert_eq!(report.appended(), 9 + 9 + 6 + 7);
    }

    #[test]
    fn ring_grows_without_moving_entries_and_wraps_at_capacity() {
        // A capacity that is no multiple of the chunk size: the last chunk
        // is short, and the wrap happens exactly at the capacity.
        let cap = 2 * RING_CHUNK + 452;
        let mut ring = Ring::new(cap);
        ring.push(0usize);
        let first: *const usize = ring.get(0);
        for v in 1..cap {
            ring.push(v);
        }
        assert!(std::ptr::eq(first, ring.get(0)), "growth moved an entry");
        for v in cap..cap + 3500 {
            ring.push(v);
        }
        assert_eq!(
            (ring.len(), ring.first_seq(), ring.appended()),
            (cap, 3500, (cap + 3500) as u64)
        );
        assert!((0..cap).all(|i| *ring.get(i) == 3500 + i));
        assert_eq!(ring.chunks.iter().map(Vec::capacity).sum::<usize>(), cap);
        // Reading on from any entry crosses chunk ends and the wrap point
        // (the oldest entry is stored at 1000, so logical 1500 is stored
        // at 0).
        assert_eq!(ring.head, 1000);
        for from in [
            0,
            1,
            600,
            RING_CHUNK - 1,
            RING_CHUNK,
            1499,
            1500,
            cap - 1,
            cap,
        ] {
            let read: Vec<usize> = ring.iter_from(from).copied().collect();
            assert_eq!(
                read,
                (3500 + from..3500 + cap).collect::<Vec<_>>(),
                "{from}"
            );
        }
    }

    #[test]
    fn trace_records_are_32_bytes() {
        // The merged trace is the bulk of a traced run's fresh memory.
        assert_eq!(std::mem::size_of::<TraceRecord>(), 32);
    }
}
