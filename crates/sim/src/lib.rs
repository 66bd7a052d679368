//! # grs-sim — cycle-level SIMT GPU simulator
//!
//! The evaluation substrate of the reproduction: a from-scratch, deterministic
//! cycle-level model of the paper's Table I GPU (the role GPGPU-Sim v3.x plays
//! in the original work). Per cycle, each SM's scheduler units pick ready
//! warps and issue instructions in order; long-latency results return through
//! a writeback queue; global memory flows through a per-SM L1, a shared L2
//! with bandwidth limits, and a DRAM latency/service model; the
//! resource-sharing runtime from [`grs_core`] gates shared register and
//! scratchpad accesses through the paper's Fig. 3/Fig. 4 automata.
//!
//! Execution is event-driven where cycle-accuracy permits: writebacks live
//! in a slab-backed timing wheel ([`wheel`]) that stops allocating once it
//! has held its peak event count, the per-cycle readiness scan is
//! incremental (only warps whose state could have changed are re-examined),
//! and when no SM can make progress the run loop fast-forwards the clock to
//! the next writeback while crediting the skipped span to the same idle /
//! empty counters the per-cycle loop would have produced — statistics are
//! bit-identical with [`RunConfig::fast_forward`] on or off, and the
//! per-cycle loop stays as the oracle the fast path is diffed against.
//!
//! Every run goes through a small supervisor ([`supervise`]): an optional
//! forward-progress watchdog and opt-in telemetry, neither of which changes
//! a statistic.
//!
//! Global memory is one model ([`mem::SharedMem`]): the L2 is sliced into
//! memory partitions with MSHR tables and DRAM request queues, every line
//! transaction is timed on its own, and a global-memory instruction
//! completes once, at its last transaction's cycle. The buffer sizes are
//! `MemConfig` parameters; [`MemoryModel`] names two presets of them. The
//! default, `Functional`, buffers without limit, so each transaction's
//! latency is fixed the cycle it issues. `Event` sets Table I's finite
//! sizes, whose back-pressure gates SM issue — congestion builds up
//! *after* issue, the way it does in hardware. See `ARCHITECTURE.md` at the
//! repository root for the full execution-path map.
//!
//! The top-level API is [`Simulator`]: configure a [`RunConfig`], call
//! [`Simulator::run`] on a [`grs_isa::Kernel`], read the [`SimStats`].
//!
//! ```
//! use grs_core::{GpuConfig, SchedulerKind, Threshold};
//! use grs_isa::{GlobalPattern, KernelBuilder};
//! use grs_sim::{RunConfig, SharingMode, Simulator};
//!
//! let kernel = KernelBuilder::new("axpy")
//!     .threads_per_block(128)
//!     .regs_per_thread(16)
//!     .grid_blocks(32)
//!     .ld_global(GlobalPattern::Stream)
//!     .ffma(4)
//!     .st_global(GlobalPattern::Stream)
//!     .build();
//!
//! let baseline = Simulator::new(RunConfig::baseline_lrr()).run(&kernel);
//! let shared = Simulator::new(RunConfig::paper_register_sharing()).run(&kernel);
//! assert!(shared.ipc() > 0.0 && baseline.ipc() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod block;
pub mod cache;
pub mod dispatch;
pub mod gpu;
pub mod kinfo;
pub mod mem;
pub mod rng;
pub mod run;
pub mod server;
pub mod sm;
pub mod stats;
pub mod supervise;
pub mod telemetry;
pub mod warp;
pub mod wheel;

pub use mem::MemoryModel;
pub use run::{Machine, RunConfig, SharingMode, Simulator};
pub use stats::{MemStats, SimStats, SmStats};
pub use supervise::{MemDiag, RunOutcome, RunReport, ServiceStats, SmDiag, StallDiagnosis};
pub use telemetry::{
    MemSampleRow, SampleRow, StallReason, TelemetryConfig, TelemetryEvent, TelemetryReport, Track,
    TrackTrace,
};
