//! # grs-core — the resource-sharing runtime
//!
//! This crate is the paper's primary contribution as a reusable library:
//! everything *Improving GPU Performance Through Resource Sharing* (Jatala,
//! Anantpur, Karkare; HPDC'16) adds on top of a baseline GPU, expressed as
//! pure, deterministic policy objects that a timing simulator (or, in
//! principle, RTL) drives:
//!
//! * [`config`] — the Table I machine description.
//! * [`occupancy`](mod@occupancy) — block-residency and resource-waste
//!   arithmetic (paper Sec. I-A, Fig. 1).
//! * [`sharing`] — the launch-plan equations of Sec. III-C (`U + S = ⌊R/Rtb⌋`,
//!   `U·Rtb + S·Rtb(1+t) ≤ R`, `M = U + 2S`), the pair-lock automaton of
//!   Figs. 3–4 with the barrier-deadlock avoidance rule of Fig. 5, and
//!   block-pair ownership tracking/transfer (Sec. IV).
//! * [`sched`] — warp-scheduling policies: LRR, GTO, Two-Level and the
//!   paper's Owner-Warp-First (OWF).
//! * [`transform`] — the "Unrolling and Reordering of Register Declarations"
//!   compiler pass (Sec. IV-B, Fig. 7).
//! * [`dynwarp`] — the Dynamic Warp Execution throttle (Sec. IV-C).
//! * [`hw_cost`] — the hardware storage-overhead formulas of Sec. V.
//!
//! All of it is IO-free, allocation-light, and fully deterministic, so the
//! simulator built on top is reproducible bit-for-bit.
//!
//! The paper's motivating example (Sec. I-A) in four lines: hotspot's
//! 36 regs × 256 threads leave 3 resident blocks and 5120 wasted registers;
//! register sharing at the default threshold `t = 0.1` doubles residency.
//!
//! ```
//! use grs_core::{compute_launch_plan, occupancy, GpuConfig, KernelFootprint};
//! use grs_core::{ResourceKind, Threshold};
//!
//! let sm = GpuConfig::paper_baseline().sm;
//! let hotspot = KernelFootprint { threads_per_block: 256, regs_per_thread: 36, smem_per_block: 0 };
//!
//! let occ = occupancy(&sm, &hotspot);
//! assert_eq!((occ.blocks, occ.wasted_registers), (3, 5120));
//!
//! let plan = compute_launch_plan(&sm, &hotspot, Threshold::paper_default(), ResourceKind::Registers);
//! assert_eq!((plan.unshared, plan.shared_pairs, plan.max_blocks), (0, 3, 6));
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod dynwarp;
pub mod hw_cost;
pub mod occupancy;
pub mod sched;
pub mod sharing;
pub mod transform;

pub use config::{GpuConfig, LatencyConfig, MemConfig, SmConfig};
pub use dynwarp::DynThrottle;
pub use occupancy::{occupancy, Occupancy};
pub use sched::{Scheduler, SchedulerKind, SlotView, WarpClass, MAX_WARP_SLOTS};
pub use sharing::{
    compute_launch_plan, KernelFootprint, LaunchPlan, PairLock, PairMember, ResourceKind, Threshold,
};
pub use transform::reorder_declarations;
