//! Public simulation API: [`RunConfig`] + [`Simulator`].

use grs_core::{
    compute_launch_plan, occupancy, reorder_declarations, GpuConfig, KernelFootprint, LaunchPlan,
    ResourceKind, SchedulerKind, Threshold,
};
use grs_isa::Kernel;
use serde::{Deserialize, Serialize};

use crate::gpu::Gpu;
use crate::kinfo::KernelInfo;
use crate::mem::{MemoryModel, SharedMem};
use crate::stats::SimStats;
use crate::supervise::RunReport;
use crate::telemetry::TelemetryConfig;

/// Whether (and which) resource sharing is active for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SharingMode {
    /// Baseline: block-granularity allocation only.
    None,
    /// Register sharing (paper Sec. III-A).
    Registers,
    /// Scratchpad sharing (paper Sec. III-B).
    Scratchpad,
}

impl SharingMode {
    /// The shared resource, if any.
    pub fn resource(self) -> Option<ResourceKind> {
        match self {
            SharingMode::None => None,
            SharingMode::Registers => Some(ResourceKind::Registers),
            SharingMode::Scratchpad => Some(ResourceKind::Scratchpad),
        }
    }
}

/// Full configuration of one simulation run. The named constructors cover
/// every configuration the paper evaluates; the `with_*` methods tweak
/// individual knobs for ablations.
///
/// # Example
///
/// The paper's register-sharing machine with GTO scheduling and the Table I
/// MSHR and DRAM-queue sizes, on a 2-SM machine for a quick run:
///
/// ```
/// use grs_core::SchedulerKind;
/// use grs_isa::{GlobalPattern, KernelBuilder};
/// use grs_sim::{MemoryModel, RunConfig, SharingMode, Simulator};
///
/// let mut cfg = RunConfig::paper_register_sharing()
///     .with_scheduler(SchedulerKind::Gto)
///     .with_memory_model(MemoryModel::Event);
/// assert_eq!(cfg.sharing, SharingMode::Registers);
/// cfg.gpu.num_sms = 2;
///
/// let kernel = KernelBuilder::new("stream")
///     .threads_per_block(128)
///     .regs_per_thread(24)
///     .grid_blocks(8)
///     .ld_global(GlobalPattern::Stream)
///     .ffma(2)
///     .build();
/// let stats = Simulator::new(cfg).run(&kernel);
/// assert_eq!(stats.blocks_completed, 8);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Machine description (Table I by default).
    pub gpu: GpuConfig,
    /// Warp scheduler.
    pub scheduler: SchedulerKind,
    /// Sharing mode.
    pub sharing: SharingMode,
    /// Sharing threshold `t`.
    pub threshold: Threshold,
    /// Dynamic warp-execution throttle (paper Sec. IV-C).
    pub dyn_throttle: bool,
    /// Apply the declaration-reordering pass (paper Sec. IV-B) before
    /// simulating.
    pub reorder_decls: bool,
    /// Event-driven fast-forward engine: skip spans of cycles in which no SM
    /// can make progress (see the `grs_sim::gpu` module docs). Statistics
    /// are bit-identical with the engine on or off; the knob exists so tests
    /// and the perf gate can diff the fast path against the per-cycle
    /// reference.
    pub fast_forward: bool,
    /// Cycle-level telemetry: structured event tracing and periodic metric
    /// sampling (see the [`crate::telemetry`] module docs). `None` (the
    /// default) records nothing and adds no per-cycle work. Tracing is
    /// **observation-only**: [`SimStats`] are bit-identical with telemetry
    /// on or off, pinned by `tests/telemetry.rs` across the full scheduler ×
    /// sharing × memory-preset matrix on both engines.
    pub telemetry: Option<TelemetryConfig>,
    /// Forward-progress watchdog window, in cycles. If the run reaches a
    /// cycle at least this far past the last provable progress (an issued
    /// instruction or a scheduled writeback/capacity release) while SMs are
    /// still live, the run ends with
    /// [`RunOutcome::Stalled`](crate::supervise::RunOutcome) and a
    /// structured [`StallDiagnosis`](crate::supervise::StallDiagnosis)
    /// instead of spinning to [`Self::max_cycles`]. `None` (the default)
    /// disables the watchdog; windows below
    /// [`MIN_WATCHDOG_WINDOW`](crate::supervise::MIN_WATCHDOG_WINDOW) are
    /// raised to it. The trip cycle is engine-invariant.
    pub watchdog: Option<u64>,
    /// Safety bound on simulated cycles.
    pub max_cycles: u64,
}

impl RunConfig {
    const DEFAULT_MAX_CYCLES: u64 = 50_000_000;

    /// The paper's baseline: unshared, LRR scheduling (labelled
    /// `Unshared-LRR` in the figures).
    pub fn baseline_lrr() -> Self {
        RunConfig {
            gpu: GpuConfig::paper_baseline(),
            scheduler: SchedulerKind::Lrr,
            sharing: SharingMode::None,
            threshold: Threshold::paper_default(),
            dyn_throttle: false,
            reorder_decls: false,
            fast_forward: true,
            telemetry: None,
            watchdog: None,
            max_cycles: Self::DEFAULT_MAX_CYCLES,
        }
    }

    /// Unshared baseline with GTO scheduling (`Unshared-GTO`, Fig. 10(a,b)).
    pub fn baseline_gto() -> Self {
        RunConfig {
            scheduler: SchedulerKind::Gto,
            ..Self::baseline_lrr()
        }
    }

    /// Unshared baseline with two-level scheduling (Fig. 10(c,d); the paper
    /// uses fetch groups of 8).
    pub fn baseline_two_level() -> Self {
        RunConfig {
            scheduler: SchedulerKind::TwoLevel { group_size: 8 },
            ..Self::baseline_lrr()
        }
    }

    /// The paper's full register-sharing configuration
    /// (`Shared-OWF-Unroll-Dyn`): OWF scheduling, declaration reordering,
    /// dynamic throttle, t = 0.1.
    pub fn paper_register_sharing() -> Self {
        RunConfig {
            scheduler: SchedulerKind::Owf,
            sharing: SharingMode::Registers,
            dyn_throttle: true,
            reorder_decls: true,
            ..Self::baseline_lrr()
        }
    }

    /// The paper's full scratchpad-sharing configuration (`Shared-OWF`):
    /// OWF scheduling, t = 0.1. (Unroll and Dyn are register-sharing
    /// optimizations; the paper does not apply them to scratchpad sharing.)
    pub fn paper_scratchpad_sharing() -> Self {
        RunConfig {
            scheduler: SchedulerKind::Owf,
            sharing: SharingMode::Scratchpad,
            ..Self::baseline_lrr()
        }
    }

    /// Replace the scheduler.
    pub fn with_scheduler(mut self, s: SchedulerKind) -> Self {
        self.scheduler = s;
        self
    }

    /// Replace the sharing mode.
    pub fn with_sharing(mut self, s: SharingMode) -> Self {
        self.sharing = s;
        self
    }

    /// Replace the threshold.
    pub fn with_threshold(mut self, t: Threshold) -> Self {
        self.threshold = t;
        self
    }

    /// Enable/disable the dynamic throttle.
    pub fn with_dyn_throttle(mut self, on: bool) -> Self {
        self.dyn_throttle = on;
        self
    }

    /// Enable/disable declaration reordering.
    pub fn with_reorder_decls(mut self, on: bool) -> Self {
        self.reorder_decls = on;
        self
    }

    /// Enable/disable the event-driven fast-forward engine (on by default;
    /// off runs the cycle-by-cycle reference loop — same statistics, slower).
    pub fn with_fast_forward(mut self, on: bool) -> Self {
        self.fast_forward = on;
        self
    }

    /// Set the memory system's three buffer sizes to preset `m` (see
    /// [`MemoryModel`]; the defaults are the `Functional` preset). This
    /// overwrites `gpu.mem.{mem_partitions, mshr_entries,
    /// dram_queue_entries}`, so adjust any of them by hand *after* picking
    /// the preset.
    pub fn with_memory_model(mut self, m: MemoryModel) -> Self {
        m.apply(&mut self.gpu.mem);
        self
    }

    /// Enable cycle-level telemetry (`None` = off; see [`Self::telemetry`]).
    pub fn with_telemetry(mut self, t: Option<TelemetryConfig>) -> Self {
        self.telemetry = t;
        self
    }

    /// Set the forward-progress watchdog window (`None` = disabled; see
    /// [`Self::watchdog`]).
    pub fn with_watchdog(mut self, w: Option<u64>) -> Self {
        self.watchdog = w;
        self
    }

    /// Replace the machine description.
    pub fn with_gpu(mut self, gpu: GpuConfig) -> Self {
        self.gpu = gpu;
        self
    }

    /// Replace the cycle bound.
    pub fn with_max_cycles(mut self, c: u64) -> Self {
        self.max_cycles = c;
        self
    }
}

/// Errors a run can fail with before simulation starts.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The kernel failed static validation.
    InvalidKernel(grs_isa::ValidateError),
    /// The simulator's scoreboard supports at most 64 registers per thread.
    TooManyRegisters {
        /// Registers the kernel declares.
        regs: u32,
    },
    /// Not even one block fits on an SM.
    KernelDoesNotFit,
    /// A machine-description field that must be nonzero is zero (no SMs, no
    /// warp schedulers, zero-byte cache lines, zero-way caches or no memory
    /// partitions): the machine could never run a block, or would silently
    /// run as a different one.
    DegenerateMachine {
        /// The offending `GpuConfig` field.
        field: &'static str,
    },
    /// A cache's associativity exceeds the lines it holds (for the L2, the
    /// lines of one partition's slice), so not even one set fits. Checked
    /// before building the machine, whose tag store would otherwise grow to
    /// `ways` lines.
    CacheWaysExceedLines {
        /// The offending `GpuConfig` field.
        field: &'static str,
        /// The configured associativity.
        ways: u32,
        /// Lines the cache (or L2 slice) holds.
        lines: u64,
    },
    /// `sm.schedulers` exceeds the SM's warp slots (`sm.max_threads` /
    /// [`grs_isa::WARP_SIZE`]). Unit `u` owns the slots with
    /// `slot % schedulers == u`, so a unit past the slot count could never
    /// issue; checked before building the machine, whose schedulers
    /// allocate state per unit.
    TooManySchedulers {
        /// The configured scheduler units per SM.
        schedulers: u32,
        /// Warp slots per SM.
        warp_slots: u32,
    },
    /// The launch plan needs more warp slots per SM (`max_blocks ×` warps
    /// per block) than the simulator supports
    /// ([`grs_core::MAX_WARP_SLOTS`]): the scan and the schedulers keep one
    /// bit per warp slot in a `u64`. Checked before building the machine.
    TooManyWarpSlots {
        /// Warp slots the plan needs per SM.
        warp_slots: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::InvalidKernel(e) => write!(f, "invalid kernel: {e}"),
            RunError::TooManyRegisters { regs } => {
                write!(
                    f,
                    "kernel declares {regs} registers/thread; the simulator supports ≤ 64"
                )
            }
            RunError::KernelDoesNotFit => write!(f, "kernel does not fit on one SM"),
            RunError::DegenerateMachine { field } => {
                write!(f, "machine config `{field}` must be nonzero")
            }
            RunError::CacheWaysExceedLines { field, ways, lines } => {
                write!(
                    f,
                    "machine config `{field}` = {ways} exceeds the {lines} lines it indexes"
                )
            }
            RunError::TooManySchedulers {
                schedulers,
                warp_slots,
            } => write!(
                f,
                "machine config `sm.schedulers` = {schedulers} exceeds the {warp_slots} \
                 warp slots per SM"
            ),
            RunError::TooManyWarpSlots { warp_slots } => write!(
                f,
                "launch plan needs {warp_slots} warp slots per SM; the simulator supports ≤ {}",
                grs_core::MAX_WARP_SLOTS
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// The simulator front end.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: RunConfig,
}

impl Simulator {
    /// Create a simulator for `cfg`.
    pub fn new(cfg: RunConfig) -> Self {
        Simulator { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// Compute the launch plan this configuration gives `kernel` without
    /// simulating (paper Fig. 8(a,b) / Tables VI, VIII).
    pub fn plan_for(&self, kernel: &Kernel) -> LaunchPlan {
        let fp = KernelFootprint::of(kernel);
        match self.cfg.sharing.resource() {
            Some(res) => compute_launch_plan(&self.cfg.gpu.sm, &fp, self.cfg.threshold, res),
            None => {
                let occ = occupancy(&self.cfg.gpu.sm, &fp);
                LaunchPlan {
                    unshared: occ.blocks,
                    shared_pairs: 0,
                    max_blocks: occ.blocks,
                    baseline_blocks: occ.blocks,
                    resource: ResourceKind::Registers,
                }
            }
        }
    }

    /// Simulate `kernel`; returns statistics or a configuration error.
    ///
    /// Equivalent to [`Self::try_run_report`] with the outcome and
    /// telemetry discarded.
    pub fn try_run(&self, kernel: &Kernel) -> Result<SimStats, RunError> {
        self.try_run_report(kernel).map(|r| r.stats)
    }

    /// Simulate `kernel` under supervision; returns the full
    /// [`RunReport`] (statistics, outcome and telemetry) or a
    /// configuration error.
    pub fn try_run_report(&self, kernel: &Kernel) -> Result<RunReport, RunError> {
        let (gpu, kinfo) = self.prepare(kernel)?;
        Ok(crate::supervise::supervise(&self.cfg, gpu, &kinfo))
    }

    /// Validate the configuration and `kernel`, then build the machine that
    /// will run them.
    pub(crate) fn prepare(&self, kernel: &Kernel) -> Result<(Gpu, KernelInfo), RunError> {
        let gpu = &self.cfg.gpu;
        for (field, value) in [
            ("num_sms", gpu.num_sms),
            ("sm.schedulers", gpu.sm.schedulers),
            ("mem.line_bytes", gpu.mem.line_bytes),
            ("mem.l1_ways", gpu.mem.l1_ways),
            ("mem.l2_ways", gpu.mem.l2_ways),
            ("mem.mem_partitions", gpu.mem.mem_partitions),
        ] {
            if value == 0 {
                return Err(RunError::DegenerateMachine { field });
            }
        }
        let warp_slots = gpu.sm.max_threads / grs_isa::WARP_SIZE;
        if gpu.sm.schedulers > warp_slots {
            return Err(RunError::TooManySchedulers {
                schedulers: gpu.sm.schedulers,
                warp_slots,
            });
        }
        let mem = &gpu.mem;
        let l2_slices = mem.mem_partitions.min(SharedMem::MAX_PARTITIONS);
        for (field, ways, bytes) in [
            ("mem.l1_ways", mem.l1_ways, u64::from(mem.l1_bytes)),
            (
                "mem.l2_ways",
                mem.l2_ways,
                u64::from(mem.l2_bytes) / u64::from(l2_slices),
            ),
        ] {
            let lines = bytes / u64::from(mem.line_bytes);
            if u64::from(ways) > lines {
                return Err(RunError::CacheWaysExceedLines { field, ways, lines });
            }
        }
        grs_isa::validate(kernel).map_err(RunError::InvalidKernel)?;
        if kernel.regs_per_thread > 64 {
            return Err(RunError::TooManyRegisters {
                regs: kernel.regs_per_thread,
            });
        }
        let mut kernel = kernel.clone();
        if self.cfg.reorder_decls && self.cfg.sharing == SharingMode::Registers {
            reorder_declarations(&mut kernel);
        }
        let plan = self.plan_for(&kernel);
        if plan.max_blocks == 0 {
            return Err(RunError::KernelDoesNotFit);
        }
        let warp_slots = u64::from(plan.max_blocks) * u64::from(kernel.warps_per_block());
        if warp_slots > grs_core::MAX_WARP_SLOTS as u64 {
            return Err(RunError::TooManyWarpSlots { warp_slots });
        }
        let kinfo = KernelInfo::new(kernel, self.cfg.sharing.resource(), self.cfg.threshold);
        let gpu = Gpu::new(
            gpu,
            &kinfo,
            plan,
            self.cfg.scheduler,
            self.cfg.dyn_throttle,
            self.cfg.sharing.resource(),
            self.cfg.fast_forward,
            self.cfg.telemetry,
        );
        Ok((gpu, kinfo))
    }

    /// Simulate `kernel`; panics on configuration errors (convenience for
    /// examples, tests and the perf gate).
    pub fn run(&self, kernel: &Kernel) -> SimStats {
        self.try_run(kernel).expect("simulation failed")
    }

    /// Simulate `kernel` under supervision; panics on configuration errors.
    pub fn run_report(&self, kernel: &Kernel) -> RunReport {
        self.try_run_report(kernel).expect("simulation failed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_isa::{GlobalPattern, KernelBuilder};

    fn small_kernel() -> Kernel {
        KernelBuilder::new("k")
            .threads_per_block(64)
            .regs_per_thread(16)
            .grid_blocks(8)
            .ialu(4)
            .ld_global(GlobalPattern::Stream)
            .ffma(4)
            .build()
    }

    #[test]
    fn baseline_run_completes_grid() {
        let mut cfg = RunConfig::baseline_lrr();
        cfg.gpu.num_sms = 2;
        let stats = Simulator::new(cfg).run(&small_kernel());
        assert!(!stats.timed_out);
        assert_eq!(stats.blocks_completed, 8);
        assert!(stats.ipc() > 0.0);
        // 10 warp instrs per warp × 2 warps × 8 blocks.
        assert_eq!(stats.warp_instrs, 10 * 2 * 8);
        assert_eq!(stats.thread_instrs, stats.warp_instrs * 32);
    }

    #[test]
    fn determinism() {
        let mut cfg = RunConfig::paper_register_sharing();
        cfg.gpu.num_sms = 2;
        let a = Simulator::new(cfg.clone()).run(&small_kernel());
        let b = Simulator::new(cfg).run(&small_kernel());
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_kernel_is_rejected() {
        let mut k = small_kernel();
        k.grid_blocks = 0;
        let err = Simulator::new(RunConfig::baseline_lrr()).try_run(&k);
        assert!(matches!(err, Err(RunError::InvalidKernel(_))));
    }

    #[test]
    fn oversized_kernel_is_rejected() {
        let k = KernelBuilder::new("fat")
            .threads_per_block(1024)
            .regs_per_thread(40)
            .smem_per_block(0)
            .grid_blocks(1)
            .ialu(1)
            .build();
        // 40 × 1024 = 40960 registers > 32768: does not fit.
        let err = Simulator::new(RunConfig::baseline_lrr()).try_run(&k);
        assert_eq!(err, Err(RunError::KernelDoesNotFit));
    }

    #[test]
    fn too_many_registers_is_rejected() {
        let k = KernelBuilder::new("wide")
            .threads_per_block(32)
            .regs_per_thread(65)
            .grid_blocks(1)
            .ialu(1)
            .build();
        let err = Simulator::new(RunConfig::baseline_lrr()).try_run(&k);
        assert_eq!(err, Err(RunError::TooManyRegisters { regs: 65 }));
    }

    #[test]
    fn degenerate_machines_are_rejected() {
        for field in [
            "num_sms",
            "sm.schedulers",
            "mem.line_bytes",
            "mem.l1_ways",
            "mem.l2_ways",
            "mem.mem_partitions",
        ] {
            let mut cfg = RunConfig::baseline_lrr();
            let value = match field {
                "num_sms" => &mut cfg.gpu.num_sms,
                "sm.schedulers" => &mut cfg.gpu.sm.schedulers,
                "mem.line_bytes" => &mut cfg.gpu.mem.line_bytes,
                "mem.l1_ways" => &mut cfg.gpu.mem.l1_ways,
                "mem.l2_ways" => &mut cfg.gpu.mem.l2_ways,
                _ => &mut cfg.gpu.mem.mem_partitions,
            };
            *value = 0;
            let err = Simulator::new(cfg).try_run_report(&small_kernel());
            assert_eq!(err, Err(RunError::DegenerateMachine { field }));
        }
    }

    #[test]
    fn cache_ways_above_the_line_count_are_rejected() {
        for field in ["mem.l1_ways", "mem.l2_ways"] {
            let mut cfg = RunConfig::baseline_lrr();
            match field {
                "mem.l1_ways" => cfg.gpu.mem.l1_ways = u32::MAX,
                _ => cfg.gpu.mem.l2_ways = u32::MAX,
            }
            match Simulator::new(cfg).try_run_report(&small_kernel()) {
                Err(RunError::CacheWaysExceedLines { field: f, ways, .. }) => {
                    assert_eq!((f, ways), (field, u32::MAX));
                }
                other => panic!("{field}: {other:?}"),
            }
        }
        // The L2 bound is one partition's slice: 768 KB / 6 / 128 B.
        let mut cfg = RunConfig::baseline_lrr().with_memory_model(MemoryModel::Event);
        cfg.gpu.num_sms = 2;
        cfg.gpu.mem.l2_ways = 1025;
        let err = Simulator::new(cfg.clone()).try_run(&small_kernel());
        assert_eq!(
            err,
            Err(RunError::CacheWaysExceedLines {
                field: "mem.l2_ways",
                ways: 1025,
                lines: 1024
            })
        );
        // A fully associative slice is fine.
        cfg.gpu.mem.l2_ways = 1024;
        assert!(Simulator::new(cfg).try_run(&small_kernel()).is_ok());
    }

    #[test]
    fn schedulers_above_the_warp_slots_are_rejected() {
        // Table I: 1536 threads = 48 warp slots per SM.
        let mut cfg = RunConfig::baseline_lrr();
        cfg.gpu.num_sms = 2;
        cfg.gpu.sm.schedulers = 48;
        assert!(Simulator::new(cfg.clone()).try_run(&small_kernel()).is_ok());
        for schedulers in [49, u32::MAX] {
            cfg.gpu.sm.schedulers = schedulers;
            let err = Simulator::new(cfg.clone()).try_run_report(&small_kernel());
            assert_eq!(
                err,
                Err(RunError::TooManySchedulers {
                    schedulers,
                    warp_slots: 48
                })
            );
        }
    }

    #[test]
    fn warp_slots_above_64_are_rejected() {
        let kernel = |threads| {
            KernelBuilder::new("k")
                .threads_per_block(threads)
                .regs_per_thread(8)
                .grid_blocks(8)
                .ialu(4)
                .build()
        };
        // 4096 threads and 32 blocks of 4 warps: 128 warp slots.
        let mut cfg = RunConfig::baseline_lrr();
        cfg.gpu.num_sms = 2;
        cfg.gpu.sm.max_threads = 4096;
        cfg.gpu.sm.max_blocks = 32;
        let err = Simulator::new(cfg.clone()).try_run_report(&kernel(128));
        assert_eq!(err, Err(RunError::TooManyWarpSlots { warp_slots: 128 }));
        // Exactly 64 warp slots still run: 16 blocks of 4 warps, and 64
        // blocks of one partial warp.
        cfg.gpu.sm.max_threads = 2048;
        cfg.gpu.sm.max_blocks = 16;
        assert_eq!(
            Simulator::new(cfg.clone())
                .plan_for(&kernel(128))
                .max_blocks,
            16
        );
        assert!(Simulator::new(cfg.clone()).try_run(&kernel(128)).is_ok());
        cfg.gpu.sm.max_blocks = 64;
        assert_eq!(
            Simulator::new(cfg.clone()).plan_for(&kernel(16)).max_blocks,
            64
        );
        assert!(Simulator::new(cfg.clone()).try_run(&kernel(16)).is_ok());
        cfg.gpu.sm.max_blocks = 65;
        let err = Simulator::new(cfg).try_run_report(&kernel(16));
        assert_eq!(err, Err(RunError::TooManyWarpSlots { warp_slots: 65 }));
    }

    #[test]
    fn sharing_increases_resident_blocks_for_limited_kernel() {
        // hotspot-like footprint: 36 regs × 256 threads.
        let k = KernelBuilder::new("hotspotish")
            .threads_per_block(256)
            .regs_per_thread(36)
            .grid_blocks(28)
            .ialu(8)
            .build();
        let base = Simulator::new(RunConfig::baseline_lrr()).plan_for(&k);
        let shared = Simulator::new(RunConfig::paper_register_sharing()).plan_for(&k);
        assert_eq!(base.max_blocks, 3);
        assert_eq!(shared.max_blocks, 6);
    }
}
