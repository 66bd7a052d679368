//! The fast-forward engine's contract: `SimStats` — every field, including
//! the stall/idle/empty cycle split, per-SM breakdowns and memory counters —
//! is **bit-identical** with `RunConfig::fast_forward` on or off. The matrix
//! covers all four schedulers crossed with all three sharing modes on a
//! compute-bound kernel, a memory-latency-bound one, a pair-lock-bound one
//! and one held at the per-warp MSHR limit, each run to completion and cut
//! short by `max_cycles`, plus both memory presets at the timing wheels'
//! two edges and a property test over random kernels (pinned seeds in
//! `proptest-regressions/`).

use gpu_resource_sharing::core::{LatencyConfig, SchedulerKind};
use gpu_resource_sharing::isa::GlobalPattern as GP;
use gpu_resource_sharing::prelude::*;
use proptest::prelude::*;

/// hotspot: register-limited and compute-heavy. conv1: scratchpad-limited
/// with streaming global loads and a per-iteration barrier — the
/// memory-latency-bound shape whose dead cycles the engine skips.
fn kernels() -> Vec<gpu_resource_sharing::isa::Kernel> {
    let mut hotspot = workloads::set1::hotspot();
    hotspot.grid_blocks = 28;
    let mut conv1 = workloads::set2::conv1();
    conv1.grid_blocks = 28;
    vec![hotspot, conv1]
}

/// One matrix kernel with the machine tweak it runs under and a check that
/// it reaches the engine path it is in the matrix for.
struct Leg {
    kernel: gpu_resource_sharing::isa::Kernel,
    /// Override of `mem.max_pending_per_warp`.
    max_pending_per_warp: Option<u32>,
    /// Does a full run under register sharing and this scheduler reach the
    /// leg's path?
    reaches: fn(SchedulerKind, &SimStats) -> bool,
    path: &'static str,
}

/// The matrix legs: hotspot and conv1 ([`kernels`]) plus LIB, whose
/// register-sharing warps spend most of the run in pair-lock busy-waits
/// (the SM sleeps through them as idle spans), and backprop with a
/// per-warp limit of 2 in-flight global-memory instructions (the SM sleeps
/// through it as stall spans, with the memory gate always open). Under
/// register sharing hotspot's non-owner loads meet the throttle: SM0's
/// probability is pinned at 0, so its holds are cached outcomes, and under
/// LRR a window close moves another SM's probability off 1, after which
/// that SM's non-owner loads are denied too.
fn legs() -> Vec<Leg> {
    let [hotspot, conv1]: [_; 2] = kernels().try_into().expect("two kernels");
    let mut lib = workloads::set1::lib();
    lib.grid_blocks = 28;
    let mut backprop = workloads::set1::backprop();
    backprop.grid_blocks = 28;
    let any = |_: SchedulerKind, _: &SimStats| true;
    vec![
        Leg {
            kernel: hotspot,
            max_pending_per_warp: None,
            reaches: |sched, s| {
                s.per_sm[0].throttled_issues > 0
                    && (sched != SchedulerKind::Lrr
                        || s.per_sm[1..].iter().any(|sm| sm.throttled_issues > 0))
            },
            path: "throttle holds on SM0 (under LRR, denials on another SM too)",
        },
        Leg {
            kernel: conv1,
            max_pending_per_warp: None,
            reaches: any,
            path: "-",
        },
        Leg {
            kernel: lib,
            max_pending_per_warp: None,
            reaches: |_, s| s.lock_retries > 0,
            path: "pair-lock busy-waits",
        },
        Leg {
            kernel: backprop,
            max_pending_per_warp: Some(2),
            reaches: |_, s| s.stall_cycles > 0 && s.mshr_full_stalls == 0,
            path: "stalls at the per-warp MSHR limit",
        },
    ]
}

fn config(sched: SchedulerKind, sharing: SharingMode) -> RunConfig {
    let base = match sharing {
        SharingMode::None => RunConfig::baseline_lrr(),
        SharingMode::Registers => RunConfig::paper_register_sharing(),
        SharingMode::Scratchpad => {
            // Enable the throttle so its RNG stream and window arithmetic
            // are exercised across skipped spans too.
            let mut cfg = RunConfig::paper_scratchpad_sharing();
            cfg.dyn_throttle = true;
            cfg
        }
    };
    let mut cfg = base.with_scheduler(sched);
    cfg.gpu.num_sms = 4;
    cfg
}

#[test]
fn fast_forward_is_bit_identical_across_the_full_matrix() {
    let schedulers = [
        SchedulerKind::Lrr,
        SchedulerKind::Gto,
        SchedulerKind::TwoLevel { group_size: 8 },
        SchedulerKind::Owf,
    ];
    let sharing_modes = [
        SharingMode::None,
        SharingMode::Registers,
        SharingMode::Scratchpad,
    ];
    for leg in legs() {
        let kernel = &leg.kernel;
        for sched in schedulers {
            for sharing in sharing_modes {
                let mut cfg = config(sched, sharing);
                if let Some(n) = leg.max_pending_per_warp {
                    cfg.gpu.mem.max_pending_per_warp = n;
                }
                let fast = Simulator::new(cfg.clone().with_fast_forward(true)).run(kernel);
                let reference = Simulator::new(cfg.clone().with_fast_forward(false)).run(kernel);
                assert_eq!(
                    fast, reference,
                    "{} under {sched:?} × {sharing:?} diverges with fast-forward",
                    kernel.name
                );
                assert!(!fast.timed_out, "{}", kernel.name);
                assert_eq!(fast.blocks_completed, u64::from(kernel.grid_blocks));
                if sharing == SharingMode::Registers {
                    assert!(
                        (leg.reaches)(sched, &fast),
                        "{} under {sched:?} × {sharing:?} no longer reaches {}",
                        kernel.name,
                        leg.path
                    );
                }

                // Cut short mid-run: the cycle bound interrupts sleep spans
                // (credited at the end) and clamps fast-forward jumps. The
                // odd offset keeps the cut off round cycle counts.
                let max_cycles = fast.cycles / 2 + 7;
                let cut = cfg.with_max_cycles(max_cycles);
                let fast = Simulator::new(cut.clone().with_fast_forward(true)).run(kernel);
                let reference = Simulator::new(cut.with_fast_forward(false)).run(kernel);
                assert_eq!(
                    fast, reference,
                    "{} under {sched:?} × {sharing:?} diverges when cut at {max_cycles}",
                    kernel.name
                );
                assert!(fast.timed_out, "{}", kernel.name);
                assert_eq!(fast.cycles, max_cycles);
            }
        }
    }
}

/// The timing wheels' two edges, under both memory presets. With every
/// latency 0, each completion is pushed at its issue cycle, which has
/// already drained, and is deferred to the next; with a 5,000-cycle DRAM
/// latency, every miss completes past the 1,024-cycle ring and waits on the
/// overflow list until the ring reaches it.
#[test]
fn fast_forward_is_bit_identical_at_the_wheel_edges() {
    for kernel in &kernels() {
        for model in [MemoryModel::Functional, MemoryModel::Event] {
            for edge in ["zero latency", "DRAM 5000"] {
                let mut cfg =
                    config(SchedulerKind::Owf, SharingMode::Registers).with_memory_model(model);
                if edge == "zero latency" {
                    cfg.gpu.lat = LatencyConfig {
                        ialu: 0,
                        imul: 0,
                        fp: 0,
                        sfu: 0,
                        scratchpad: 0,
                    };
                    cfg.gpu.mem.l1_hit_latency = 0;
                    cfg.gpu.mem.l2_latency = 0;
                    cfg.gpu.mem.dram_latency = 0;
                } else {
                    cfg.gpu.mem.dram_latency = 5_000;
                }
                let fast = Simulator::new(cfg.clone().with_fast_forward(true)).run(kernel);
                let reference = Simulator::new(cfg.with_fast_forward(false)).run(kernel);
                assert_eq!(
                    fast, reference,
                    "{} under {model:?} at {edge} diverges with fast-forward",
                    kernel.name
                );
                assert!(!fast.timed_out, "{} under {model:?} at {edge}", kernel.name);
                assert_eq!(fast.blocks_completed, u64::from(kernel.grid_blocks));
            }
        }
    }
}

#[test]
fn fast_forward_actually_skips_on_a_latency_bound_kernel() {
    // Guard against the equivalence test passing vacuously because the
    // engine never engages: on the memory-latency-bound kernel the simulated
    // cycle count must dwarf the number of cycles the fast path physically
    // executes, which we bound from below via idle cycles per SM.
    let kernel = &kernels()[1];
    let cfg = config(SchedulerKind::Lrr, SharingMode::None);
    let stats = Simulator::new(cfg).run(kernel);
    let per_sm_cycles = stats.cycles * u64::from(4u32);
    let dead = stats.idle_cycles + stats.empty_cycles;
    assert!(
        dead * 2 > per_sm_cycles,
        "scenario is not latency-bound: {dead} dead of {per_sm_cycles} SM-cycles"
    );
}

#[derive(Debug, Clone)]
struct KernelSpec {
    threads_log2: u32,
    regs: u32,
    smem: u32,
    grid: u32,
    alu: u32,
    mem_kind: u8,
    trips: u16,
    barrier: bool,
}

fn spec() -> impl Strategy<Value = KernelSpec> {
    (
        0u32..=3,    // threads = 32 << n
        4u32..=48,   // regs/thread
        0u32..=6000, // smem/block
        1u32..=24,   // grid blocks
        1u32..=6,    // alu per iteration
        0u8..=3,     // memory pattern
        0u16..=10,   // loop trips
        proptest::bool::ANY,
    )
        .prop_map(
            |(tl, regs, smem, grid, alu, mem_kind, trips, barrier)| KernelSpec {
                threads_log2: tl,
                regs,
                smem,
                grid,
                alu,
                mem_kind,
                trips,
                barrier,
            },
        )
}

fn build(s: &KernelSpec) -> gpu_resource_sharing::isa::Kernel {
    let mut b = KernelBuilder::new("ffprop")
        .threads_per_block(32 << s.threads_log2)
        .regs_per_thread(s.regs)
        .smem_per_block(s.smem)
        .grid_blocks(s.grid);
    let top = b.here();
    b = match s.mem_kind {
        0 => b.ld_global(GP::Stream),
        1 => b.ld_global(GP::BlockTile { tile_lines: 16 }),
        2 => b.ld_global(GP::Scatter {
            span_lines: 64,
            txns: 2,
        }),
        _ => b.ld_global(GP::KernelTile { tile_lines: 16 }),
    };
    b = b.ialu(s.alu).ffma(2);
    if s.smem > 64 {
        b = b
            .st_shared(0, 64.min(s.smem / 2))
            .ld_shared(s.smem / 2, 64.min(s.smem - s.smem / 2));
    }
    if s.barrier {
        b = b.barrier();
    }
    b = b.loop_back(top, s.trips).st_global(GP::Stream);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_kernels_are_bit_identical_under_fast_forward(s in spec()) {
        let k = build(&s);
        for base in [
            RunConfig::baseline_lrr(),
            RunConfig::baseline_gto(),
            RunConfig::paper_register_sharing(),
            RunConfig::paper_scratchpad_sharing(),
        ] {
            let mut cfg = base;
            cfg.gpu.num_sms = 2;
            cfg.max_cycles = 2_000_000;
            let fast = Simulator::new(cfg.clone().with_fast_forward(true)).try_run(&k);
            let reference = Simulator::new(cfg.clone().with_fast_forward(false)).try_run(&k);
            prop_assert_eq!(fast, reference, "spec {:?} under {:?}", s, cfg.scheduler);
        }
    }
}
