//! Contract of the memory system's two presets and of finite buffers (the
//! `MemoryModel::Event` preset and smaller):
//!
//! 1. **The presets differ only in buffer sizes.** The `Event` preset with
//!    its three sizes idealized — one partition, unlimited MSHR entries, an
//!    unbounded DRAM queue — must reproduce the `Functional` preset
//!    **bit-identically**, over the full 4-scheduler × 3-sharing matrix.
//!    A preset that touched any other field, or a code path keyed on the
//!    preset rather than on the sizes, breaks it.
//! 2. **Engine equivalence under back-pressure.** With *finite* buffers the
//!    fast-forward engine must credit gated sleep spans (stall cycles,
//!    MSHR-full / queue-full counters, throttle windows) in closed form:
//!    `fast_forward` on ≡ off, bit for bit.
//! 3. **Back-pressure exists.** On the latency-bound bench scenario
//!    (CONV1 at one wave, DRAM round-trip 1600) the `Event` preset reports
//!    nonzero MSHR-full stalls and queue-occupancy integrals.
//! 4. **Merges exist.** Warps reading one kernel-wide tile merge into
//!    in-flight MSHR entries instead of re-paying DRAM.
//! 5. **No deadlock.** Finite (even tiny) MSHR tables and DRAM queues never
//!    wedge a run — a property test over random kernels, seeds pinned in
//!    `proptest-regressions/`.
//!
//! The unlimited-buffer default (`Functional` preset) is pinned to absolute
//! numbers by `tests/golden_stats.rs`.

use gpu_resource_sharing::core::SchedulerKind;
use gpu_resource_sharing::isa::GlobalPattern as GP;
use gpu_resource_sharing::prelude::*;
use proptest::prelude::*;

fn kernels() -> Vec<gpu_resource_sharing::isa::Kernel> {
    let mut hotspot = workloads::set1::hotspot();
    hotspot.grid_blocks = 28;
    let mut conv1 = workloads::set2::conv1();
    conv1.grid_blocks = 28;
    vec![hotspot, conv1]
}

fn config(sched: SchedulerKind, sharing: SharingMode) -> RunConfig {
    let base = match sharing {
        SharingMode::None => RunConfig::baseline_lrr(),
        SharingMode::Registers => RunConfig::paper_register_sharing(),
        SharingMode::Scratchpad => {
            let mut cfg = RunConfig::paper_scratchpad_sharing();
            cfg.dyn_throttle = true;
            cfg
        }
    };
    let mut cfg = base.with_scheduler(sched);
    cfg.gpu.num_sms = 4;
    cfg
}

const SCHEDULERS: [SchedulerKind; 4] = [
    SchedulerKind::Lrr,
    SchedulerKind::Gto,
    SchedulerKind::TwoLevel { group_size: 8 },
    SchedulerKind::Owf,
];
const SHARING: [SharingMode; 3] = [
    SharingMode::None,
    SharingMode::Registers,
    SharingMode::Scratchpad,
];

/// The `Event` preset with its buffers idealized. The sizes are set after
/// the preset, which would otherwise overwrite them.
fn idealize(cfg: RunConfig) -> RunConfig {
    let mut cfg = cfg.with_memory_model(MemoryModel::Event);
    cfg.gpu.mem.mem_partitions = 1;
    cfg.gpu.mem.mshr_entries = 0; // unlimited
    cfg.gpu.mem.dram_queue_entries = 0; // unbounded
    cfg
}

#[test]
fn idealized_event_model_reproduces_functional_bit_identically() {
    for kernel in kernels() {
        for sched in SCHEDULERS {
            for sharing in SHARING {
                let cfg = config(sched, sharing);
                let functional =
                    Simulator::new(cfg.clone().with_memory_model(MemoryModel::Functional))
                        .run(&kernel);
                let event = Simulator::new(idealize(cfg)).run(&kernel);
                assert_eq!(
                    event, functional,
                    "{} under {sched:?} × {sharing:?}: idealized Event diverges",
                    kernel.name
                );
                assert!(!event.timed_out, "{}", kernel.name);
            }
        }
    }
}

/// Finite-buffer configuration used by the engine-equivalence test: small
/// enough tables that CONV1's streaming misses saturate them. The sizes are
/// set after the preset, which would otherwise overwrite them.
fn constrained(cfg: RunConfig) -> RunConfig {
    let mut cfg = cfg.with_memory_model(MemoryModel::Event);
    cfg.gpu.mem.mem_partitions = 2;
    cfg.gpu.mem.mshr_entries = 4;
    cfg.gpu.mem.dram_queue_entries = 4;
    cfg
}

#[test]
fn finite_buffers_are_bit_identical_under_fast_forward() {
    for kernel in kernels() {
        for sched in SCHEDULERS {
            for sharing in SHARING {
                let cfg = constrained(config(sched, sharing));
                let fast = Simulator::new(cfg.clone().with_fast_forward(true)).run(&kernel);
                let reference = Simulator::new(cfg.with_fast_forward(false)).run(&kernel);
                assert_eq!(
                    fast, reference,
                    "{} under {sched:?} × {sharing:?}: gated sleep crediting diverges",
                    kernel.name
                );
                assert!(!fast.timed_out, "{}", kernel.name);
                assert_eq!(fast.blocks_completed, u64::from(kernel.grid_blocks));
            }
        }
    }
}

#[test]
fn latency_bound_scenario_builds_up_post_issue_contention() {
    // The bench scenario (conv1-28 at DRAM round-trip 1600) at the Event
    // preset's sizes: in-flight misses pile up in the MSHR tables and DRAM
    // queues, back-pressure SM issue, and show up in the counters — the
    // load-dependent latency that unlimited buffers cannot express.
    let mut kernel = workloads::set2::conv1();
    kernel.grid_blocks = 28;
    let mut cfg = RunConfig::baseline_lrr().with_memory_model(MemoryModel::Event);
    cfg.gpu.mem.dram_latency = 1600;
    let stats = Simulator::new(cfg.clone()).run(&kernel);
    assert!(!stats.timed_out);
    assert_eq!(stats.blocks_completed, 28);
    assert!(stats.mshr_full_stalls > 0, "no MSHR back-pressure observed");
    assert!(
        stats.mem.mshr_occupancy_cycles > 0 && stats.mem.dram_queue_occupancy_cycles > 0,
        "occupancy integrals empty: mshr {} dramq {}",
        stats.mem.mshr_occupancy_cycles,
        stats.mem.dram_queue_occupancy_cycles
    );
    assert!(stats.mem.peak_mshr_occupancy > 0);
    // Back-pressure must also be *visible* in the paper's stall split.
    assert!(stats.stall_cycles > 0);
    // Determinism: the event machinery introduces no hidden state.
    let again = Simulator::new(cfg).run(&kernel);
    assert_eq!(stats, again);
}

#[test]
fn merges_save_dram_traffic_under_in_flight_sharing() {
    // Every block reads the same kernel-wide tile: the first warp to touch a
    // line starts its DRAM fill, and every other warp touching it inside the
    // fill window must merge into the in-flight MSHR entry (hit-under-miss)
    // instead of paying for — or re-issuing — the DRAM access.
    let kernel = KernelBuilder::new("shared-tile")
        .threads_per_block(256)
        .regs_per_thread(16)
        .grid_blocks(16)
        .ld_global(GP::KernelTile { tile_lines: 256 })
        .ialu(1)
        .build();
    let mut cfg = RunConfig::baseline_lrr().with_memory_model(MemoryModel::Event);
    cfg.gpu.num_sms = 4;
    cfg.gpu.mem.dram_latency = 800; // wide fill window
    let stats = Simulator::new(cfg).run(&kernel);
    assert!(!stats.timed_out);
    assert!(
        stats.mem.mshr_merges > 0,
        "no hit-under-miss merges observed"
    );
}

#[derive(Debug, Clone)]
struct KernelSpec {
    threads_log2: u32,
    regs: u32,
    grid: u32,
    alu: u32,
    mem_kind: u8,
    trips: u16,
    barrier: bool,
}

fn spec() -> impl Strategy<Value = KernelSpec> {
    (
        0u32..=2,  // threads = 32 << n
        4u32..=40, // regs/thread
        1u32..=16, // grid blocks
        1u32..=4,  // alu per iteration
        0u8..=3,   // memory pattern
        0u16..=8,  // loop trips
        proptest::bool::ANY,
    )
        .prop_map(
            |(tl, regs, grid, alu, mem_kind, trips, barrier)| KernelSpec {
                threads_log2: tl,
                regs,
                grid,
                alu,
                mem_kind,
                trips,
                barrier,
            },
        )
}

fn build(s: &KernelSpec) -> gpu_resource_sharing::isa::Kernel {
    let mut b = KernelBuilder::new("evprop")
        .threads_per_block(32 << s.threads_log2)
        .regs_per_thread(s.regs)
        .grid_blocks(s.grid);
    let top = b.here();
    b = match s.mem_kind {
        0 => b.ld_global(GP::Stream),
        1 => b.ld_global(GP::BlockTile { tile_lines: 16 }),
        2 => b.ld_global(GP::Scatter {
            span_lines: 64,
            txns: 8, // more transactions than one tiny MSHR table holds
        }),
        _ => b.ld_global(GP::KernelTile { tile_lines: 16 }),
    };
    b = b.ialu(s.alu).ffma(1);
    if s.barrier {
        b = b.barrier();
    }
    b = b.loop_back(top, s.trips).st_global(GP::Stream);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Tiny finite tables (including instructions whose transaction count
    /// exceeds the whole MSHR limit, which the empty-table soft-limit rule
    /// must admit) never deadlock, with the engine on or off.
    #[test]
    fn finite_mshrs_never_deadlock(s in spec()) {
        let k = build(&s);
        for base in [RunConfig::baseline_lrr(), RunConfig::paper_register_sharing()] {
            // Sizes after the preset, which would otherwise overwrite them.
            let mut cfg = base.with_memory_model(MemoryModel::Event);
            cfg.gpu.num_sms = 2;
            cfg.gpu.mem.mem_partitions = 2;
            cfg.gpu.mem.mshr_entries = 2;
            cfg.gpu.mem.dram_queue_entries = 2;
            cfg.max_cycles = 3_000_000;
            let fast = Simulator::new(cfg.clone().with_fast_forward(true)).try_run(&k);
            let reference = Simulator::new(cfg.with_fast_forward(false)).try_run(&k);
            prop_assert_eq!(&fast, &reference, "spec {:?}", s);
            if let Ok(stats) = fast {
                prop_assert!(!stats.timed_out, "spec {:?} wedged", s);
                prop_assert_eq!(stats.blocks_completed, u64::from(k.grid_blocks));
            }
        }
    }
}
