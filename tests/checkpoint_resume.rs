//! The checkpoint/resume contract: running a simulation as a sequence of
//! snapshot-bounded spans (`RunConfig::checkpoint_every`) is **bit-identical**
//! to the straight run, for any checkpoint interval, across the scheduler ×
//! sharing × memory-model matrix — plus a property test over random
//! intervals and kernels (pinned seeds in `proptest-regressions/`). The
//! span boundary must be completely unobservable in every `SimStats` field.

use gpu_resource_sharing::core::SchedulerKind;
use gpu_resource_sharing::isa::GlobalPattern as GP;
use gpu_resource_sharing::prelude::*;
use gpu_resource_sharing::sim::{MemoryModel, RunOutcome};
use proptest::prelude::*;

fn kernels() -> Vec<gpu_resource_sharing::isa::Kernel> {
    let mut hotspot = workloads::set1::hotspot();
    hotspot.grid_blocks = 28;
    let mut conv1 = workloads::set2::conv1();
    conv1.grid_blocks = 28;
    vec![hotspot, conv1]
}

fn config(sched: SchedulerKind, sharing: SharingMode, model: MemoryModel) -> RunConfig {
    let base = match sharing {
        SharingMode::None => RunConfig::baseline_lrr(),
        SharingMode::Registers => RunConfig::paper_register_sharing(),
        SharingMode::Scratchpad => {
            // Throttle on, so snapshots carry live RNG streams and window
            // state across the boundary.
            let mut cfg = RunConfig::paper_scratchpad_sharing();
            cfg.dyn_throttle = true;
            cfg
        }
    };
    let mut cfg = base.with_scheduler(sched).with_memory_model(model);
    cfg.gpu.num_sms = 4;
    cfg
}

#[test]
fn checkpointed_runs_are_bit_identical_across_the_full_matrix() {
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
    let models = [MemoryModel::Functional, MemoryModel::Event];
    for kernel in kernels() {
        for sched in schedulers {
            for sharing in sharing_modes {
                for model in models {
                    let cfg = config(sched, sharing, model);
                    let straight = Simulator::new(cfg.clone()).run(&kernel);
                    assert!(!straight.timed_out, "{}", kernel.name);
                    // A deliberately odd interval, so boundaries land at
                    // arbitrary cycles (never aligned with anything).
                    let report =
                        Simulator::new(cfg.with_checkpoint_every(Some(137))).run_report(&kernel);
                    assert!(report.completed());
                    assert!(
                        report.checkpoints > 0,
                        "{} finished in < 137 cycles?",
                        kernel.name
                    );
                    assert_eq!(
                        report.stats, straight,
                        "{} under {sched:?} × {sharing:?} × {model:?} diverges when checkpointed",
                        kernel.name
                    );
                }
            }
        }
    }
}

#[test]
fn a_checkpointed_timeout_matches_the_straight_timeout() {
    // max_cycles can cut a span short; the truncated statistics must match
    // the straight truncated run and report TimedOut.
    let kernel = &kernels()[1];
    let cfg =
        config(SchedulerKind::Lrr, SharingMode::None, MemoryModel::Event).with_max_cycles(5_000);
    let straight = Simulator::new(cfg.clone()).run(kernel);
    assert!(straight.timed_out);
    let report = Simulator::new(cfg.with_checkpoint_every(Some(333))).run_report(kernel);
    assert_eq!(report.stats, straight);
    assert_eq!(report.outcome, RunOutcome::TimedOut);
}

#[test]
fn a_zero_interval_is_treated_as_disabled() {
    let kernel = &kernels()[0];
    let cfg = config(
        SchedulerKind::Gto,
        SharingMode::Registers,
        MemoryModel::Event,
    );
    let straight = Simulator::new(cfg.clone()).run(kernel);
    let report = Simulator::new(cfg.with_checkpoint_every(Some(0))).run_report(kernel);
    assert_eq!(report.stats, straight);
    assert_eq!(report.checkpoints, 0);
}

#[derive(Debug, Clone)]
struct Case {
    threads_log2: u32,
    regs: u32,
    grid: u32,
    alu: u32,
    trips: u16,
    every: u64,
}

fn case() -> impl Strategy<Value = Case> {
    (
        0u32..=3,
        4u32..=48,
        1u32..=24,
        1u32..=6,
        0u16..=10,
        1u64..=5_000, // checkpoint interval: boundaries at random cycles
    )
        .prop_map(|(tl, regs, grid, alu, trips, every)| Case {
            threads_log2: tl,
            regs,
            grid,
            alu,
            trips,
            every,
        })
}

fn build(c: &Case) -> gpu_resource_sharing::isa::Kernel {
    let mut b = KernelBuilder::new("ckptprop")
        .threads_per_block(32 << c.threads_log2)
        .regs_per_thread(c.regs)
        .grid_blocks(c.grid);
    let top = b.here();
    b = b
        .ld_global(GP::Stream)
        .ialu(c.alu)
        .ffma(2)
        .loop_back(top, c.trips)
        .st_global(GP::Stream);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn resuming_at_a_random_cycle_is_bit_identical(c in case()) {
        let k = build(&c);
        let mut cfg = RunConfig::paper_register_sharing().with_memory_model(MemoryModel::Event);
        cfg.gpu.num_sms = 2;
        cfg.max_cycles = 2_000_000;
        let straight = Simulator::new(cfg.clone()).try_run(&k);
        let spanned = Simulator::new(cfg.with_checkpoint_every(Some(c.every)))
            .try_run_report(&k)
            .map(|r| r.stats);
        prop_assert_eq!(spanned, straight, "case {:?}", c);
    }
}
