//! Cross-crate integration tests: end-to-end properties the paper's
//! evaluation relies on.

use gpu_resource_sharing::core::SchedulerKind;
use gpu_resource_sharing::isa::reg::Reg;
use gpu_resource_sharing::isa::{Instr, Op};
use gpu_resource_sharing::prelude::*;

fn small(mut k: gpu_resource_sharing::isa::Kernel) -> gpu_resource_sharing::isa::Kernel {
    k.grid_blocks = 56;
    k
}

#[test]
fn simulations_are_deterministic() {
    let k = small(workloads::set1::hotspot());
    for cfg in [
        RunConfig::baseline_lrr(),
        RunConfig::baseline_gto(),
        RunConfig::paper_register_sharing(),
    ] {
        let a = Simulator::new(cfg.clone()).run(&k);
        let b = Simulator::new(cfg).run(&k);
        assert_eq!(a, b);
    }
}

#[test]
fn every_benchmark_completes_under_every_headline_config() {
    for (set, k) in workloads::all_benchmarks() {
        let k = small(k);
        let cfgs = [
            RunConfig::baseline_lrr(),
            RunConfig::baseline_gto(),
            RunConfig::baseline_two_level(),
            RunConfig::paper_register_sharing(),
            RunConfig::paper_scratchpad_sharing(),
        ];
        for cfg in cfgs {
            let stats = Simulator::new(cfg.clone()).run(&k);
            assert!(
                !stats.timed_out,
                "{:?} {} timed out under {:?}",
                set, k.name, cfg.scheduler
            );
            assert_eq!(
                stats.blocks_completed,
                u64::from(k.grid_blocks),
                "{:?} {} lost blocks",
                set,
                k.name
            );
            // Every dynamic instruction issues exactly once.
            assert_eq!(
                stats.thread_instrs,
                k.total_thread_instrs() - missing_threads_correction(&k),
                "{} instruction count mismatch",
                k.name
            );
        }
    }
}

/// `total_thread_instrs` assumes full warps; partial warps (e.g. b+tree's
/// 508-thread blocks) execute fewer thread-instructions.
fn missing_threads_correction(k: &gpu_resource_sharing::isa::Kernel) -> u64 {
    let full = k.warps_per_block() * 32;
    let missing = u64::from(full - k.threads_per_block);
    missing * k.dynamic_instrs_per_warp() * u64::from(k.grid_blocks)
}

#[test]
fn set3_sharing_is_bit_identical_to_baseline() {
    // Paper Sec. VI-B2: resource-unlimited kernels launch everything in
    // unsharing mode, so Shared-LRR == Unshared-LRR and Shared-GTO ==
    // Unshared-GTO exactly.
    for k in workloads::set3_benchmarks() {
        let k = small(k);
        for (base, shared_sched) in [
            (RunConfig::baseline_lrr(), SchedulerKind::Lrr),
            (RunConfig::baseline_gto(), SchedulerKind::Gto),
        ] {
            let unshared = Simulator::new(base).run(&k);
            let shared = Simulator::new(
                RunConfig::paper_register_sharing()
                    .with_scheduler(shared_sched)
                    .with_reorder_decls(false)
                    .with_dyn_throttle(false),
            )
            .run(&k);
            assert_eq!(unshared, shared, "{}", k.name);
        }
    }
}

#[test]
fn owf_degenerates_to_gto_without_sharing() {
    // Paper Sec. VI-B2: with every block unshared, OWF sorts by dynamic warp
    // id, matching GTO.
    for k in workloads::set3_benchmarks() {
        let k = small(k);
        let gto = Simulator::new(RunConfig::baseline_gto()).run(&k);
        let owf =
            Simulator::new(RunConfig::baseline_lrr().with_scheduler(SchedulerKind::Owf)).run(&k);
        assert_eq!(gto.cycles, owf.cycles, "{}", k.name);
        assert_eq!(gto.thread_instrs, owf.thread_instrs, "{}", k.name);
    }
}

#[test]
fn sharing_never_reduces_resident_blocks() {
    for (_, k) in workloads::all_benchmarks() {
        for cfg in [
            RunConfig::paper_register_sharing(),
            RunConfig::paper_scratchpad_sharing(),
        ] {
            let sim = Simulator::new(cfg);
            let plan = sim.plan_for(&k);
            assert!(
                plan.max_blocks >= plan.baseline_blocks,
                "{}: {plan:?}",
                k.name
            );
            assert!(
                plan.effective_blocks() >= plan.baseline_blocks,
                "{}: {plan:?}",
                k.name
            );
        }
    }
}

#[test]
fn register_sharing_lifts_resident_blocks_for_set1() {
    // Fig. 8(a): every Set-1 kernel gains resident blocks at t = 0.1.
    let expect = [6u32, 3, 6, 8, 6, 6, 8, 3];
    for (k, expected) in workloads::set1_benchmarks().iter().zip(expect) {
        let plan = Simulator::new(RunConfig::paper_register_sharing()).plan_for(k);
        assert_eq!(plan.max_blocks, expected, "{}", k.name);
    }
}

#[test]
fn scratchpad_sharing_lifts_resident_blocks_for_set2() {
    // Fig. 8(b): every Set-2 kernel gains resident blocks at t = 0.1.
    let expect = [8u32, 4, 4, 8, 8, 4, 5];
    for (k, expected) in workloads::set2_benchmarks().iter().zip(expect) {
        let plan = Simulator::new(RunConfig::paper_scratchpad_sharing()).plan_for(k);
        assert_eq!(plan.max_blocks, expected, "{}", k.name);
    }
}

#[test]
fn simulated_residency_matches_plan() {
    // Every Set-1 kernel under register sharing and every Set-2 kernel
    // under scratchpad sharing reaches exactly its plan's resident blocks.
    // Two SMs and a grid of two full waves keep it cheap while giving every
    // SM enough blocks to fill up to the plan.
    for (kernels, mut cfg) in [
        (
            workloads::set1_benchmarks(),
            RunConfig::paper_register_sharing(),
        ),
        (
            workloads::set2_benchmarks(),
            RunConfig::paper_scratchpad_sharing(),
        ),
    ] {
        cfg.gpu.num_sms = 2;
        let sim = Simulator::new(cfg);
        for mut k in kernels {
            let plan = sim.plan_for(&k);
            k.grid_blocks = 2 * 2 * plan.max_blocks;
            let stats = sim.run(&k);
            assert_eq!(stats.max_resident_blocks, plan.max_blocks, "{}", k.name);
        }
    }
}

/// Two blocks of two warps running a loop nest: the outer loop (id
/// `outer`) runs an IALU and then the inner loop (id `inner`, one IALU),
/// each loop three times (two trips back).
fn nested_loops(outer: u8, inner: u8) -> Kernel {
    let ialu = Instr::new(Op::IAlu, Some(Reg(0)), &[]);
    let back = |target, loop_id| {
        let op = Op::BranchBack {
            target,
            trips: 2,
            loop_id,
        };
        Instr::new(op, None, &[])
    };
    let exit = Instr::new(Op::Exit, None, &[]);
    let program = Program::new(vec![ialu, ialu, back(1, inner), back(0, outer), exit]);
    Kernel::new(format!("loops-{outer}-{inner}"), 64, 4, 0, 2, program)
}

#[test]
fn loop_ids_past_63_keep_their_own_trip_counters() {
    // `validate` accepts any `u8` loop id. Ids 64 and 67 alias 0 and 3 in
    // any 64-bit mask; {0, 1} is the control.
    for (outer, inner) in [(0, 1), (0, 64), (3, 67)] {
        let k = nested_loops(outer, inner);
        let warps = u64::from(k.grid_blocks * k.warps_per_block());
        for fast_forward in [false, true] {
            let mut cfg = RunConfig::baseline_lrr().with_fast_forward(fast_forward);
            cfg.max_cycles = 100_000;
            let stats = Simulator::new(cfg).run(&k);
            let at = format!("loops {{{outer}, {inner}}}, fast-forward {fast_forward}");
            assert!(!stats.timed_out, "{at}: spun to the cycle bound");
            assert_eq!(stats.warp_instrs, k.program.dynamic_len() * warps, "{at}");
        }
    }
}
