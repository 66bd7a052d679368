//! Property tests over randomly generated kernels: the simulator must
//! complete them deterministically, retire exactly the grid's dynamic
//! instruction count, and never deadlock under any sharing configuration.
//!
//! Kernels are drawn from the seeded generator families
//! (`workloads::gen`) rather than an ad-hoc local spec: every stress
//! profile the differential harness exercises — pointer chasing, bursty
//! phases, barrier fences, divergent tiles, MSHR thrash, mixed — flows
//! through the end-to-end completion and no-deadlock properties too.
//!
//! The same kernels with hostile values written into their public fields
//! must end in a report or an error, never a panic.

use gpu_resource_sharing::isa::instr::MAX_SRCS;
use gpu_resource_sharing::isa::reg::Reg;
use gpu_resource_sharing::isa::{Op, SharedPattern};
use gpu_resource_sharing::prelude::*;
use grs_bench::service::job_key;
use proptest::prelude::*;
use workloads::gen::{Family, GenSpec, SizeClass};

/// Any `(family, seed)` point at the small size class.
fn spec() -> impl Strategy<Value = GenSpec> {
    (0usize..Family::ALL.len(), 0u64..u64::MAX).prop_map(|(fam, seed)| GenSpec {
        family: Family::ALL[fam],
        seed,
        size: SizeClass::Small,
    })
}

/// Tile, span, offset and byte counts at and around the edges.
const SIZES: [u32; 5] = [0, 1, 32, 33, u32::MAX];

/// Any `Op` variant: sizes from [`SIZES`], Scatter transaction counts of
/// 0, 33 and 255, and branch fields at their extremes.
fn hostile_op() -> impl Strategy<Value = Op> {
    let size = || (0usize..SIZES.len()).prop_map(|i| SIZES[i]);
    let edge16 = || (0usize..3).prop_map(|i| [0, 1, u16::MAX][i]);
    let variants = (0usize..13, 0usize..4, size(), size(), 0usize..3);
    let branch = (edge16(), edge16(), 0usize..4);
    (variants, branch).prop_map(|((v, g, a, b, t), (target, trips, l))| {
        let global = match g {
            0 => GlobalPattern::Stream,
            1 => GlobalPattern::BlockTile { tile_lines: a },
            2 => GlobalPattern::KernelTile { tile_lines: a },
            _ => GlobalPattern::Scatter {
                span_lines: a,
                txns: [0, 33, 255][t],
            },
        };
        let shared = SharedPattern::new(a, b);
        match v {
            0 => Op::IAlu,
            1 => Op::IMul,
            2 => Op::FAdd,
            3 => Op::FMul,
            4 => Op::FFma,
            5 => Op::Sfu,
            6 => Op::LdGlobal(global),
            7 => Op::StGlobal(global),
            8 => Op::LdShared(shared),
            9 => Op::StShared(shared),
            10 => Op::Barrier,
            11 => Op::BranchBack {
                target,
                trips,
                loop_id: [0, 63, 64, u8::MAX][l],
            },
            _ => Op::Exit,
        }
    })
}

/// One hostile value written into a public field of a kernel. `at` names
/// an instruction, modulo the program's length.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Op { at: usize, op: Op },
    Dst { at: usize, dst: Option<Reg> },
    Src { at: usize, slot: usize, reg: Reg },
    Nsrc { at: usize, nsrc: u8 },
    Smem(u32),
    Grid(u32),
}

fn edit() -> impl Strategy<Value = Edit> {
    let at = || 0usize..64;
    let reg = || any::<bool>().prop_map(|max| Reg(if max { u16::MAX } else { 0 }));
    prop_oneof![
        (at(), hostile_op()).prop_map(|(at, op)| Edit::Op { at, op }),
        (at(), any::<bool>(), reg()).prop_map(|(at, some, r)| Edit::Dst {
            at,
            dst: some.then_some(r),
        }),
        (at(), 0..MAX_SRCS, reg()).prop_map(|(at, slot, reg)| Edit::Src { at, slot, reg }),
        (at(), 0u8..=255).prop_map(|(at, nsrc)| Edit::Nsrc { at, nsrc }),
        any::<bool>().prop_map(|max| Edit::Smem(if max { u32::MAX } else { 0 })),
        (0usize..4).prop_map(|i| Edit::Grid([0, 1, 29, 100_000][i])),
    ]
}

fn apply(k: &mut Kernel, edit: Edit) {
    let instrs = &mut k.program.instrs;
    let n = instrs.len();
    match edit {
        Edit::Op { at, op } => instrs[at % n].op = op,
        Edit::Dst { at, dst } => instrs[at % n].dst = dst,
        Edit::Src { at, slot, reg } => instrs[at % n].srcs[slot] = reg,
        Edit::Nsrc { at, nsrc } => instrs[at % n].nsrc = nsrc,
        Edit::Smem(bytes) => k.smem_per_block = bytes,
        Edit::Grid(blocks) => k.grid_blocks = blocks,
    }
}

proptest! {
    // `PROPTEST_CASES` scales this property alone.
    #![proptest_config(ProptestConfig::with_cases(
        proptest::test_runner::cases_from_env("PROPTEST_CASES", 32),
    ))]

    #[test]
    fn hostile_kernels_end_in_a_report_or_an_error(
        s in spec(),
        edits in proptest::collection::vec(edit(), 1..4),
    ) {
        let mut k = s.build();
        for &e in &edits {
            apply(&mut k, e);
        }
        let mut cfg = RunConfig::baseline_lrr();
        cfg.gpu.num_sms = 2;
        cfg.max_cycles = 200_000;
        for instr in &k.program.instrs {
            instr.disasm();
        }
        job_key(&cfg, &k, None);
        let rejected = gpu_resource_sharing::isa::validate(&k).is_err();
        let outcome = Simulator::new(cfg).try_run_report(&k);
        prop_assert!(!rejected || outcome.is_err(), "ran a kernel validate rejects");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_kernels_complete_and_count_instructions(s in spec()) {
        let k = s.build();
        prop_assert!(gpu_resource_sharing::isa::validate(&k).is_ok());
        let mut cfg = RunConfig::baseline_lrr();
        cfg.gpu.num_sms = 2;
        cfg.max_cycles = 20_000_000;
        let stats = Simulator::new(cfg).run(&k);
        prop_assert!(!stats.timed_out, "{} timed out", s.scenario_name());
        prop_assert_eq!(stats.blocks_completed, u64::from(k.grid_blocks));
        let expected = k.dynamic_instrs_per_warp()
            * u64::from(k.warps_per_block())
            * u64::from(k.grid_blocks);
        prop_assert_eq!(stats.warp_instrs, expected);
    }

    #[test]
    fn random_kernels_never_deadlock_under_sharing(s in spec()) {
        let k = s.build();
        for base in [RunConfig::paper_register_sharing(), RunConfig::paper_scratchpad_sharing()] {
            let mut cfg = base;
            cfg.gpu.num_sms = 2;
            cfg.max_cycles = 20_000_000;
            match Simulator::new(cfg).try_run(&k) {
                Ok(stats) => {
                    prop_assert!(!stats.timed_out, "deadlock/livelock: {}", s.scenario_name());
                    prop_assert_eq!(stats.blocks_completed, u64::from(k.grid_blocks));
                }
                Err(e) => {
                    // Only legitimate rejection: the kernel does not fit.
                    prop_assert!(matches!(e, gpu_resource_sharing::sim::run::RunError::KernelDoesNotFit));
                }
            }
        }
    }

    #[test]
    fn launch_plan_invariants(regs in 1u32..=63, threads in 1u32..=1024, smem in 0u32..=16384, t in 0.01f64..=1.0) {
        let sm = GpuConfig::paper_baseline().sm;
        let fp = KernelFootprint { threads_per_block: threads, regs_per_thread: regs, smem_per_block: smem };
        let threshold = Threshold::new(t).unwrap();
        for res in [ResourceKind::Registers, ResourceKind::Scratchpad] {
            let plan = compute_launch_plan(&sm, &fp, threshold, res);
            // eq. (3): M = U + 2S
            prop_assert_eq!(plan.max_blocks, plan.unshared + 2 * plan.shared_pairs);
            // effective blocks never below baseline (paper Sec. III-C goal)
            prop_assert!(plan.effective_blocks() >= plan.baseline_blocks);
            // eq. (2): capacity bound
            let rtb = f64::from(fp.per_block(res));
            let cap = match res {
                ResourceKind::Registers => f64::from(sm.registers),
                ResourceKind::Scratchpad => f64::from(sm.scratchpad_bytes),
            };
            let used = f64::from(plan.unshared) * rtb
                + f64::from(plan.shared_pairs) * (1.0 + threshold.t()) * rtb;
            prop_assert!(used <= cap + 1e-6, "plan {plan:?} uses {used} of {cap}");
            // Sec. II clamps
            prop_assert!(plan.max_blocks <= sm.max_blocks);
            prop_assert!(plan.max_blocks * threads <= sm.max_threads || plan.max_blocks <= 1);
        }
    }
}
