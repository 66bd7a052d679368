//! Closed-form timing anchors: cycle counts of micro-kernels derived by
//! hand from the machine description, not blessed from the simulator.
//!
//! Every other timing anchor compares the simulator with itself (two
//! engines, two memory presets, golden files written by an earlier run), so
//! a model change that moves every engine the same way passes them. These
//! kernels are small enough that their cycle counts follow from
//! `LatencyConfig`, `MemConfig` and `SmConfig`; each expected value is that
//! formula over the configuration's fields, checked at several sizes and at
//! one non-default latency so that a formula matching only the defaults
//! fails.
//!
//! The machine is one SM running one block under Unshared-LRR on the
//! default memory (`MemConfig::default()`: unlimited MSHRs and DRAM queues,
//! one partition); the pair-lock anchors at the end run two blocks as one
//! shared pair under LRR instead. Two constants recur:
//!
//! * **`+ 1`**: a run's cycle count is the index of its last cycle plus
//!   one, and the last cycle is the one the final `Exit` issues in. An exit
//!   issues once its warp has no result pending, so it issues in the cycle
//!   the last result is written back (an SM drains the writebacks due in a
//!   cycle before it scans its warps, so a result due at cycle `c` is
//!   usable at `c`).
//! * **`l1 + l2 + dram`**: a load that misses the L1 and the L2 completes
//!   `l1_hit_latency + l2_latency + dram_latency` cycles after it issues
//!   when no other transaction queues ahead of it; an L1 hit completes
//!   `l1_hit_latency` after it issues.

use gpu_resource_sharing::isa::reg::Reg;
use gpu_resource_sharing::isa::{Instr, Op, SharedPattern};
use gpu_resource_sharing::prelude::*;

/// One SM, otherwise Table I under Unshared-LRR.
fn one_sm() -> RunConfig {
    let mut cfg = RunConfig::baseline_lrr();
    cfg.gpu.num_sms = 1;
    cfg
}

/// One block of `warps` full warps running `body`, then `Exit`.
fn kernel(warps: u32, body: Vec<Instr>) -> Kernel {
    let mut instrs = body;
    instrs.push(Instr::new(Op::Exit, None, &[]));
    Kernel::new("closed-form", 32 * warps, 16, 0, 1, Program::new(instrs))
}

/// `n` copies of `op` writing register 0 from register 0: each waits for
/// the previous one's result.
fn chain(op: Op, n: usize) -> Vec<Instr> {
    vec![Instr::new(op, Some(Reg(0)), &[Reg(0)]); n]
}

/// Statistics of `kernel` under `cfg`; every block must complete.
fn run(cfg: &RunConfig, kernel: &Kernel) -> SimStats {
    let stats = Simulator::new(cfg.clone()).run(kernel);
    assert_eq!(stats.blocks_completed, u64::from(kernel.grid_blocks));
    assert!(!stats.timed_out);
    stats
}

/// Simulated cycles of `kernel` under `cfg`; the block must complete.
fn cycles(cfg: &RunConfig, kernel: &Kernel) -> u64 {
    run(cfg, kernel).cycles
}

#[test]
fn a_dependent_alu_chain_costs_one_latency_per_link() {
    // The i-th link (0-based) issues at i·L, the cycle its source is
    // written back; the exit issues at n·L, when the last result is.
    let mut slow = one_sm();
    slow.gpu.lat.ialu = 7;
    for cfg in [one_sm(), slow] {
        let lat = cfg.gpu.lat;
        for n in [1u64, 2, 10, 100] {
            let ialu = kernel(1, chain(Op::IAlu, n as usize));
            assert_eq!(
                cycles(&cfg, &ialu),
                n * u64::from(lat.ialu) + 1,
                "IALU n={n}"
            );
            let sfu = kernel(1, chain(Op::Sfu, n as usize));
            assert_eq!(cycles(&cfg, &sfu), n * u64::from(lat.sfu) + 1, "SFU n={n}");
        }
    }
}

#[test]
fn independent_alu_streams_share_the_scheduler_units() {
    // Each warp issues 100 IALUs that depend on nothing in flight (a
    // register is rewritten every 8 instructions, later than any IALU
    // result returns). Warp slot `s` belongs to unit `s % units`, and a
    // unit issues one instruction per cycle, so the unit with the most
    // warps, ⌈w/units⌉, issues back to back for 100·⌈w/units⌉ cycles. Its
    // last IALU, issued in the last of those cycles, returns L later, and
    // that warp's exit issues then: 100·⌈w/units⌉ − 1 + L, plus one.
    let mut slow = one_sm();
    slow.gpu.lat.ialu = 7;
    for cfg in [one_sm(), slow] {
        let (units, lat) = (u64::from(cfg.gpu.sm.schedulers), cfg.gpu.lat.ialu);
        let body: Vec<Instr> = (0..100)
            .map(|i| Instr::new(Op::IAlu, Some(Reg(i % 8)), &[]))
            .collect();
        for w in [1u64, 2, 4, 8] {
            let k = kernel(w as u32, body.clone());
            let want = 100 * w.div_ceil(units) + u64::from(lat);
            assert_eq!(cycles(&cfg, &k), want, "w={w}, ialu={lat}");
        }
    }
}

#[test]
fn dependent_cold_loads_pay_the_whole_miss_path_each() {
    // One warp of 32 4-byte accesses is one 128-byte line, and a `Stream`
    // load moves to a line no earlier load touched, so each load misses the
    // L1 and the L2. Each issues when the previous one's data returns.
    let mut slow = one_sm();
    slow.gpu.mem.dram_latency = 300;
    for cfg in [one_sm(), slow] {
        let mem = cfg.gpu.mem;
        let miss = u64::from(mem.l1_hit_latency + mem.l2_latency + mem.dram_latency);
        for n in [1u64, 2, 10] {
            let k = kernel(1, chain(Op::LdGlobal(GlobalPattern::Stream), n as usize));
            assert_eq!(cycles(&cfg, &k), n * miss + 1, "n={n}, miss={miss}");
        }
    }
}

#[test]
fn dependent_scratchpad_loads_cost_one_latency_each() {
    // A scratchpad load writes its register back `lat.scratchpad` cycles
    // after it issues, and touches no cache: the i-th link issues at
    // i·L, and the exit at n·L.
    let mut slow = one_sm();
    slow.gpu.lat.scratchpad = 9;
    for cfg in [one_sm(), slow] {
        let lat = u64::from(cfg.gpu.lat.scratchpad);
        for n in [1u64, 2, 10] {
            let ld = Op::LdShared(SharedPattern::new(0, 128));
            let mut k = kernel(1, chain(ld, n as usize));
            k.smem_per_block = 128;
            assert_eq!(cycles(&cfg, &k), n * lat + 1, "n={n}, scratchpad={lat}");
        }
    }
}

#[test]
fn independent_cold_loads_wait_for_the_per_warp_limit() {
    // One warp issues n ≤ 8 cold `Stream` loads into distinct registers,
    // so no load waits on another's result; only `max_pending_per_warp`
    // (p) holds one back. Loads issue one per cycle until p are in flight;
    // load i then issues when load i − p returns, so it issues at
    // ⌊i/p⌋·miss + i mod p. Each transaction finds the L2 and DRAM
    // servers idle, because each serves a line in under a cycle
    // (`l2_service_q4` 1 and `dram_service_q4` 2 quarter-cycles) and at
    // most one load issues per cycle. The last load (i = n − 1) returns
    // `miss` after it issues, and the exit issues then.
    for dram in [100, 280, 300] {
        for p in 1..=6u64 {
            let mut cfg = one_sm();
            cfg.gpu.mem.dram_latency = dram;
            cfg.gpu.mem.max_pending_per_warp = p as u32;
            let mem = cfg.gpu.mem;
            assert!(mem.l2_service_q4 < 4 && mem.dram_service_q4 < 4);
            let miss = u64::from(mem.l1_hit_latency + mem.l2_latency + mem.dram_latency);
            for n in [1u64, 4, 7, 8] {
                let body: Vec<Instr> = (0..n)
                    .map(|i| {
                        let ld = Op::LdGlobal(GlobalPattern::Stream);
                        Instr::new(ld, Some(Reg(i as u16 % 8)), &[])
                    })
                    .collect();
                let want = ((n - 1) / p + 1) * miss + (n - 1) % p + 1;
                let k = kernel(1, body);
                assert_eq!(cycles(&cfg, &k), want, "p={p}, n={n}, dram={dram}");
            }
        }
    }
}

#[test]
fn a_one_line_tile_misses_once_then_hits_in_the_l1() {
    // Every load of a one-line `KernelTile` reads the same line: the first
    // misses both caches, and the L1 holds the line for the rest.
    let mut slow = one_sm();
    slow.gpu.mem.l1_hit_latency = 30;
    for cfg in [one_sm(), slow] {
        let mem = cfg.gpu.mem;
        let miss = u64::from(mem.l1_hit_latency + mem.l2_latency + mem.dram_latency);
        let hit = u64::from(mem.l1_hit_latency);
        let tile = Op::LdGlobal(GlobalPattern::KernelTile { tile_lines: 1 });
        for n in [2u64, 10] {
            let k = kernel(1, chain(tile, n as usize));
            assert_eq!(cycles(&cfg, &k), miss + hit * (n - 1) + 1, "n={n}");
        }
    }
}

/// `instrs`, then one more dependent IALU link.
fn then_a_link(mut instrs: Vec<Instr>) -> Vec<Instr> {
    instrs.extend(chain(Op::IAlu, 1));
    instrs
}

#[test]
fn a_barrier_releases_at_the_last_arrival() {
    // One scheduler unit issues one instruction a cycle. W warps each
    // issue the barrier first, at cycles 0..W−1, and it releases at the
    // last arrival, so the links issue at W..2W−1. Warp i's exit issues
    // at the later of its link's result, W + i + L, and the first issue
    // slot after the links, 2W + i: the last at 2W − 1 + max(L, W).
    let mut slow = one_sm();
    slow.gpu.lat.ialu = 7;
    for mut cfg in [one_sm(), slow] {
        cfg.gpu.sm.schedulers = 1;
        let lat = u64::from(cfg.gpu.lat.ialu);
        let body = then_a_link(vec![Instr::new(Op::Barrier, None, &[])]);
        for w in [1u64, 2, 3, 4, 8] {
            let k = kernel(w as u32, body.clone());
            let want = (2 * w + lat).max(3 * w);
            assert_eq!(cycles(&cfg, &k), want, "w={w}, ialu={lat}");
        }
    }
}

#[test]
fn a_barrier_issues_under_a_pending_result() {
    // One warp: n ≥ 1 dependent links, the barrier, then one more link.
    // The barrier reads no register, so it issues at (n−1)·L + 1, the cycle
    // after the last link, while that link's result is pending; a lone
    // warp's arrival is the last, so it releases at once. The final link
    // waits for the n-th result at n·L, and the exit for its own at
    // (n+1)·L. Two warps on two scheduler units, one per unit, arrive
    // together and take the same count.
    let mut slow = one_sm();
    slow.gpu.lat.ialu = 7;
    for cfg in [one_sm(), slow] {
        assert_eq!(cfg.gpu.sm.schedulers, 2);
        let mut one_unit = cfg.clone();
        one_unit.gpu.sm.schedulers = 1;
        let lat = u64::from(cfg.gpu.lat.ialu);
        for n in [1u64, 2, 10] {
            let mut body = chain(Op::IAlu, n as usize);
            body.push(Instr::new(Op::Barrier, None, &[]));
            let body = then_a_link(body);
            let want = (n + 1) * lat + 1;
            let one = kernel(1, body.clone());
            assert_eq!(cycles(&one_unit, &one), want, "n={n}, ialu={lat}");
            let two = kernel(2, body);
            assert_eq!(cycles(&cfg, &two), want, "two warps, n={n}, ialu={lat}");
        }
    }
}

/// `k` as two blocks on one SM that shares `mode` under LRR (no throttle,
/// no reordering, t = 0.1), with the shared resource cut to one and a half
/// blocks' worth: one block fits whole, and the half block left over holds
/// more than a partner's `t·Rtb` private part, so the plan is U = 0, S = 1
/// and both blocks are resident as one pair, block 0 in slot 0 (A) and
/// block 1 in slot 1 (B).
fn one_pair(mut cfg: RunConfig, mode: SharingMode, k: &mut Kernel) -> RunConfig {
    cfg = cfg.with_sharing(mode);
    match mode {
        SharingMode::Registers => cfg.gpu.sm.registers = k.regs_per_block() * 3 / 2,
        _ => cfg.gpu.sm.scratchpad_bytes = k.smem_per_block * 3 / 2,
    }
    k.grid_blocks = 2;
    let plan = Simulator::new(cfg.clone()).plan_for(k);
    assert_eq!(
        (plan.unshared, plan.shared_pairs, plan.max_blocks),
        (0, 1, 2)
    );
    cfg
}

#[test]
fn a_shared_register_passes_to_the_partner_when_the_owner_warp_exits() {
    // Two one-warp blocks, whose warps 0 share one lock. Each link reads
    // and writes register 15; with 16 registers a thread, the registers
    // from ⌊0.1·16⌋ = 1 up are shared, so every link needs the lock.
    // Cycle 0: both warps are ready, and block A's (slot 0) issues first
    // and takes the lock. B's warp loses it: on two scheduler units it is
    // picked in the same cycle and denied at issue (one retry), and on one
    // unit LRR starts at slot 0 and B is not picked. A runs alone: link i
    // at i·L, the exit at n·L, and the exit releases the lock. B waits on
    // the lock in cycles 1..=n·L (one retry each), sees it free in the
    // next scan, issues its first link at n·L + 1 and its exit at
    // 2n·L + 1. A chain on register 0, below the boundary, takes no lock:
    // on two units both warps issue every link together.
    let mut slow = one_sm();
    slow.gpu.lat.ialu = 7;
    for base in [one_sm(), slow] {
        let lat = u64::from(base.gpu.lat.ialu);
        let link = |r| Instr::new(Op::IAlu, Some(Reg(r)), &[Reg(r)]);
        for n in [1u64, 2, 10] {
            let mut k = kernel(1, vec![link(15); n as usize]);
            let mut cfg = one_pair(base.clone(), SharingMode::Registers, &mut k);
            for units in [1u64, 2] {
                cfg.gpu.sm.schedulers = units as u32;
                let stats = run(&cfg, &k);
                let at = format!("n={n}, ialu={lat}, units={units}");
                assert_eq!(stats.cycles, 2 * (n * lat + 1), "{at}");
                assert_eq!(stats.lock_retries, n * lat + units - 1, "{at}");
            }
            let mut private = kernel(1, vec![link(0); n as usize]);
            let cfg = one_pair(base.clone(), SharingMode::Registers, &mut private);
            let stats = run(&cfg, &private);
            assert_eq!((stats.cycles, stats.lock_retries), (n * lat + 1, 0));
        }
    }
}

#[test]
fn a_shared_scratchpad_passes_to_the_partner_when_the_owner_block_completes() {
    // Two two-warp blocks of 128 scratchpad bytes, which share one lock.
    // Each load reads bytes 0..=127, past the ⌊0.1·128⌋ = 12 private
    // bytes, so every load needs the lock; the loads chain through
    // register 0 (this run shares no register). One scheduler unit issues
    // one instruction a cycle, so there is no lock race and no port
    // conflict. Cycle 0: LRR picks slot 0, A's warp 0, which takes the
    // lock; cycle 1: A's warp 1, whose block holds it. A's warps issue
    // link i at i·L and i·L + 1 and their exits at n·L and n·L + 1. The
    // first exit releases nothing: the lock is the block's, and A's
    // completion at n·L + 1 releases it. B's two warps wait on it in
    // cycles 1..=n·L + 1 (two retries a cycle), issue their first links at
    // n·L + 2 and n·L + 3 and their last exit at 2n·L + 3. Loads of bytes
    // 0..=7 take no lock: the four warps issue round robin, link i of the
    // k-th at i·L + k (L ≥ 4), and the last exit at n·L + 3.
    let mut slow = one_sm();
    slow.gpu.lat.scratchpad = 9;
    for mut base in [one_sm(), slow] {
        base.gpu.sm.schedulers = 1;
        let lat = u64::from(base.gpu.lat.scratchpad);
        assert!(lat >= 4);
        for n in [1u64, 2, 10] {
            for (bytes, want) in [
                (128, (2 * (n * lat + 2), 2 * (n * lat + 1))),
                (8, (n * lat + 4, 0)),
            ] {
                let ld = Op::LdShared(SharedPattern::new(0, bytes));
                let mut k = kernel(2, chain(ld, n as usize));
                k.smem_per_block = 128;
                let cfg = one_pair(base.clone(), SharingMode::Scratchpad, &mut k);
                let stats = run(&cfg, &k);
                let at = format!("n={n}, scratchpad={lat}, bytes={bytes}");
                assert_eq!((stats.cycles, stats.lock_retries), want, "{at}");
            }
        }
    }
}
