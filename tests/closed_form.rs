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
//! one partition). Two constants recur:
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

/// Simulated cycles of `kernel` under `cfg`; the block must complete.
fn cycles(cfg: &RunConfig, kernel: &Kernel) -> u64 {
    let stats = Simulator::new(cfg.clone()).run(kernel);
    assert_eq!(stats.blocks_completed, 1);
    assert!(!stats.timed_out);
    stats.cycles
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
