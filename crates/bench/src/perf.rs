//! The perf gate: the two wall-clock ratios nothing else in the repository
//! measures, both checked by `repro perf-gate`. End-to-end throughput of
//! the paper's experiments is `benchmark/`'s job, not this module's.
//!
//! The scenario is a **memory-latency-bound** Set-2 kernel: `CONV1`
//! (convolutionSeparable rows pass, Table III) at one resident wave
//! (28 blocks = 2 per SM on the Table I machine) with the DRAM round-trip
//! raised to 1600 shader cycles. The stock model's 280-cycle constant is an
//! *unloaded* latency; under the contention the paper's Set-2 sweeps create,
//! Fermi-class simulators report loaded round-trips well past a thousand
//! cycles, and our bandwidth-server queueing model only captures part of
//! that. Raising the constant stands in for a loaded memory system and puts
//! the simulator in the regime the fast-forward engine targets: >95% of
//! SM-cycles are dead waits between writeback drains. `repro trace
//! conv1-28` traces the same scenario.
//!
//! [`check_speedup_gate`] holds the fast-forward engine to a floor over the
//! per-cycle reference there (the evidence that fast-forward earns its
//! code); [`check_telemetry_gate`] holds tracing to a ceiling. Both time
//! two configurations that must simulate bit-identically, as the median
//! ratio over interleaved pairs.

use std::time::Instant;

use grs_isa::Kernel;
use grs_sim::{MemoryModel, RunConfig, Simulator, TelemetryConfig};

/// Fast-forward speedup floor the perf gate checks. The engine's raison
/// d'être is ~10×+, so a drop below 5× is a regression, not runner noise.
pub const SPEEDUP_FLOOR: f64 = 5.0;

/// Telemetry-overhead ceiling the perf gate checks: tracing with periodic
/// sampling may cost at most 25% wall clock on the dead-wait scenario.
pub const TELEMETRY_OVERHEAD_CEILING: f64 = 1.25;

/// Interleaved pairs per timed configuration in `repro perf-gate`.
pub const GATE_PAIRS: u32 = 21;

/// The primary scenario kernel: Set-2 CONV1 at one resident wave.
pub fn scenario_kernel() -> Kernel {
    let mut k = grs_workloads::set2::conv1();
    k.grid_blocks = 28;
    k
}

/// The primary scenario machine: Table I with a loaded-memory DRAM
/// round-trip.
pub fn scenario_config() -> RunConfig {
    let mut cfg = RunConfig::baseline_lrr();
    cfg.gpu.mem.dram_latency = 1600;
    cfg
}

/// The primary scenario machine under the event-driven memory model:
/// finite MSHR tables and DRAM queues turn the dead-wait scenario into one
/// with genuine back-pressure phases, which exercises the engine's
/// gated-sleep path (stall spans credited in closed form) rather than pure
/// idle skips.
pub fn scenario_config_event() -> RunConfig {
    scenario_config().with_memory_model(MemoryModel::Event)
}

/// Wall-clock cost of running `kernel` under `b` relative to `a`: the
/// median `b` ÷ `a` ratio over `pairs` interleaved pairs (the upper median
/// for an even count), which alternate which run goes first so a drift in
/// host speed hits both sides alike. Panics if the two runs' statistics
/// differ: both checks compare configurations that may change only how
/// fast the simulator runs, never what it computes.
fn median_ratio(kernel: &Kernel, a: &RunConfig, b: &RunConfig, pairs: u32) -> f64 {
    let (sim_a, sim_b) = (Simulator::new(a.clone()), Simulator::new(b.clone()));
    // A report's telemetry drops after the clock stops.
    let timed = |sim: &Simulator| {
        let t = Instant::now();
        let report = sim.run_report(kernel);
        (t.elapsed().as_secs_f64(), report.stats)
    };
    let mut ratios: Vec<f64> = (0..pairs.max(1))
        .map(|pair| {
            let ((a_s, a_stats), (b_s, b_stats)) = if pair % 2 == 0 {
                let a = timed(&sim_a);
                (a, timed(&sim_b))
            } else {
                let b = timed(&sim_b);
                (timed(&sim_a), b)
            };
            assert_eq!(a_stats, b_stats, "the timed configurations disagree");
            b_s / a_s
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[ratios.len() / 2]
}

/// The perf gate's speedup check: the fast-forward engine must beat the
/// per-cycle reference loop by at least `floor` ([`SPEEDUP_FLOOR`] in
/// `repro perf-gate`) on the primary dead-wait scenario, as the median
/// over `pairs`. Returns a one-line summary, or the failure's.
pub fn check_speedup_gate(floor: f64, pairs: u32) -> Result<String, String> {
    let fast = scenario_config();
    let reference = fast.clone().with_fast_forward(false);
    let speedup = median_ratio(&scenario_kernel(), &fast, &reference, pairs);
    let summary = format!("fast-forward speedup {speedup:.2}x (median of {pairs} pairs)");
    if speedup >= floor {
        Ok(format!("{summary} >= {floor:.2}x floor"))
    } else {
        Err(format!(
            "speedup gate failed: {summary} < {floor:.2}x floor"
        ))
    }
}

/// The telemetry check's kernel: the primary scenario at four waves
/// (conv1-112). One conv1-28 run takes a handful of milliseconds, too
/// short for a ratio held to a ceiling; the ratio itself is grid-invariant
/// (events accrue per cycle).
pub fn telemetry_kernel() -> Kernel {
    let mut k = scenario_kernel();
    k.grid_blocks *= 4;
    k
}

/// The perf gate's telemetry check: tracing `kernel` (64Ki-event rings,
/// sampling every 1000 cycles) on the dead-wait machine under both memory
/// presets (finite buffers add the MEM track's events) may cost at most
/// [`TELEMETRY_OVERHEAD_CEILING`], as the median over `pairs`. Every
/// traced run must match its plain twin — telemetry's whole contract is
/// that it only observes. Returns a one-line summary naming both medians,
/// or the failure's.
pub fn check_telemetry_gate(kernel: &Kernel, pairs: u32) -> Result<String, String> {
    let mut within = true;
    let mut medians = Vec::new();
    for (suffix, plain) in [("", scenario_config()), ("/event", scenario_config_event())] {
        let traced = plain
            .clone()
            .with_telemetry(Some(TelemetryConfig::default().with_sample_every(1000)));
        let overhead = median_ratio(kernel, &plain, &traced, pairs);
        within &= overhead <= TELEMETRY_OVERHEAD_CEILING;
        let name = format!("conv1-{}/dram1600{suffix}", kernel.grid_blocks);
        medians.push(format!("{name} {overhead:.3}x"));
    }
    let summary = format!(
        "telemetry overhead {} (medians of {pairs} pairs)",
        medians.join(", ")
    );
    if within {
        Ok(format!(
            "{summary} <= {TELEMETRY_OVERHEAD_CEILING}x ceiling"
        ))
    } else {
        Err(format!(
            "telemetry gate failed: {summary}, above the {TELEMETRY_OVERHEAD_CEILING}x ceiling"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_memory_latency_bound() {
        // The engine's target regime: the overwhelming majority of SM-cycles
        // are idle latency waits, and none of them are stalls. Stall spans
        // at the per-warp MSHR limit or the memory gate sleep too, but port
        // conflicts never do, so a stall-heavy scenario would measure a
        // different path than the idle skip this gate is about.
        let stats = Simulator::new(scenario_config()).run(&scenario_kernel());
        let sm_cycles = stats.cycles * 14;
        assert!(
            stats.idle_cycles * 10 > sm_cycles * 9,
            "idle {} of {sm_cycles}",
            stats.idle_cycles
        );
        assert_eq!(stats.stall_cycles, 0);
    }

    #[test]
    fn the_speedup_gate_passes_a_trivial_floor_and_fails_an_absurd_one() {
        // One real measurement serves both directions: any working build
        // beats 1.0x on the dead-wait scenario, and no build reaches
        // 1e6x — so both gate branches are exercised without flakiness.
        check_speedup_gate(1.0, 1).expect("the engine must beat the reference loop");
        let err = check_speedup_gate(1e6, 1).unwrap_err();
        assert!(err.contains("speedup gate failed"), "{err}");

        // The telemetry half once, at conv1-28 with a single pair: too few
        // draws to hold to the ceiling either way, but every traced run
        // must match its plain twin (asserted inside) and both presets
        // must report.
        let (Ok(summary) | Err(summary)) = check_telemetry_gate(&scenario_kernel(), 1);
        assert!(summary.contains("conv1-28/dram1600 "), "{summary}");
        assert!(summary.contains("conv1-28/dram1600/event "), "{summary}");
    }
}
