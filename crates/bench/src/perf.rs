//! Simulator-engine performance scenario: fast-forward vs reference.
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
//! SM-cycles are dead waits between writeback drains.
//!
//! [`measure`] times both engine modes over several repetitions and
//! [`write_report`] emits `BENCH_pr2.json` (used by `repro perf`); the
//! criterion bench `perf_engine` wraps the same scenario.
//!
//! [`write_telemetry_report`] emits `BENCH_pr8.json`: the wall-clock
//! overhead of tracing, with every traced run asserted bit-identical to its
//! plain twin (a benchmark that drifted would be measuring a different
//! simulation).
//! [`check_speedup_gate`] is the scheduled perf-regression gate over the
//! primary fast-forward speedup ratio.

use std::time::Instant;

use grs_isa::Kernel;
use grs_sim::{MemoryModel, RunConfig, SimStats, Simulator, TelemetryConfig};

use crate::service::SweepService;

/// Canonical statistics for `(cfg, kernel)`, fetched through the global
/// sweep service. Memoized: the perf reports and the scheduled gate share
/// one reference simulation per configuration instead of each paying for
/// their own. The *timed* loops below still drive the simulator directly —
/// a memo hit has no wall-clock worth measuring — and cross-check their
/// cycle counts against this canonical run.
pub fn reference_stats(cfg: &RunConfig, kernel: &Kernel) -> SimStats {
    let outcome = SweepService::global()
        .submit(cfg.clone(), kernel.clone())
        .wait();
    outcome
        .report
        .as_ref()
        .expect("reference simulation failed")
        .stats
        .clone()
}

/// One timed engine comparison.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Scenario label.
    pub name: String,
    /// Simulated cycles per run (identical in both modes by construction).
    pub cycles: u64,
    /// Best-of-reps wall seconds, fast-forward on.
    pub fast_s: f64,
    /// Best-of-reps wall seconds, fast-forward off (per-cycle reference).
    pub reference_s: f64,
}

impl Measurement {
    /// Simulated cycles per wall-second, fast-forward on.
    pub fn fast_cps(&self) -> f64 {
        self.cycles as f64 / self.fast_s
    }

    /// Simulated cycles per wall-second, reference loop.
    pub fn reference_cps(&self) -> f64 {
        self.cycles as f64 / self.reference_s
    }

    /// Wall-clock speedup of fast-forward over the reference.
    pub fn speedup(&self) -> f64 {
        self.reference_s / self.fast_s
    }
}

/// The primary bench kernel: Set-2 CONV1 at one resident wave.
pub fn scenario_kernel() -> Kernel {
    let mut k = grs_workloads::set2::conv1();
    k.grid_blocks = 28;
    k
}

/// The primary bench machine: Table I with a loaded-memory DRAM round-trip.
pub fn scenario_config() -> RunConfig {
    let mut cfg = RunConfig::baseline_lrr();
    cfg.gpu.mem.dram_latency = 1600;
    cfg
}

/// Time `kernel` under `cfg` with the engine on and off; wall time is the
/// best of `reps` runs per mode (minimum, the standard noise rejector for
/// deterministic workloads).
pub fn measure(name: &str, kernel: &Kernel, cfg: &RunConfig, reps: u32) -> Measurement {
    let mut walls = [f64::MAX; 2];
    let mut cycles = [0u64; 2];
    for (i, ff) in [true, false].into_iter().enumerate() {
        let sim = Simulator::new(cfg.clone().with_fast_forward(ff));
        for _ in 0..reps.max(1) {
            let t = Instant::now();
            let stats = sim.run(kernel);
            walls[i] = walls[i].min(t.elapsed().as_secs_f64());
            cycles[i] = stats.cycles;
        }
    }
    assert_eq!(
        cycles[0], cycles[1],
        "fast-forward changed the simulated cycle count"
    );
    assert_eq!(
        cycles[0],
        reference_stats(cfg, kernel).cycles,
        "timed engines disagree with the service's canonical run"
    );
    Measurement {
        name: name.to_string(),
        cycles: cycles[0],
        fast_s: walls[0],
        reference_s: walls[1],
    }
}

/// The primary bench machine under the event-driven memory model: finite
/// MSHR tables and DRAM queues turn the dead-wait scenario into one with
/// genuine back-pressure phases, which exercises the engine's gated-sleep
/// path (stall spans credited in closed form) rather than pure idle skips.
pub fn scenario_config_event() -> RunConfig {
    scenario_config().with_memory_model(MemoryModel::Event)
}

/// Run the `repro perf` suite: the primary scenario plus secondary points
/// (the same scenario under the event memory model, stock latency, and the
/// full default grid) for context, and one *generated* stress profile —
/// the pinned `mshr-thrash` spec under the loaded event model, a
/// back-pressure-heavy point no hand-built Set kernel reaches. Returns the
/// measurements in report order.
pub fn run_suite(reps: u32) -> Vec<Measurement> {
    let kernel = scenario_kernel();
    let primary = scenario_config();
    let event = scenario_config_event();
    let stock = RunConfig::baseline_lrr();
    let mut full_grid = grs_workloads::set2::conv1();
    full_grid.grid_blocks = 168;
    let thrash = grs_workloads::benchmark("gen:mshr-thrash:42:medium")
        .expect("pinned generator spec resolves");
    vec![
        measure("conv1-28/dram1600", &kernel, &primary, reps),
        measure("conv1-28/dram1600/event", &kernel, &event, reps),
        measure("conv1-28/stock", &kernel, &stock, reps),
        measure("conv1-168/dram1600", &full_grid, &primary, reps),
        measure("gen:mshr-thrash:42:medium/event", &thrash, &event, reps),
    ]
}

/// Serialize measurements as the `BENCH_pr2.json` document. Hand-rolled
/// JSON: the offline serde shim has no serializer.
pub fn render_report(ms: &[Measurement]) -> String {
    let mut s = String::from("{\n  \"bench\": \"perf_engine\",\n  \"primary\": \"conv1-28/dram1600\",\n  \"scenarios\": [\n");
    for (i, m) in ms.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"cycles\": {}, \"fast_forward_s\": {:.6}, \"reference_s\": {:.6}, \"fast_forward_cycles_per_s\": {:.0}, \"reference_cycles_per_s\": {:.0}, \"speedup\": {:.2}}}{}\n",
            m.name,
            m.cycles,
            m.fast_s,
            m.reference_s,
            m.fast_cps(),
            m.reference_cps(),
            m.speedup(),
            if i + 1 == ms.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Execute the suite, print a table, and write `BENCH_pr2.json` into the
/// current directory.
pub fn write_report(reps: u32) -> std::io::Result<()> {
    let ms = run_suite(reps);
    println!(
        "{:<22} {:>9} {:>10} {:>10} {:>12} {:>12} {:>8}",
        "scenario", "cycles", "ff wall", "ref wall", "ff cyc/s", "ref cyc/s", "speedup"
    );
    for m in &ms {
        println!(
            "{:<22} {:>9} {:>9.4}s {:>9.4}s {:>12.0} {:>12.0} {:>7.2}x",
            m.name,
            m.cycles,
            m.fast_s,
            m.reference_s,
            m.fast_cps(),
            m.reference_cps(),
            m.speedup()
        );
    }
    std::fs::write("BENCH_pr2.json", render_report(&ms))?;
    println!("wrote BENCH_pr2.json");
    Ok(())
}

/// One timed telemetry-overhead comparison: the same run with tracing off
/// and on, statistics asserted bit-identical (telemetry's whole contract
/// is that it only observes).
#[derive(Debug, Clone)]
pub struct TelemetryMeasurement {
    /// Scenario label.
    pub name: String,
    /// Simulated cycles per run (identical in both modes by construction).
    pub cycles: u64,
    /// Best-of-reps wall seconds, telemetry off.
    pub plain_s: f64,
    /// Best-of-reps wall seconds, telemetry on.
    pub traced_s: f64,
    /// Events appended across all tracks per traced run.
    pub events_appended: u64,
    /// Events retained (appended minus ring-overflow drops).
    pub events_kept: u64,
    /// Sampled timeline rows (SM + memory) per traced run.
    pub sample_rows: u64,
}

impl TelemetryMeasurement {
    /// Wall-clock cost of tracing: traced over plain (≥ ~1.0).
    pub fn overhead(&self) -> f64 {
        self.traced_s / self.plain_s
    }
}

/// Telemetry-overhead ceiling `repro perf` asserts: tracing with periodic
/// sampling must cost at most 25% wall clock on the primary scenario.
pub const TELEMETRY_OVERHEAD_CEILING: f64 = 1.25;

/// Time `kernel` under `cfg` with telemetry off and on (64Ki-event rings,
/// sampling every 1000 cycles). Panics if tracing perturbs the statistics.
pub fn measure_telemetry(
    name: &str,
    kernel: &Kernel,
    cfg: &RunConfig,
    reps: u32,
) -> TelemetryMeasurement {
    let plain_sim = Simulator::new(cfg.clone());
    let traced_sim = Simulator::new(
        cfg.clone()
            .with_telemetry(Some(TelemetryConfig::default().with_sample_every(1000))),
    );
    let mut plain_s = f64::MAX;
    let mut baseline = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        baseline = Some(plain_sim.run_report(kernel).stats);
        plain_s = plain_s.min(t.elapsed().as_secs_f64());
    }
    let baseline = baseline.expect("reps >= 1");
    let mut traced_s = f64::MAX;
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let report = traced_sim.run_report(kernel);
        traced_s = traced_s.min(t.elapsed().as_secs_f64());
        assert_eq!(
            report.stats, baseline,
            "telemetry changed the statistics in scenario {name}"
        );
        last = report.telemetry;
    }
    let telemetry = last.expect("telemetry was configured");
    TelemetryMeasurement {
        name: name.to_string(),
        cycles: baseline.cycles,
        plain_s,
        traced_s,
        events_appended: telemetry.appended(),
        events_kept: telemetry.events.len() as u64,
        sample_rows: (telemetry.sm_samples.len() + telemetry.mem_samples.len()) as u64,
    }
}

/// Run the telemetry-overhead suite: the primary dead-wait scenario under
/// both memory presets (finite buffers add the MEM track's events).
pub fn run_telemetry_suite(reps: u32) -> Vec<TelemetryMeasurement> {
    // Each rep is a handful of milliseconds, so a min-of filter needs more
    // draws than the wall-clock-bound engine suites to converge: floor the
    // rep count even in --quick mode (the extra runs cost well under a
    // second), and run a 4× grid so per-run fixed costs and timer noise
    // amortize — the overhead *ratio* is grid-invariant (events accrue per
    // cycle), but the variance of a 2 ms measurement is not acceptable for
    // a CI-asserted ceiling.
    let reps = reps.max(10);
    let mut kernel = scenario_kernel();
    kernel.grid_blocks *= 4;
    vec![
        measure_telemetry("conv1-112/dram1600", &kernel, &scenario_config(), reps),
        measure_telemetry(
            "conv1-112/dram1600/event",
            &kernel,
            &scenario_config_event(),
            reps,
        ),
    ]
}

/// Serialize telemetry measurements as the `BENCH_pr8.json` document
/// (hand-rolled JSON; the offline serde shim has no serializer).
/// `stats_identical` is asserted, not sampled — the report only exists if
/// every traced run matched its plain twin bit for bit.
pub fn render_telemetry_report(ms: &[TelemetryMeasurement]) -> String {
    let mut s = format!(
        "{{\n  \"bench\": \"perf_telemetry\",\n  \"primary\": \"conv1-112/dram1600/event\",\n  \"stats_identical\": true,\n  \"overhead_ceiling\": {TELEMETRY_OVERHEAD_CEILING},\n  \"scenarios\": [\n"
    );
    for (i, m) in ms.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"cycles\": {}, \"plain_s\": {:.6}, \"traced_s\": {:.6}, \"overhead\": {:.3}, \"events_appended\": {}, \"events_kept\": {}, \"sample_rows\": {}}}{}\n",
            m.name,
            m.cycles,
            m.plain_s,
            m.traced_s,
            m.overhead(),
            m.events_appended,
            m.events_kept,
            m.sample_rows,
            if i + 1 == ms.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Execute the telemetry suite, print a table, assert the overhead
/// ceiling, and write `BENCH_pr8.json` into the current directory.
pub fn write_telemetry_report(reps: u32) -> std::io::Result<()> {
    let ms = run_telemetry_suite(reps);
    println!(
        "{:<24} {:>9} {:>10} {:>10} {:>9} {:>10} {:>10} {:>8}",
        "scenario", "cycles", "plain", "traced", "overhead", "appended", "kept", "rows"
    );
    for m in &ms {
        println!(
            "{:<24} {:>9} {:>9.4}s {:>9.4}s {:>8.3}x {:>10} {:>10} {:>8}",
            m.name,
            m.cycles,
            m.plain_s,
            m.traced_s,
            m.overhead(),
            m.events_appended,
            m.events_kept,
            m.sample_rows
        );
        assert!(
            m.overhead() <= TELEMETRY_OVERHEAD_CEILING,
            "telemetry overhead {:.3}x exceeds the {TELEMETRY_OVERHEAD_CEILING}x ceiling in {}",
            m.overhead(),
            m.name
        );
    }
    std::fs::write("BENCH_pr8.json", render_telemetry_report(&ms))?;
    println!("wrote BENCH_pr8.json");
    Ok(())
}

/// The scheduled perf-regression gate: the fast-forward engine must beat
/// the per-cycle reference loop by at least `min_speedup` on the primary
/// dead-wait scenario. Returns the offending measurement's summary on
/// failure. Run from a *scheduled* CI job, not per-PR — wall-clock ratios
/// on shared runners are too noisy to block merges, but a sustained drop
/// below the floor (the engine's raison d'être is ~10×+) is a regression
/// someone should look at.
pub fn check_speedup_gate(min_speedup: f64, reps: u32) -> Result<Measurement, String> {
    let m = measure(
        "conv1-28/dram1600",
        &scenario_kernel(),
        &scenario_config(),
        reps,
    );
    if m.speedup() >= min_speedup {
        Ok(m)
    } else {
        Err(format!(
            "fast-forward speedup gate failed: {:.2}x < {min_speedup:.2}x floor \
             (fast {:.4}s, reference {:.4}s over {} cycles)",
            m.speedup(),
            m.fast_s,
            m.reference_s,
            m.cycles
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_memory_latency_bound() {
        // The engine's target regime: the overwhelming majority of SM-cycles
        // are idle latency waits, and none of them are stalls (stall cycles
        // are never skippable, so a stall-heavy scenario would be a poor
        // showcase and a dishonest benchmark).
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
        let m = check_speedup_gate(1.0, 1).expect("the engine must beat the reference loop");
        assert!(m.speedup() >= 1.0);
        let err = check_speedup_gate(1e6, 1).unwrap_err();
        assert!(err.contains("speedup gate failed"), "{err}");
    }

    #[test]
    fn measurement_math_and_json_shape() {
        let m = Measurement {
            name: "x".into(),
            cycles: 1000,
            fast_s: 0.5,
            reference_s: 2.0,
        };
        assert_eq!(m.fast_cps(), 2000.0);
        assert_eq!(m.reference_cps(), 500.0);
        assert_eq!(m.speedup(), 4.0);
        let json = render_report(std::slice::from_ref(&m));
        assert!(json.contains("\"bench\": \"perf_engine\""));
        assert!(json.contains("\"speedup\": 4.00"));
        assert!(json.trim_end().ends_with('}'));
    }
}
