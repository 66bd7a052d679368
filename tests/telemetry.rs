//! The telemetry contract: tracing is pure observation. `SimStats` are
//! **bit-identical** with telemetry on or off across the scheduler ×
//! sharing × memory-preset matrix and both engines; sampled timeline rows
//! and SM/MEM events are exact across fast-forward clock jumps; and ring
//! overflow drops oldest-first with exact accounting (property-tested with
//! pinned seeds).

use gpu_resource_sharing::core::SchedulerKind;
use gpu_resource_sharing::isa::GlobalPattern as GP;
use gpu_resource_sharing::prelude::*;
use gpu_resource_sharing::sim::{
    MemoryModel, RunOutcome, SimStats, TelemetryEvent, TelemetryReport, Track, TrackTrace,
};
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
            // Throttle on, so tracing has to coexist with live RNG streams.
            let mut cfg = RunConfig::paper_scratchpad_sharing();
            cfg.dyn_throttle = true;
            cfg
        }
    };
    let mut cfg = base.with_scheduler(sched).with_memory_model(model);
    cfg.gpu.num_sms = 4;
    cfg
}

fn traced(cfg: &RunConfig, sample_every: u64) -> RunConfig {
    cfg.clone().with_telemetry(Some(
        TelemetryConfig::default().with_sample_every(sample_every),
    ))
}

/// The stall-breakdown accounting identities every run must satisfy:
/// every pipeline-stall cycle is a memory-gate cycle, and the idle cycles
/// partition exactly into scoreboard / barrier / no-ready.
fn assert_breakdown_invariants(s: &SimStats, label: &str) {
    assert_eq!(s.stall_mem_gate_cycles, s.stall_cycles, "{label}");
    assert_eq!(
        s.stall_scoreboard_cycles + s.stall_barrier_cycles + s.stall_no_ready_cycles,
        s.idle_cycles,
        "{label}"
    );
    for (i, sm) in s.per_sm.iter().enumerate() {
        assert_eq!(sm.stall_mem_gate_cycles, sm.stall_cycles, "{label} SM {i}");
        assert_eq!(
            sm.stall_scoreboard_cycles + sm.stall_barrier_cycles + sm.stall_no_ready_cycles,
            sm.idle_cycles,
            "{label} SM {i}"
        );
    }
}

#[test]
fn tracing_is_invisible_across_the_full_matrix() {
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
    let kernels = kernels();
    let mut cell = 0usize;
    for sched in schedulers {
        for sharing in sharing_modes {
            for model in models {
                // Alternate the two kernels across cells: full coverage of
                // the matrix at half the wall clock.
                let kernel = &kernels[cell % 2];
                cell += 1;
                let cfg = config(sched, sharing, model);
                let label = format!("{} under {sched:?}×{sharing:?}×{model:?}", kernel.name);
                let untraced = Simulator::new(cfg.clone()).run(kernel);
                assert!(!untraced.timed_out, "{label}");
                assert_breakdown_invariants(&untraced, &label);
                // Both engines, telemetry on: stats must stay
                // bit-identical — which also pins the per-reason stall
                // breakdown (part of SimStats equality) across engines.
                for (engine, tcfg) in [
                    ("fast-forward", traced(&cfg, 256)),
                    ("reference", traced(&cfg, 256).with_fast_forward(false)),
                ] {
                    let report = Simulator::new(tcfg).run_report(kernel);
                    assert_eq!(report.stats, untraced, "{label} traced on {engine}");
                    let t = report.telemetry.expect("telemetry was configured");
                    assert!(t.appended() > 0, "{label} {engine}: empty stream");
                    assert!(!t.sm_samples.is_empty(), "{label} {engine}: no rows");
                }
            }
        }
    }
}

#[test]
fn sampled_rows_and_machine_events_are_exact_across_fast_forward_jumps() {
    // The per-cycle reference loop is the definition of "exact": the
    // fast-forward engine's closed-form crediting must emit the very same
    // rows at the very same boundaries, and the same SM/MEM events — its
    // only addition is the SleepSpan record at each clock jump.
    let kernel = &kernels()[1];
    let cfg = config(SchedulerKind::Lrr, SharingMode::None, MemoryModel::Event);
    let fast = Simulator::new(traced(&cfg, 64)).run_report(kernel);
    let reference = Simulator::new(traced(&cfg, 64).with_fast_forward(false)).run_report(kernel);
    let (fast, reference) = (fast.telemetry.unwrap(), reference.telemetry.unwrap());
    assert_eq!(fast.sm_samples, reference.sm_samples);
    assert_eq!(fast.mem_samples, reference.mem_samples);
    assert!(
        !fast.mem_samples.is_empty(),
        "the memory system emits MEM rows"
    );
    // Track by track, which tests what comparing the two merged streams
    // would: each is a function of the other.
    let is_sleep = |e: &TelemetryEvent| matches!(e, TelemetryEvent::SleepSpan { .. });
    let strip_sleep = |t: &TelemetryReport| -> Vec<(Track, Vec<(u64, TelemetryEvent)>)> {
        t.tracks
            .iter()
            .map(|tr| {
                let kept = tr.events.iter().filter(|(_, e)| !is_sleep(e)).copied();
                (tr.track, kept.collect())
            })
            .collect()
    };
    assert!(reference
        .tracks
        .iter()
        .all(|tr| !tr.events.iter().any(|(_, e)| is_sleep(e))));
    assert_eq!(strip_sleep(&fast), strip_sleep(&reference));
}

#[test]
fn telemetry_off_and_sampling_off_edges() {
    let kernel = &kernels()[0];
    let cfg = config(
        SchedulerKind::Lrr,
        SharingMode::None,
        MemoryModel::Functional,
    );
    let report = Simulator::new(cfg.clone()).run_report(kernel);
    assert!(report.telemetry.is_none(), "no config, no report");
    // sample_every = 0: events still flow, the sampler stays silent.
    let t = Simulator::new(traced(&cfg, 0))
        .run_report(kernel)
        .telemetry
        .unwrap();
    assert!(t.appended() > 0);
    assert!(t.sm_samples.is_empty() && t.mem_samples.is_empty());
}

#[test]
fn stall_diagnosis_displays_and_the_report_summarizes() {
    // Satellite: Display for StallDiagnosis + RunReport::summary().
    let mut cfg = RunConfig::baseline_lrr().with_memory_model(MemoryModel::Event);
    cfg.gpu.num_sms = 2;
    cfg.gpu.mem.max_pending_per_warp = 0; // every global-memory warp blocks forever
    cfg.max_cycles = 1_000_000;
    let kernel = KernelBuilder::new("livelock")
        .threads_per_block(64)
        .regs_per_thread(16)
        .grid_blocks(8)
        .ialu(2)
        .ld_global(GP::Stream)
        .ffma(2)
        .build();
    let report = Simulator::new(
        cfg.with_watchdog(Some(500))
            .with_telemetry(Some(TelemetryConfig::default())),
    )
    .run_report(&kernel);
    let diag = match &report.outcome {
        RunOutcome::Stalled(d) => d,
        other => panic!("expected a watchdog trip, got {other:?}"),
    };
    let shown = format!("{diag}");
    assert!(shown.contains("livelock proven at cycle"), "{shown}");
    assert!(shown.contains("SM 0:") && shown.contains("MEM:"), "{shown}");
    let summary = report.summary();
    assert!(summary.contains("outcome: stalled"), "{summary}");
    assert!(summary.contains("idle breakdown:"), "{summary}");
    assert!(summary.contains("telemetry:"), "{summary}");
    // A completed run's summary leads with the completion line.
    let done = Simulator::new(RunConfig::baseline_lrr()).run_report(&kernels()[0]);
    assert!(done.summary().starts_with("outcome: completed"));
}

#[derive(Debug, Clone)]
struct Case {
    threads_log2: u32,
    regs: u32,
    grid: u32,
    alu: u32,
    trips: u16,
    capacity: usize,
    sample: u64,
}

fn case() -> impl Strategy<Value = Case> {
    (
        0u32..=2,
        4u32..=48,
        1u32..=16,
        1u32..=6,
        0u16..=10,
        1usize..=64, // small enough that real runs overflow the rings
        0u64..=512,
    )
        .prop_map(|(tl, regs, grid, alu, trips, capacity, sample)| Case {
            threads_log2: tl,
            regs,
            grid,
            alu,
            trips,
            capacity,
            sample,
        })
}

fn build(c: &Case) -> gpu_resource_sharing::isa::Kernel {
    let mut b = KernelBuilder::new("teleprop")
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
    fn ring_overflow_keeps_the_newest_suffix_with_exact_accounting(c in case()) {
        let k = build(&c);
        let mut cfg = RunConfig::paper_register_sharing().with_memory_model(MemoryModel::Event);
        cfg.gpu.num_sms = 2;
        cfg.max_cycles = 2_000_000;
        let small = TelemetryConfig { capacity: c.capacity, sample_every: c.sample };
        let huge = TelemetryConfig { capacity: 1 << 20, sample_every: c.sample };
        // Every drawn case fits the machine (≤ 48 regs × ≤ 128 threads).
        let a = Simulator::new(cfg.clone().with_telemetry(Some(small))).run_report(&k);
        let b = Simulator::new(cfg.with_telemetry(Some(huge))).run_report(&k);
        prop_assert_eq!(&a.stats, &b.stats, "capacity changed the statistics");
        let (a, b) = (a.telemetry.unwrap(), b.telemetry.unwrap());
        // Same rows regardless of event-ring pressure.
        prop_assert_eq!(&a.sm_samples, &b.sm_samples);
        prop_assert_eq!(&a.mem_samples, &b.mem_samples);
        prop_assert_eq!(a.tracks.len(), b.tracks.len());
        for (ta, tb) in a.tracks.iter().zip(&b.tracks) {
            prop_assert_eq!(ta.track, tb.track);
            // The unpressured ring keeps every event the track appended.
            prop_assert_eq!(tb.dropped, 0, "{:?} overflowed the large ring", tb.track);
            let appended = tb.events.len() as u64;
            // A track's events keep their append order: the i-th retained
            // one is event number `dropped + i` of the track.
            let numbered = |t: &TrackTrace| -> Vec<(u64, (u64, TelemetryEvent))> {
                (t.dropped..).zip(t.events.iter().copied()).collect()
            };
            let (kept_a, kept_b) = (numbered(ta), numbered(tb));
            prop_assert_eq!(ta.dropped, appended - kept_a.len() as u64, "{:?}", ta.track);
            prop_assert!(kept_a.len() <= c.capacity.max(1));
            // Oldest-first drops: what survives the small ring is exactly
            // the newest suffix of the unpressured stream, sequence
            // numbers included.
            let suffix = &kept_b[kept_b.len() - kept_a.len()..];
            prop_assert_eq!(kept_a.as_slice(), suffix, "track {:?}", ta.track);
        }
    }
}
