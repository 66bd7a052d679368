//! Rendering contracts of the supervision layer's human-readable output:
//! [`StallDiagnosis`]'s `Display` and `RunReport::summary()`. Downstream
//! tooling (the `repro` CLI prints both; operators grep them out of CI
//! logs) keys on these line shapes, so they are pinned here — against real
//! reports produced by real runs, not hand-built structs, so the fields
//! rendered are the fields the simulator actually populates.

use gpu_resource_sharing::isa::GlobalPattern as GP;
use gpu_resource_sharing::prelude::*;
use gpu_resource_sharing::sim::{RunOutcome, StallDiagnosis};

/// Progress first (a non-trivial watermark), then a global load every warp
/// blocks on forever once the per-warp MSHR quota is zeroed.
fn livelock_kernel() -> Kernel {
    KernelBuilder::new("livelock")
        .threads_per_block(64)
        .regs_per_thread(16)
        .grid_blocks(8)
        .ialu(2)
        .ld_global(GP::Stream)
        .st_global(GP::Stream)
        .build()
}

fn stall_diagnosis() -> (StallDiagnosis, gpu_resource_sharing::sim::RunReport) {
    let mut cfg = RunConfig::baseline_lrr().with_memory_model(MemoryModel::Event);
    cfg.gpu.num_sms = 2;
    cfg.gpu.mem.max_pending_per_warp = 0;
    cfg.max_cycles = 1_000_000;
    let report = Simulator::new(cfg.with_watchdog(Some(500))).run_report(&livelock_kernel());
    match &report.outcome {
        RunOutcome::Stalled(diag) => ((**diag).clone(), report.clone()),
        other => panic!("expected a watchdog trip, got {other:?}"),
    }
}

#[test]
fn stall_diagnosis_display_names_the_trip_and_every_actor() {
    let (diag, _) = stall_diagnosis();
    let text = diag.to_string();

    // Headline: the proof of livelock, with all three cycle numbers.
    let head = text.lines().next().expect("non-empty rendering");
    assert!(
        head.starts_with(&format!("livelock proven at cycle {}", diag.at_cycle)),
        "{head}"
    );
    assert!(
        head.contains(&format!("no progress since cycle {}", diag.last_progress)),
        "{head}"
    );
    assert!(head.contains("watchdog window 500"), "{head}");
    assert!(
        head.contains(&format!(
            "{} grid blocks never dispatched",
            diag.blocks_undispatched
        )),
        "{head}"
    );

    // One line per SM, naming residency, wake state and gate counts.
    for sm in &diag.sms {
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("SM {}:", sm.id)))
            .unwrap_or_else(|| panic!("no line for SM {}:\n{text}", sm.id));
        assert!(
            line.contains(&format!("{} blocks", sm.live_blocks)),
            "{line}"
        );
        assert!(
            line.contains(&format!("live warps: {}", sm.live_warps)),
            "{line}"
        );
        assert!(
            line.contains("next wake at") || line.contains("no pending wake"),
            "{line}"
        );
        assert!(line.contains("gate-blocked warps:"), "{line}");
    }

    // Exactly one memory-system line.
    let mem_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.trim_start().starts_with("MEM:"))
        .collect();
    assert_eq!(mem_lines.len(), 1, "{text}");
    assert!(
        mem_lines[0].contains("MSHR") && mem_lines[0].contains("DRAM-queue"),
        "{}",
        mem_lines[0]
    );
}

#[test]
fn summary_of_a_completed_run_carries_every_section() {
    let kernel = workloads::benchmark("gen:mixed:1:small").expect("pinned spec");
    let mut cfg = RunConfig::baseline_lrr().with_memory_model(MemoryModel::Event);
    cfg.gpu.num_sms = 2;
    let report = Simulator::new(
        cfg.with_checkpoint_every(Some(137))
            .with_telemetry(Some(TelemetryConfig::default().with_sample_every(500))),
    )
    .run_report(&kernel);
    assert!(report.completed());
    let s = report.summary();

    let first = s.lines().next().expect("non-empty summary");
    assert_eq!(
        first,
        format!("outcome: completed in {} cycles", report.stats.cycles)
    );
    assert!(
        s.contains(&format!(
            "blocks: {} completed",
            report.stats.blocks_completed
        )),
        "{s}"
    );
    assert!(s.contains(&format!("IPC {:.3}", report.stats.ipc())), "{s}");
    assert!(s.contains("idle breakdown:"), "{s}");
    assert!(s.contains("pipeline-stall cycles (mem gate)"), "{s}");
    let supervision = format!("supervision: {} checkpoints", report.checkpoints);
    assert!(s.lines().any(|l| l == supervision), "{s}");
    assert!(s.contains("telemetry:"), "{s}");
    // Every line belongs to a known section — the summary never grows
    // unlabelled output.
    for line in s.lines() {
        assert!(
            line.starts_with("outcome:")
                || line.starts_with("blocks:")
                || line.starts_with("idle breakdown:")
                || line.starts_with("supervision:")
                || line.starts_with("telemetry:")
                || line.starts_with("  "),
            "unexpected summary line: {line}"
        );
    }
}

#[test]
fn summary_distinguishes_the_three_outcomes() {
    // Completed (above), timed out, and stalled: the first line is the
    // discriminator downstream log-greps key on.
    let kernel = livelock_kernel();
    let mut cfg = RunConfig::baseline_lrr().with_memory_model(MemoryModel::Event);
    cfg.gpu.num_sms = 2;
    cfg.gpu.mem.max_pending_per_warp = 0;
    cfg.max_cycles = 2_000;

    // Without a watchdog the livelock burns to the cycle bound: timed out.
    let timed_out = Simulator::new(cfg.clone()).run_report(&kernel);
    assert!(matches!(timed_out.outcome, RunOutcome::TimedOut));
    assert!(
        timed_out.summary().starts_with(&format!(
            "outcome: timed out after {} cycles",
            cfg.max_cycles
        )),
        "{}",
        timed_out.summary()
    );

    // With one, the watchdog proves the stall and embeds the diagnosis.
    cfg.max_cycles = 1_000_000;
    let stalled = Simulator::new(cfg.with_watchdog(Some(500))).run_report(&kernel);
    let s = stalled.summary();
    assert!(s.starts_with("outcome: stalled (watchdog)"), "{s}");
    assert!(s.contains("livelock proven at cycle"), "{s}");
}
