//! Absolute correctness anchor: statistics pinned to checked-in numbers.
//!
//! Every other suite compares the simulator with itself (fast-forward ≡
//! per-cycle, traced ≡ untraced), so a semantic change that moves every
//! path the same way passes all of them. This one compares against
//! `tests/golden_stats.txt`: one line per point,
//! `<label> field=value ...`, carrying every scalar `SimStats` and
//! `MemStats` field by name.
//!
//! Points:
//! * hotspot and CONV1 at 28 blocks × 4 schedulers × 3 sharing modes on 4
//!   SMs, under the default memory configuration;
//! * the pinned generator corpus under both `MemoryModel` presets, on the
//!   2-SM machine of `generated_differential.rs`.
//!
//! The file changes only through the ignored `bless` test:
//!
//! ```text
//! cargo test --release --test golden_stats -- --ignored bless
//! ```
//!
//! Review the resulting diff like code: every changed number is a change
//! in what the simulator computes.

use gpu_resource_sharing::core::SchedulerKind;
use gpu_resource_sharing::prelude::*;
use gpu_resource_sharing::sim::MemStats;
use workloads::gen::pinned_corpus;

const GOLDEN: &str = include_str!("golden_stats.txt");

const SCHEDULERS: [(&str, SchedulerKind); 4] = [
    ("lrr", SchedulerKind::Lrr),
    ("gto", SchedulerKind::Gto),
    ("two-level-8", SchedulerKind::TwoLevel { group_size: 8 }),
    ("owf", SchedulerKind::Owf),
];
const SHARING: [(&str, SharingMode); 3] = [
    ("none", SharingMode::None),
    ("registers", SharingMode::Registers),
    ("scratchpad", SharingMode::Scratchpad),
];
const PRESETS: [(&str, MemoryModel); 2] = [
    ("functional", MemoryModel::Functional),
    ("event", MemoryModel::Event),
];

/// The scheduler × sharing matrix machine (4 SMs, default memory).
fn matrix_config(sched: SchedulerKind, sharing: SharingMode) -> RunConfig {
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

/// The generated-corpus machine, identical to `generated_differential.rs`'s
/// `base`.
fn corpus_config(model: MemoryModel) -> RunConfig {
    let mut cfg = RunConfig::baseline_lrr().with_memory_model(model);
    cfg.gpu.num_sms = 2;
    cfg.max_cycles = 20_000_000;
    cfg
}

/// One golden line. The destructuring is exhaustive, so a new scalar field
/// fails to compile here until it is pinned too.
fn line(label: &str, s: &SimStats) -> String {
    let SimStats {
        cycles,
        warp_instrs,
        thread_instrs,
        stall_cycles,
        idle_cycles,
        empty_cycles,
        blocks_completed,
        max_resident_blocks,
        lock_retries,
        throttled_issues,
        mshr_full_stalls,
        dram_queue_full_stalls,
        stall_scoreboard_cycles,
        stall_barrier_cycles,
        stall_mem_gate_cycles,
        stall_no_ready_cycles,
        mem,
        per_sm: _, // per-SM vectors; their sums are the fields above
        timed_out,
    } = s;
    let MemStats {
        l1_hits,
        l1_misses,
        l2_hits,
        l2_misses,
        transactions,
        mshr_merges,
        mshr_occupancy_cycles,
        dram_queue_occupancy_cycles,
        peak_mshr_occupancy,
        peak_dram_queue_occupancy,
    } = mem;
    let fields = [
        ("cycles", *cycles),
        ("warp_instrs", *warp_instrs),
        ("thread_instrs", *thread_instrs),
        ("stall_cycles", *stall_cycles),
        ("idle_cycles", *idle_cycles),
        ("empty_cycles", *empty_cycles),
        ("blocks_completed", *blocks_completed),
        ("max_resident_blocks", u64::from(*max_resident_blocks)),
        ("lock_retries", *lock_retries),
        ("throttled_issues", *throttled_issues),
        ("mshr_full_stalls", *mshr_full_stalls),
        ("dram_queue_full_stalls", *dram_queue_full_stalls),
        ("stall_scoreboard_cycles", *stall_scoreboard_cycles),
        ("stall_barrier_cycles", *stall_barrier_cycles),
        ("stall_mem_gate_cycles", *stall_mem_gate_cycles),
        ("stall_no_ready_cycles", *stall_no_ready_cycles),
        ("timed_out", u64::from(*timed_out)),
        ("mem.l1_hits", *l1_hits),
        ("mem.l1_misses", *l1_misses),
        ("mem.l2_hits", *l2_hits),
        ("mem.l2_misses", *l2_misses),
        ("mem.transactions", *transactions),
        ("mem.mshr_merges", *mshr_merges),
        ("mem.mshr_occupancy_cycles", *mshr_occupancy_cycles),
        (
            "mem.dram_queue_occupancy_cycles",
            *dram_queue_occupancy_cycles,
        ),
        ("mem.peak_mshr_occupancy", u64::from(*peak_mshr_occupancy)),
        (
            "mem.peak_dram_queue_occupancy",
            u64::from(*peak_dram_queue_occupancy),
        ),
    ];
    let mut out = label.to_string();
    for (name, value) in fields {
        out.push_str(&format!(" {name}={value}"));
    }
    out
}

/// Simulate every point and render the golden file.
fn render() -> String {
    let mut out = String::from(
        "# Golden statistics: one simulated point per line. Regenerate only with\n\
         # `cargo test --release --test golden_stats -- --ignored bless`.\n",
    );
    for (name, mut kernel) in [
        ("hotspot", workloads::set1::hotspot()),
        ("conv1", workloads::set2::conv1()),
    ] {
        kernel.grid_blocks = 28;
        for (sched_label, sched) in SCHEDULERS {
            for (sharing_label, sharing) in SHARING {
                let stats = Simulator::new(matrix_config(sched, sharing)).run(&kernel);
                let label = format!("matrix/{name}-28/{sched_label}/{sharing_label}");
                out.push_str(&line(&label, &stats));
                out.push('\n');
            }
        }
    }
    for spec in pinned_corpus() {
        let kernel = spec.build();
        for (preset_label, model) in PRESETS {
            let stats = Simulator::new(corpus_config(model)).run(&kernel);
            let label = format!("corpus/{}/{preset_label}", spec.scenario_name());
            out.push_str(&line(&label, &stats));
            out.push('\n');
        }
    }
    out
}

#[test]
fn statistics_match_the_checked_in_golden_file() {
    let actual = render();
    if actual == GOLDEN {
        return;
    }
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    let mut report = String::new();
    for (e, a) in expected.iter().zip(&got).filter(|(e, a)| e != a).take(5) {
        report.push_str(&format!("\n  golden: {e}\n  actual: {a}"));
    }
    panic!(
        "statistics drifted from tests/golden_stats.txt ({} golden lines, {} actual); \
         first differences:{report}\nIf the change is intended, re-bless and review the diff.",
        expected.len(),
        got.len()
    );
}

#[test]
#[ignore = "rewrites tests/golden_stats.txt; run only to accept a reviewed change"]
fn bless() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_stats.txt");
    std::fs::write(&path, render()).expect("write the golden file");
}
