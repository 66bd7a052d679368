//! `repro run <scenario>` — run one named scenario across the standard
//! configuration matrix and print a comparison table.
//!
//! A *scenario* is anything [`grs_workloads::benchmark`] resolves: the 19
//! fixed paper benchmarks (`conv1`, `hotspot`, ...) or a generated
//! stress-profile spec (`gen:<family>:<seed>[:<size>]`, see
//! `grs_workloads::gen`). The matrix is the set of configurations the paper
//! compares — the three baselines and the two sharing modes — plus the
//! event-memory-model point whose back-pressure counters the generated
//! `mshr-thrash` family targets. Rows run through the grid runner
//! ([`crate::runner::run_grid`]), so one misbehaving configuration prints
//! `failed` (and its error on stderr) instead of sinking the table.
//!
//! With `--check`, the baseline row and its finite-memory twin (`lrr`
//! and `lrr/event`) additionally re-run on the per-cycle reference loop and
//! assert bit-identical statistics — the same differential oracle
//! `tests/generated_differential.rs` applies to the whole pinned corpus,
//! available ad hoc for any scenario, on both the always-open memory gate
//! and the finite buffers that close it.

use grs_sim::{MemoryModel, RunConfig, SimStats, Simulator};

use crate::runner::{run_grid, shrink_grid};

/// The rows `--check` re-runs on the per-cycle reference: the baseline
/// under both memory presets.
const CHECKED: [&str; 2] = ["lrr", "lrr/event"];

/// The comparison rows `repro run` sweeps, baseline first: label plus
/// configuration.
fn matrix() -> Vec<(&'static str, RunConfig)> {
    vec![
        ("lrr", RunConfig::baseline_lrr()),
        ("gto", RunConfig::baseline_gto()),
        ("two-level", RunConfig::baseline_two_level()),
        ("reg-sharing", RunConfig::paper_register_sharing()),
        ("smem-sharing", RunConfig::paper_scratchpad_sharing()),
        (
            "lrr/event",
            RunConfig::baseline_lrr().with_memory_model(MemoryModel::Event),
        ),
    ]
}

fn row(label: &str, stats: Option<&SimStats>) -> String {
    let Some(stats) = stats else {
        return format!("{label:<14} failed");
    };
    format!(
        "{:<14} {:>10} {:>8.3} {:>7} {:>8} {:>10} {:>10} {:>10}",
        label,
        stats.cycles,
        stats.ipc(),
        stats.blocks_completed,
        stats.max_resident_blocks,
        stats.stall_cycles,
        stats.mshr_full_stalls,
        stats.dram_queue_full_stalls
    )
}

/// Run `scenario` across the configuration matrix and print the table.
/// `quick` divides the grid by 4 (floored like every other experiment);
/// `check` re-runs the `lrr` and `lrr/event` rows on the per-cycle
/// reference engine and asserts bit-identity.
pub fn run_scenario(scenario: &str, quick: bool, check: bool) -> Result<(), String> {
    let mut kernel = grs_workloads::benchmark(scenario).ok_or_else(|| {
        format!(
            "unknown scenario `{scenario}` — expected a benchmark name (repro suites) \
             or a generator spec gen:<family>:<seed>[:<size>] with family one of \
             pointer-chase, bursty, barrier-heavy, divergent-tile, mshr-thrash, mixed"
        )
    })?;
    if quick {
        shrink_grid(&mut kernel, 4);
    }
    println!(
        "scenario {scenario}: {} threads/block, {} regs/thread, {} B smem, {} blocks, {} dyn instrs/warp",
        kernel.threads_per_block,
        kernel.regs_per_thread,
        kernel.smem_per_block,
        kernel.grid_blocks,
        kernel.dynamic_instrs_per_warp()
    );
    println!(
        "{:<14} {:>10} {:>8} {:>7} {:>8} {:>10} {:>10} {:>10}",
        "config", "cycles", "ipc", "blocks", "maxres", "stalls", "mshr-full", "dramq-full"
    );

    let matrix = matrix();
    let grid = run_grid(&[(scenario, kernel.clone())], &matrix);
    for (c, label) in grid.cols.iter().enumerate() {
        println!("{}", row(label, grid.stats(0, c)));
    }

    if check {
        for (c, (label, cfg)) in matrix.into_iter().enumerate() {
            if !CHECKED.contains(&label) {
                continue;
            }
            let fast = grid
                .stats(0, c)
                .ok_or_else(|| format!("{label} row failed; nothing to check against"))?;
            let reference = Simulator::new(cfg.with_fast_forward(false)).run(&kernel);
            if &reference != fast {
                return Err(format!(
                    "engine divergence: the per-cycle reference disagrees with the \
                     fast-forward {label} row on `{scenario}`"
                ));
            }
        }
        println!(
            "check OK: the per-cycle reference engine is bit-identical to the {} rows",
            CHECKED.join(" and ")
        );
    }
    if grid.cells.iter().any(Result::is_err) {
        return Err("one or more matrix rows failed".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_scenarios_are_reported_not_panicked() {
        let err = run_scenario("gen:warp-yoga:1", false, false).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
        assert!(err.contains("mshr-thrash"), "lists the families: {err}");
    }

    #[test]
    fn a_generated_scenario_sweeps_the_matrix_and_checks() {
        // Small generated kernel: the full matrix plus the --check engines
        // complete quickly even in debug builds.
        run_scenario("gen:bursty:7:small", true, true).expect("sweep");
    }

    #[test]
    fn a_fixed_benchmark_resolves_too() {
        run_scenario("gaussian", true, false).expect("fixed benchmark sweep");
    }

    #[test]
    fn check_diffs_both_memory_presets_of_the_baseline() {
        let matrix = matrix();
        let row = |label| matrix.iter().find(|(l, _)| *l == label).map(|(_, c)| c);
        for label in CHECKED {
            assert!(row(label).is_some(), "{label} is not a matrix row");
        }
        // One row whose memory gate never closes, one with finite buffers.
        let finite = |label| {
            let mem = row(label).unwrap().gpu.mem;
            mem.mshr_entries > 0 || mem.dram_queue_entries > 0
        };
        assert!(!finite("lrr") && finite("lrr/event"));
    }

    #[test]
    fn the_matrix_covers_baselines_sharing_and_the_event_model() {
        let labels: Vec<&str> = matrix().into_iter().map(|(l, _)| l).collect();
        for expected in [
            "lrr",
            "gto",
            "two-level",
            "reg-sharing",
            "smem-sharing",
            "lrr/event",
        ] {
            assert!(labels.contains(&expected), "{expected} missing");
        }
    }
}
