//! The grid runner: named kernels × labelled configurations, simulated
//! through the process-wide sweep service.
//!
//! Individual simulations are strictly serial (cycle-accurate state), but
//! experiments sweep many independent (kernel, configuration) cells.
//! [`run_grid`] submits every cell to [`SweepService::global`], which
//! content-hashes each job, answers duplicates from its memo store or by
//! attaching to the identical in-flight run, and executes the rest on its
//! worker pool; then it waits on each cell in turn (the caller helps while
//! waiting).
//!
//! Every job runs under the supervision stack plus `catch_unwind`, so a
//! cell that fails (a configuration error or a panic) keeps its error in
//! the [`Grid`] beside the good cells instead of sinking the other runs.
//! The runner names the failed cell on stderr, the experiments print it as
//! `failed`, and `repro` exits 1.
//!
//! Because the service is process-wide, duplicate (configuration, kernel)
//! pairs are simulated **once per process**, not once per occurrence: two
//! experiments sharing a baseline column hit the memo store on every
//! repeat.

use grs_isa::Kernel;
use grs_sim::{RunConfig, SimStats};

use crate::service::SweepService;

/// Scale a kernel's grid down for `--quick` smoke runs. The floor keeps at
/// least one block wave (28 blocks on the Table I machine's 14 SMs × 2
/// minimum residency) without ever *growing* a grid that was already
/// smaller than that.
pub fn shrink_grid(kernel: &mut Kernel, divisor: u32) {
    let floor = kernel.grid_blocks.min(28);
    kernel.grid_blocks = (kernel.grid_blocks / divisor.max(1)).max(floor);
}

/// Simulation results for named kernels (rows) × labelled configurations
/// (columns). [`run_grid`] builds it with one cell per (row, column) pair,
/// which the accessors index by.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    /// Row names, one per kernel.
    pub rows: Vec<String>,
    /// Column labels, one per configuration.
    pub cols: Vec<String>,
    /// One result per cell, row-major: the statistics, or the
    /// configuration error or panic message of a failed run.
    pub cells: Vec<Result<SimStats, String>>,
}

impl Grid {
    /// Cell `(row, col)`'s statistics; `None` if its simulation failed.
    pub fn stats(&self, row: usize, col: usize) -> Option<&SimStats> {
        self.cells[row * self.cols.len() + col].as_ref().ok()
    }

    /// `f(cell, baseline)` for cell `(row, col)` against cell `(row, base)`;
    /// `None` if either simulation failed.
    pub fn vs(
        &self,
        row: usize,
        col: usize,
        base: usize,
        f: impl Fn(&SimStats, &SimStats) -> f64,
    ) -> Option<f64> {
        Some(f(self.stats(row, col)?, self.stats(row, base)?))
    }
}

/// Simulate every kernel under every configuration through the global
/// sweep service: submit all cells, then wait on each. A failed cell keeps
/// its error and is named, with its row and column, on stderr.
pub fn run_grid(kernels: &[(&str, Kernel)], configs: &[(&str, RunConfig)]) -> Grid {
    let service = SweepService::global();
    let handles: Vec<_> = kernels
        .iter()
        .flat_map(|(_, k)| {
            configs
                .iter()
                .map(move |(_, cfg)| service.submit(cfg.clone(), k.clone()))
        })
        .collect();
    let cells = handles
        .iter()
        .enumerate()
        .map(|(i, h)| match &h.wait().report {
            Ok(report) => Ok(report.stats.clone()),
            Err(e) => {
                let (row, col) = (kernels[i / configs.len()].0, configs[i % configs.len()].0);
                eprintln!("warning: {row} under {col} failed: {e}");
                Err(e.clone())
            }
        })
        .collect();
    Grid {
        rows: kernels.iter().map(|(n, _)| n.to_string()).collect(),
        cols: configs.iter().map(|(l, _)| l.to_string()).collect(),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_isa::KernelBuilder;

    fn one_sm() -> RunConfig {
        let mut cfg = RunConfig::baseline_lrr();
        cfg.gpu.num_sms = 1;
        cfg
    }

    fn kernel(blocks: u32) -> Kernel {
        KernelBuilder::new(format!("k{blocks}"))
            .threads_per_block(32)
            .regs_per_thread(8)
            .grid_blocks(blocks)
            .ialu(3)
            .build()
    }

    #[test]
    fn cells_come_back_in_row_major_order() {
        // Rows differ in grid size, columns in whether the run is cut
        // short, so every cell shows where it came from.
        let mut cut = one_sm();
        cut.max_cycles = 4;
        let g = run_grid(
            &[("a", kernel(1)), ("b", kernel(2)), ("c", kernel(3))],
            &[("full", one_sm()), ("cut", cut)],
        );
        assert_eq!(g.rows, ["a", "b", "c"]);
        assert_eq!(g.cols, ["full", "cut"]);
        assert_eq!(g.cells.len(), 6);
        for (r, blocks) in [1, 2, 3].into_iter().enumerate() {
            let (full, cut) = (g.stats(r, 0).unwrap(), g.stats(r, 1).unwrap());
            assert_eq!(full.blocks_completed, blocks);
            assert!(!full.timed_out && cut.timed_out);
            assert_eq!(&g.cells[2 * r], &Ok(full.clone()));
        }
    }

    #[test]
    fn two_runs_are_equal() {
        // Thread scheduling must not leak into results: each simulation is
        // a pure function of its config and kernel.
        let mut cfg = RunConfig::baseline_lrr();
        cfg.gpu.num_sms = 2;
        let kernels: Vec<(&str, Kernel)> = ["k1", "k2", "k3", "k4", "k5", "k6"]
            .into_iter()
            .zip(1..)
            .map(|(name, n)| {
                let k = KernelBuilder::new(name)
                    .threads_per_block(64)
                    .regs_per_thread(12)
                    .grid_blocks(4 * n)
                    .ialu(n)
                    .build();
                (name, k)
            })
            .collect();
        let configs = [("lrr", cfg)];
        assert_eq!(run_grid(&kernels, &configs), run_grid(&kernels, &configs));
    }

    #[test]
    fn a_failed_cell_keeps_its_error_beside_good_cells() {
        // grid_blocks = 0 fails validation; the other cells still run.
        let mut bad = kernel(2);
        bad.grid_blocks = 0;
        let g = run_grid(
            &[("good", kernel(2)), ("boom", bad), ("also-good", kernel(2))],
            &[("lrr", one_sm())],
        );
        assert_eq!(g.stats(0, 0).unwrap().blocks_completed, 2);
        assert!(g.stats(1, 0).is_none());
        assert!(!g.cells[1].as_ref().unwrap_err().is_empty());
        assert_eq!(g.stats(2, 0), g.stats(0, 0));
        assert_eq!(g.vs(1, 0, 0, SimStats::ipc_improvement_pct), None);
        assert_eq!(g.vs(0, 0, 0, SimStats::ipc_improvement_pct), Some(0.0));
    }

    #[test]
    fn shrink_grid_floors_at_one_wave() {
        let mut k = KernelBuilder::new("k").grid_blocks(168).ialu(1).build();
        shrink_grid(&mut k, 4);
        assert_eq!(k.grid_blocks, 42);
        // A big grid shrunk below one wave stops at the 28-block floor.
        let mut big = KernelBuilder::new("b").grid_blocks(64).ialu(1).build();
        shrink_grid(&mut big, 4);
        assert_eq!(big.grid_blocks, 28);
    }

    #[test]
    fn shrink_grid_never_grows_small_grids() {
        let mut tiny = KernelBuilder::new("t").grid_blocks(8).ialu(1).build();
        shrink_grid(&mut tiny, 4);
        assert_eq!(tiny.grid_blocks, 8, "a quick run must not inflate work");
        let mut one = KernelBuilder::new("o").grid_blocks(1).ialu(1).build();
        shrink_grid(&mut one, 4);
        assert_eq!(one.grid_blocks, 1);
    }
}
