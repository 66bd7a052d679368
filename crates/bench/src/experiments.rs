//! One function per paper table/figure.
//!
//! The static experiments (Table I, Tables II–IV, Sec. V, Fig. 1) print
//! directly. The simulated ones build their benchmark × configuration
//! grids with [`run_grid`] and return a result type whose `Display` prints
//! the rows the paper plots; each function's doc comment names the figure
//! or table it regenerates. Derived columns (dIPC%, dStall%, dIdle%, the
//! Fig. 11 winner) are computed from the grid's cells, and a column that
//! reads a failed cell prints `failed`. The recorded paper-vs-measured
//! numbers live in the "Accuracy" section of `benchmark/README.md`.

use std::fmt;

use grs_core::hw_cost::hw_cost;
use grs_core::{
    compute_launch_plan, occupancy, GpuConfig, KernelFootprint, ResourceKind, SchedulerKind,
    Threshold,
};
use grs_isa::Kernel;
use grs_sim::{RunConfig, SimStats};
use grs_workloads::suite::{SET1_NAMES, SET2_NAMES, SET3_NAMES};
use grs_workloads::{set1_benchmarks, set2_benchmarks, set3_benchmarks};

use crate::runner::{run_grid, shrink_grid, Grid};

/// `names` paired with `kernels`, each grid divided by 4 when `quick`.
fn named<'a>(names: &[&'a str], kernels: Vec<Kernel>, quick: bool) -> Vec<(&'a str, Kernel)> {
    names
        .iter()
        .zip(kernels)
        .map(|(&name, mut k)| {
            if quick {
                shrink_grid(&mut k, 4);
            }
            (name, k)
        })
        .collect()
}

/// `share` under `scheduler`, keeping its Unroll (declaration reordering)
/// and Dyn (dynamic throttle) optimizations only where asked.
fn variant(share: &RunConfig, scheduler: SchedulerKind, unroll: bool, dynamic: bool) -> RunConfig {
    share
        .clone()
        .with_scheduler(scheduler)
        .with_reorder_decls(share.reorder_decls && unroll)
        .with_dyn_throttle(share.dyn_throttle && dynamic)
}

fn header(title: &str) -> String {
    let rule = "=".repeat(64);
    format!("\n{rule}\n{title}\n{rule}\n")
}

/// One table cell's text; `None` when a simulation it reads failed.
type Cell = Option<String>;

/// `v` to `prec` decimals.
fn fixed(prec: usize, v: Option<f64>) -> Cell {
    v.map(|v| format!("{v:.prec$}"))
}

/// `v` to `prec` decimals and a `%` sign.
fn pct(prec: usize, v: Option<f64>) -> Cell {
    v.map(|v| format!("{v:.prec$}%"))
}

fn ipc(s: Option<&SimStats>) -> Cell {
    fixed(1, s.map(SimStats::ipc))
}

/// Each row of `g`, named, with the cells `cells(row)`.
fn rows<'g>(
    g: &'g Grid,
    cells: impl Fn(usize) -> Vec<Cell> + 'g,
) -> impl Iterator<Item = (&'g str, Vec<Cell>)> + 'g {
    (0..g.rows.len()).map(move |r| (g.rows[r].as_str(), cells(r)))
}

/// Write `title`, then a heading line and one line per row: the row name
/// left-aligned in the first heading's width, each cell right-aligned in
/// its heading's width, and `failed` for a cell without a value.
fn table<'a>(
    f: &mut fmt::Formatter<'_>,
    title: &str,
    heads: &[(&'a str, usize)],
    rows: impl IntoIterator<Item = (&'a str, Vec<Cell>)>,
) -> fmt::Result {
    f.write_str(&header(title))?;
    let ((first, name_width), heads) = heads.split_first().expect("a row-name heading");
    let titles = heads.iter().map(|(h, _)| Some(h.to_string())).collect();
    for (name, cells) in std::iter::once((*first, titles)).chain(rows) {
        write!(f, "{name:<name_width$}")?;
        for ((_, width), cell) in heads.iter().zip(cells) {
            write!(f, " {:>width$}", cell.as_deref().unwrap_or("failed"))?;
        }
        writeln!(f)?;
    }
    Ok(())
}

/// `benchmark`, then `labels` as headings `width` wide.
fn heads(labels: &[String], width: usize) -> Vec<(&str, usize)> {
    let labels = labels.iter().map(|l| (l.as_str(), width));
    std::iter::once(("benchmark", 12)).chain(labels).collect()
}

/// Table I.
pub fn print_config() {
    print!("{}", header("Table I: GPGPU-Sim-equivalent architecture"));
    let c = GpuConfig::paper_baseline();
    println!("SMs (clusters x cores)          : {}", c.num_sms);
    println!("Max thread blocks / SM          : {}", c.sm.max_blocks);
    println!("Max threads / SM                : {}", c.sm.max_threads);
    println!("Registers / SM                  : {}", c.sm.registers);
    println!(
        "Scratchpad / SM                 : {} KB",
        c.sm.scratchpad_bytes / 1024
    );
    println!("Warp schedulers / SM            : {}", c.sm.schedulers);
    println!(
        "L1 cache / SM                   : {} KB",
        c.mem.l1_bytes / 1024
    );
    println!(
        "L2 cache (shared)               : {} KB",
        c.mem.l2_bytes / 1024
    );
    println!(
        "Latencies (ialu/imul/fp/sfu/spm): {}/{}/{}/{}/{}",
        c.lat.ialu, c.lat.imul, c.lat.fp, c.lat.sfu, c.lat.scratchpad
    );
    println!(
        "Memory (L1 hit/L2/DRAM, svc L2/DRAM): {}/{}/{} cycles, 1-per-{}/{} quarter-cycles",
        c.mem.l1_hit_latency,
        c.mem.l2_latency,
        c.mem.dram_latency,
        c.mem.l2_service_q4,
        c.mem.dram_service_q4
    );
}

/// Tables II, III, IV.
pub fn print_suites() {
    print!("{}", header("Tables II-IV: benchmark footprints"));
    println!(
        "{:<12} {:>8} {:>6} {:>10} {:>8}",
        "benchmark", "threads", "regs", "smem(B)", "grid"
    );
    for (names, ks) in [
        (&SET1_NAMES[..], set1_benchmarks()),
        (&SET2_NAMES[..], set2_benchmarks()),
        (&SET3_NAMES[..], set3_benchmarks()),
    ] {
        for (n, k) in names.iter().zip(ks) {
            println!(
                "{:<12} {:>8} {:>6} {:>10} {:>8}",
                n, k.threads_per_block, k.regs_per_thread, k.smem_per_block, k.grid_blocks
            );
        }
        println!("{}", "-".repeat(48));
    }
}

/// Sec. V hardware cost.
pub fn print_hwcost() {
    print!("{}", header("Section V: hardware storage overhead"));
    let cost = hw_cost(&GpuConfig::paper_baseline());
    println!(
        "register sharing : {} bits total ({} bits/SM)",
        cost.register_sharing_bits,
        cost.register_sharing_bits / 14
    );
    println!(
        "scratchpad sharing: {} bits total ({} bits/SM)",
        cost.scratchpad_sharing_bits,
        cost.scratchpad_sharing_bits / 14
    );
    println!("comparators/SM   : {}", cost.comparators_per_sm);
}

/// Fig. 1: motivation — resident blocks and waste percentages.
pub fn fig1() {
    print!(
        "{}",
        header("Fig 1(a,b): Set-1 resident blocks and register waste")
    );
    let sm = GpuConfig::paper_baseline().sm;
    println!("{:<12} {:>7} {:>12}", "benchmark", "blocks", "reg waste %");
    for (n, k) in SET1_NAMES.iter().zip(set1_benchmarks()) {
        let occ = occupancy(&sm, &KernelFootprint::of(&k));
        println!(
            "{:<12} {:>7} {:>11.1}%",
            n,
            occ.blocks,
            occ.register_waste_pct(&sm)
        );
    }
    print!(
        "{}",
        header("Fig 1(c,d): Set-2 resident blocks and scratchpad waste")
    );
    println!("{:<12} {:>7} {:>12}", "benchmark", "blocks", "spm waste %");
    for (n, k) in SET2_NAMES.iter().zip(set2_benchmarks()) {
        let occ = occupancy(&sm, &KernelFootprint::of(&k));
        println!(
            "{:<12} {:>7} {:>11.1}%",
            n,
            occ.blocks,
            occ.scratchpad_waste_pct(&sm)
        );
    }
}

/// Set-1 under a baseline and register sharing, and Set-2 under a
/// baseline and scratchpad sharing: column 0 of each grid is the
/// baseline, column 1 the sharing configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Pairs {
    /// Set-1 × (baseline, Shared-OWF-Unroll-Dyn).
    pub reg: Grid,
    /// Set-2 × (baseline, Shared-OWF).
    pub smem: Grid,
}

fn pairs(quick: bool, reg_base: (&str, RunConfig), smem_base: (&str, RunConfig)) -> Pairs {
    let reg = [
        reg_base,
        ("Shared-OWF-Unroll-Dyn", RunConfig::paper_register_sharing()),
    ];
    let smem = [
        smem_base,
        ("Shared-OWF", RunConfig::paper_scratchpad_sharing()),
    ];
    Pairs {
        reg: run_grid(&named(&SET1_NAMES, set1_benchmarks(), quick), &reg),
        smem: run_grid(&named(&SET2_NAMES, set2_benchmarks(), quick), &smem),
    }
}

/// IPC, resident blocks and the stall/idle decrease of column 1 against
/// column 0.
fn improvement_table(f: &mut fmt::Formatter<'_>, title: &str, g: &Grid) -> fmt::Result {
    let heads = [
        ("benchmark", 12),
        ("IPC base", 9),
        ("IPC shr", 9),
        ("dIPC%", 8),
        ("blk base", 9),
        ("blk shr", 9),
        ("dStall%", 10),
        ("dIdle%", 10),
    ];
    let blocks = |r, c| g.stats(r, c).map(|s| s.max_resident_blocks.to_string());
    let cells = |r| {
        vec![
            ipc(g.stats(r, 0)),
            ipc(g.stats(r, 1)),
            pct(2, g.vs(r, 1, 0, SimStats::ipc_improvement_pct)),
            blocks(r, 0),
            blocks(r, 1),
            pct(1, g.vs(r, 1, 0, SimStats::stall_decrease_pct)),
            pct(1, g.vs(r, 1, 0, SimStats::idle_decrease_pct)),
        ]
    };
    table(f, title, &heads, rows(g, cells))
}

/// Fig. 8's result: resident blocks and IPC improvement for both sharing
/// mechanisms against Unshared-LRR.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8(pub Pairs);

/// Fig. 8: resident blocks + IPC improvement for both sharing mechanisms.
pub fn fig8(quick: bool) -> Fig8 {
    let lrr = ("Unshared-LRR", RunConfig::baseline_lrr());
    Fig8(pairs(quick, lrr.clone(), lrr))
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        improvement_table(
            f,
            "Fig 8(a,c): register sharing (Shared-OWF-Unroll-Dyn vs Unshared-LRR)",
            &self.0.reg,
        )?;
        improvement_table(
            f,
            "Fig 8(b,d): scratchpad sharing (Shared-OWF vs Unshared-LRR)",
            &self.0.smem,
        )
    }
}

/// Fig. 9's result: each optimization ladder, column 0 (Unshared-LRR)
/// the baseline and the last column the full configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9 {
    /// Set-1 × the register-sharing ladder (Fig. 9(a,c)).
    pub reg: Grid,
    /// Set-2 × the scratchpad-sharing ladder (Fig. 9(b,d)).
    pub smem: Grid,
}

/// Fig. 9: optimization ablation and stall/idle decrease.
pub fn fig9(quick: bool) -> Fig9 {
    use SchedulerKind::Lrr;
    // Register-sharing ablation ladder (paper Fig. 9(a) legend).
    let share = RunConfig::paper_register_sharing();
    let reg = [
        ("Unshared-LRR", RunConfig::baseline_lrr()),
        ("Shared-LRR-NoOpt", variant(&share, Lrr, false, false)),
        ("Shared-LRR-Unroll", variant(&share, Lrr, true, false)),
        ("Shared-LRR-Unroll-Dyn", variant(&share, Lrr, true, true)),
        ("Shared-OWF-Unroll-Dyn", share),
    ];
    // Scratchpad ablation (paper Fig. 9(b)): NoOpt (LRR) vs OWF.
    let share = RunConfig::paper_scratchpad_sharing();
    let smem = [
        ("Unshared-LRR", RunConfig::baseline_lrr()),
        ("Shared-LRR-NoOpt", variant(&share, Lrr, false, false)),
        ("Shared-OWF", share),
    ];
    Fig9 {
        reg: run_grid(&named(&SET1_NAMES, set1_benchmarks(), quick), &reg),
        smem: run_grid(&named(&SET2_NAMES, set2_benchmarks(), quick), &smem),
    }
}

/// Each row's % IPC gain of columns 1.. against column 0, `width` wide.
fn gain_table(f: &mut fmt::Formatter<'_>, title: &str, g: &Grid, width: usize) -> fmt::Result {
    let cells = |r| {
        (1..g.cols.len())
            .map(|c| pct(2, g.vs(r, c, 0, SimStats::ipc_improvement_pct)))
            .collect()
    };
    table(f, title, &heads(&g.cols[1..], width), rows(g, cells))
}

/// % decrease in stall and idle cycles of each row's last column against
/// column 0.
fn stall_idle(f: &mut fmt::Formatter<'_>, title: &str, g: &Grid) -> fmt::Result {
    let full = g.cols.len() - 1;
    let cells = |r| {
        vec![
            pct(1, g.vs(r, full, 0, SimStats::stall_decrease_pct)),
            pct(1, g.vs(r, full, 0, SimStats::idle_decrease_pct)),
        ]
    };
    let heads = [("benchmark", 12), ("dStall%", 10), ("dIdle%", 10)];
    table(f, title, &heads, rows(g, cells))
}

impl fmt::Display for Fig9 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        gain_table(
            f,
            "Fig 9(a): register-sharing optimization ablation (% IPC vs Unshared-LRR)",
            &self.reg,
            22,
        )?;
        stall_idle(
            f,
            "Fig 9(c): register sharing, % decrease in stall/idle cycles (full config)",
            &self.reg,
        )?;
        // Fig. 9(b)'s two columns are sized to their labels.
        let title = "Fig 9(b): scratchpad-sharing ablation (% IPC vs Unshared-LRR)";
        let cells = |r| {
            let gain = |c| pct(2, self.smem.vs(r, c, 0, SimStats::ipc_improvement_pct));
            vec![gain(1), gain(2)]
        };
        let heads = [
            ("benchmark", 12),
            ("Shared-LRR-NoOpt", 18),
            ("Shared-OWF", 12),
        ];
        table(f, title, &heads, rows(&self.smem, cells))?;
        stall_idle(
            f,
            "Fig 9(d): scratchpad sharing, % decrease in stall/idle cycles (Shared-OWF)",
            &self.smem,
        )
    }
}

/// Fig. 10's result: both sharing mechanisms against the GTO and the
/// Two-Level baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10 {
    /// Against Unshared-GTO (Fig. 10(a,b)).
    pub gto: Pairs,
    /// Against Unshared-Two-Level (Fig. 10(c,d)).
    pub two_level: Pairs,
}

/// Fig. 10: sharing vs GTO and Two-Level baselines.
pub fn fig10(quick: bool) -> Fig10 {
    let gto = ("Unshared-GTO", RunConfig::baseline_gto());
    let two_level = ("Unshared-Two-Level", RunConfig::baseline_two_level());
    Fig10 {
        gto: pairs(quick, gto.clone(), gto),
        two_level: pairs(quick, two_level.clone(), two_level),
    }
}

impl fmt::Display for Fig10 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let heads = [
            ("benchmark", 12),
            ("IPC base", 10),
            ("IPC shr", 10),
            ("dIPC%", 8),
        ];
        let pair_rows = |g| {
            rows(g, |r| {
                let gain = g.vs(r, 1, 0, SimStats::ipc_improvement_pct);
                vec![ipc(g.stats(r, 0)), ipc(g.stats(r, 1)), pct(2, gain)]
            })
        };
        // The Set-1 and Set-2 rows are parted by a rule with no cells.
        let rule = "-".repeat(44);
        for (title, p) in [
            ("Fig 10(a,b): sharing vs GTO baseline", &self.gto),
            (
                "Fig 10(c,d): sharing vs Two-Level baseline",
                &self.two_level,
            ),
        ] {
            let parting = std::iter::once((rule.as_str(), Vec::new()));
            let all = pair_rows(&p.reg).chain(parting).chain(pair_rows(&p.smem));
            table(f, title, &heads, all)?;
        }
        Ok(())
    }
}

/// Fig. 11's result: sharing at 1× resources (column 1) against unshared
/// LRR at 2× resources (column 0).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11(pub Pairs);

/// Fig. 11: sharing at 1× resources vs unshared LRR at 2× resources.
pub fn fig11(quick: bool) -> Fig11 {
    let reg = RunConfig::baseline_lrr().with_gpu(GpuConfig::doubled_registers());
    let smem = RunConfig::baseline_lrr().with_gpu(GpuConfig::doubled_scratchpad());
    Fig11(pairs(
        quick,
        ("Unshared-LRR-Reg#65536", reg),
        ("Unshared-LRR-ShMem#32K", smem),
    ))
}

/// Absolute IPC of columns 0 and 1 under `heads`, and which one wins:
/// `sharing` (column 1) or `doubled` (column 0).
fn winner_table(
    f: &mut fmt::Formatter<'_>,
    title: &str,
    heads: [&str; 2],
    g: &Grid,
    doubled: &str,
) -> fmt::Result {
    let cells = |r| {
        let (b, s) = (g.stats(r, 0), g.stats(r, 1));
        let sharing_wins = b.zip(s).map(|(b, s)| s.ipc() >= b.ipc());
        let winner = sharing_wins.map(|w| if w { "sharing" } else { doubled });
        vec![ipc(b), ipc(s), winner.map(String::from)]
    };
    let heads = [
        ("benchmark", 12),
        (heads[0], 12),
        (heads[1], 12),
        ("winner", 8),
    ];
    table(f, title, &heads, rows(g, cells))
}

impl fmt::Display for Fig11 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        winner_table(
            f,
            "Fig 11(a): register sharing @32K vs unshared LRR @64K registers (absolute IPC)",
            ["IPC 64K-LRR", "IPC 32K-shr"],
            &self.0.reg,
            "2x-reg",
        )?;
        winner_table(
            f,
            "Fig 11(b): scratchpad sharing @16K vs unshared LRR @32K (absolute IPC)",
            ["IPC 32K-LRR", "IPC 16K-shr"],
            &self.0.smem,
            "2x-spm",
        )
    }
}

/// Absolute IPC of every cell, one `width`-wide column per configuration.
fn ipc_table(f: &mut fmt::Formatter<'_>, title: &str, g: &Grid, width: usize) -> fmt::Result {
    let cells = |r| (0..g.cols.len()).map(|c| ipc(g.stats(r, c))).collect();
    table(f, title, &heads(&g.cols, width), rows(g, cells))
}

/// Fig. 12's result: Set-3 under each scheduler, unshared and shared.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12 {
    /// Under register sharing (Fig. 12(a)).
    pub reg: Grid,
    /// Under scratchpad sharing (Fig. 12(b)).
    pub smem: Grid,
}

/// Fig. 12: Set-3 policy equivalences.
pub fn fig12(quick: bool) -> Fig12 {
    use SchedulerKind::{Gto, Lrr};
    let s3 = named(&SET3_NAMES, set3_benchmarks(), quick);
    let grid = |share: RunConfig| {
        let configs = [
            ("Unshared-LRR", RunConfig::baseline_lrr()),
            ("Shared-LRR", variant(&share, Lrr, true, true)),
            ("Unshared-GTO", RunConfig::baseline_gto()),
            ("Shared-GTO", variant(&share, Gto, true, true)),
            ("Shared-OWF", share),
        ];
        run_grid(&s3, &configs)
    };
    Fig12 {
        reg: grid(RunConfig::paper_register_sharing()),
        smem: grid(RunConfig::paper_scratchpad_sharing()),
    }
}

impl fmt::Display for Fig12 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let title = "Fig 12(a): Set-3, register sharing (absolute IPC)";
        ipc_table(f, title, &self.reg, 13)?;
        let title = "Fig 12(b): Set-3, scratchpad sharing (absolute IPC)";
        ipc_table(f, title, &self.smem, 13)
    }
}

/// The `inspect` diagnostic's result: one benchmark's counters under the
/// main configurations.
#[derive(Debug, Clone, PartialEq)]
pub struct Inspect {
    /// The simulated grid size, in blocks.
    pub grid_blocks: u32,
    /// The benchmark (one row) × the configurations.
    pub grid: Grid,
}

/// Diagnostic: full counter dump for one benchmark under the main
/// configurations (not a paper artifact; used to calibrate workload models
/// and debug regressions). Fails on an unknown benchmark name.
pub fn inspect(name: &str, quick: bool) -> Result<Inspect, String> {
    let Some(mut k) = grs_workloads::benchmark(name) else {
        return Err(format!("unknown benchmark {name}"));
    };
    if quick {
        shrink_grid(&mut k, 4);
    }
    let configs = inspect_configs(&k);
    let configs: Vec<_> = configs
        .iter()
        .map(|(l, c)| (l.as_str(), c.clone()))
        .collect();
    Ok(Inspect {
        grid_blocks: k.grid_blocks,
        grid: run_grid(&[(name, k)], &configs),
    })
}

/// The configurations `inspect` runs `k` under, each distinct one once:
/// the two unshared baselines, then the sharing the paper applies to `k`
/// (scratchpad above 2 KiB per block, else registers) without, with part
/// of and with all of its optimizations. Scratchpad sharing has neither
/// Unroll nor Dyn, so there a variant differs only in its scheduler, and
/// its row names only that.
fn inspect_configs(k: &Kernel) -> Vec<(String, RunConfig)> {
    use SchedulerKind::{Gto, Lrr, Owf};
    let share = if k.smem_per_block > 2048 {
        RunConfig::paper_scratchpad_sharing()
    } else {
        RunConfig::paper_register_sharing()
    };
    let has_opts = share.reorder_decls || share.dyn_throttle;
    let mut configs = vec![
        ("Unshared-LRR".to_string(), RunConfig::baseline_lrr()),
        ("Unshared-GTO".to_string(), RunConfig::baseline_gto()),
    ];
    for (label, scheduler, unroll, dynamic) in [
        ("Shared-LRR-NoOpt", Lrr, false, false),
        ("Shared-OWF-NoOpt", Owf, false, false),
        ("Shared-LRR-Unroll", Lrr, true, false),
        ("Shared-GTO-Unroll", Gto, true, false),
        ("Shared-OWF-NoDyn", Owf, true, false),
        ("Shared-full", Owf, true, true),
    ] {
        let cfg = variant(&share, scheduler, unroll, dynamic);
        if configs.iter().all(|(_, c)| *c != cfg) {
            let label = if has_opts {
                label.to_string()
            } else {
                format!("Shared-{}", scheduler.name())
            };
            configs.push((label, cfg));
        }
    }
    configs
}

/// One `inspect` column: heading, width and the counter it shows.
type Counter = (&'static str, usize, fn(&SimStats) -> String);

const COUNTERS: [Counter; 12] = [
    ("IPC", 8, |s| format!("{:.1}", s.ipc())),
    ("cycles", 9, |s| s.cycles.to_string()),
    ("stall", 9, |s| s.stall_cycles.to_string()),
    ("idle", 9, |s| s.idle_cycles.to_string()),
    ("empty", 9, |s| s.empty_cycles.to_string()),
    ("L1m%", 7, |s| {
        format!("{:.1}%", 100.0 * s.mem.l1_miss_ratio())
    }),
    ("L2m%", 7, |s| {
        format!("{:.1}%", 100.0 * s.mem.l2_miss_ratio())
    }),
    ("txns", 9, |s| s.mem.transactions.to_string()),
    ("winstr", 10, |s| s.warp_instrs.to_string()),
    ("lockrtry", 9, |s| s.lock_retries.to_string()),
    ("throttled", 9, |s| s.throttled_issues.to_string()),
    ("TO", 4, |s| {
        String::from(if s.timed_out { "YES" } else { "no" })
    }),
];

impl fmt::Display for Inspect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let g = &self.grid;
        let title = format!("inspect: {} (grid {})", g.rows[0], self.grid_blocks);
        let heads: Vec<_> = std::iter::once(("config", 18))
            .chain(COUNTERS.iter().map(|&(head, width, _)| (head, width)))
            .collect();
        // One line per configuration: the grid's columns become rows.
        let lines = g.cols.iter().enumerate().map(|(c, label)| {
            let s = g.stats(0, c);
            let cells = COUNTERS.iter().map(|(_, _, show)| s.map(show)).collect();
            (label.as_str(), cells)
        });
        table(f, &title, &heads, lines)
    }
}

/// Tables V–VIII's result: IPC and resident blocks against the share of
/// the resource that sharing may use.
#[derive(Debug, Clone, PartialEq)]
pub struct SharingSweep {
    /// Table title.
    pub title: &'static str,
    /// Benchmarks × sharing percentages (Table V/VII).
    pub ipc: Grid,
    /// Resident blocks from the launch plan, per benchmark and percentage
    /// (Table VI/VIII).
    pub blocks: Vec<Vec<u32>>,
}

/// Tables V & VI: IPC and resident blocks vs %register sharing.
pub fn table5(quick: bool) -> SharingSweep {
    sharing_sweep(
        "Table V/VI: register sharing sweep",
        named(&SET1_NAMES, set1_benchmarks(), quick),
        RunConfig::paper_register_sharing(),
        ResourceKind::Registers,
    )
}

/// Tables VII & VIII: IPC and resident blocks vs %scratchpad sharing.
pub fn table7(quick: bool) -> SharingSweep {
    sharing_sweep(
        "Table VII/VIII: scratchpad sharing sweep",
        named(&SET2_NAMES, set2_benchmarks(), quick),
        RunConfig::paper_scratchpad_sharing(),
        ResourceKind::Scratchpad,
    )
}

fn sharing_sweep(
    title: &'static str,
    kernels: Vec<(&str, Kernel)>,
    share: RunConfig,
    res: ResourceKind,
) -> SharingSweep {
    // 0% sharing = the plain baseline with the same scheduler family: the
    // paper's row 0% is the t→1 degenerate plan (all unshared), still
    // scheduled by OWF (which then sorts by dynamic id).
    let pcts: [f64; 6] = [0.0, 10.0, 30.0, 50.0, 70.0, 90.0];
    let thresholds = pcts.map(|p| Threshold::from_sharing_pct(p).unwrap());
    let labels = pcts.map(|p| format!("{p:.0}%"));
    let configs: Vec<_> = labels
        .iter()
        .zip(thresholds)
        .map(|(label, t)| (label.as_str(), share.clone().with_threshold(t)))
        .collect();
    let sm = GpuConfig::paper_baseline().sm;
    let blocks = kernels
        .iter()
        .map(|(_, k)| {
            let footprint = KernelFootprint::of(k);
            let plan = |&t| compute_launch_plan(&sm, &footprint, t, res).max_blocks;
            thresholds.iter().map(plan).collect()
        })
        .collect();
    SharingSweep {
        title,
        ipc: run_grid(&kernels, &configs),
        blocks,
    }
}

impl fmt::Display for SharingSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        ipc_table(f, &format!("{}: IPC", self.title), &self.ipc, 9)?;
        let title = format!("{}: resident blocks", self.title);
        let blocks = |r: usize| self.blocks[r].iter().map(|b| Some(b.to_string())).collect();
        let heads = heads(&self.ipc.cols, 5);
        table(f, &title, &heads, rows(&self.ipc, blocks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 1,000-cycle run: IPC is `thread_instrs / 1000`.
    fn run(thread_instrs: u64, blocks: u32, stall: u64, idle: u64) -> Result<SimStats, String> {
        Ok(SimStats {
            cycles: 1000,
            thread_instrs,
            max_resident_blocks: blocks,
            stall_cycles: stall,
            idle_cycles: idle,
            ..SimStats::default()
        })
    }

    /// A run at `ipc` with nothing else set.
    fn at(ipc: u64) -> Result<SimStats, String> {
        run(ipc * 1000, 0, 0, 0)
    }

    fn failed() -> Result<SimStats, String> {
        Err("injected failure".to_string())
    }

    fn grid(rows: &[&str], cols: &[&str], cells: Vec<Result<SimStats, String>>) -> Grid {
        let strings = |v: &[&str]| v.iter().map(|s| s.to_string()).collect();
        Grid {
            rows: strings(rows),
            cols: strings(cols),
            cells,
        }
    }

    /// The first line after `title` in `text` whose first word is `name`.
    fn line<'t>(text: &'t str, title: &str, name: &str) -> &'t str {
        let start = text
            .find(title)
            .unwrap_or_else(|| panic!("no `{title}` in\n{text}"));
        text[start..]
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .unwrap_or_else(|| panic!("no `{name}` row under `{title}` in\n{text}"))
    }

    fn tokens<'t>(text: &'t str, title: &str, name: &str) -> Vec<&'t str> {
        line(text, title, name).split_whitespace().collect()
    }

    fn fig8(rows: &[&str], reg: Vec<Result<SimStats, String>>) -> Fig8 {
        Fig8(Pairs {
            reg: grid(rows, &["Unshared-LRR", "Shared-OWF-Unroll-Dyn"], reg),
            smem: grid(
                &["CONV1"],
                &["Unshared-LRR", "Shared-OWF"],
                vec![at(1), at(2)],
            ),
        })
    }

    #[test]
    fn fig8_prints_ipc_blocks_and_the_derived_deltas() {
        let reg = vec![run(600_000, 3, 10, 200), run(690_000, 6, 5, 50)];
        let text = fig8(&["hotspot"], reg).to_string();
        assert!(text.starts_with(&format!("\n{}\nFig 8(a,c)", "=".repeat(64))));
        assert_eq!(
            line(&text, "Fig 8(a,c)", "hotspot"),
            "hotspot          600.0     690.0   15.00%         3         6      50.0%      75.0%"
        );
        assert_eq!(
            line(&text, "Fig 8(a,c)", "benchmark"),
            "benchmark     IPC base   IPC shr    dIPC%  blk base   blk shr    dStall%     dIdle%"
        );
        assert_eq!(
            tokens(&text, "Fig 8(b,d)", "CONV1"),
            ["CONV1", "1.0", "2.0", "100.00%", "0", "0", "0.0%", "0.0%"]
        );
    }

    #[test]
    fn fig9_prints_the_ladder_gains_and_the_full_configs_stall_idle() {
        let ladder = [
            "Unshared-LRR",
            "Shared-LRR-NoOpt",
            "Shared-LRR-Unroll",
            "Shared-LRR-Unroll-Dyn",
            "Shared-OWF-Unroll-Dyn",
        ];
        let reg = vec![
            run(100_000, 0, 40, 400),
            at(110),
            at(120),
            at(90),
            run(150_000, 0, 10, 500),
        ];
        let smem = vec![at(200), at(210), at(250)];
        let text = Fig9 {
            reg: grid(&["MUM"], &ladder, reg),
            smem: grid(
                &["CONV2"],
                &["Unshared-LRR", "Shared-LRR-NoOpt", "Shared-OWF"],
                smem,
            ),
        }
        .to_string();
        assert_eq!(
            line(&text, "Fig 9(a)", "MUM"),
            "MUM                          10.00%                 20.00%                -10.00%                 50.00%"
        );
        assert_eq!(
            line(&text, "Fig 9(c)", "MUM"),
            "MUM               75.0%     -25.0%"
        );
        assert_eq!(
            line(&text, "Fig 9(b)", "CONV2"),
            "CONV2                     5.00%       25.00%"
        );
        assert_eq!(
            tokens(&text, "Fig 9(d)", "CONV2"),
            ["CONV2", "0.0%", "0.0%"]
        );
    }

    fn pair(rows: [&str; 2], cells: [Result<SimStats, String>; 4]) -> Pairs {
        let [rb, rs, sb, ss] = cells;
        Pairs {
            reg: grid(&rows[..1], &["base", "shared"], vec![rb, rs]),
            smem: grid(&rows[1..], &["base", "shared"], vec![sb, ss]),
        }
    }

    #[test]
    fn fig10_prints_both_baselines_with_a_rule_between_the_sets() {
        let text = Fig10 {
            gto: pair(["hotspot", "lavaMD"], [at(600), at(660), at(400), at(600)]),
            two_level: pair(["hotspot", "lavaMD"], [at(1), at(1), at(1), at(1)]),
        }
        .to_string();
        assert_eq!(
            line(&text, "Fig 10(a,b)", "lavaMD"),
            "lavaMD            400.0      600.0   50.00%"
        );
        assert_eq!(
            tokens(&text, "Fig 10(a,b)", "hotspot"),
            ["hotspot", "600.0", "660.0", "10.00%"]
        );
        let rule = "-".repeat(44);
        let panel = &text[text.find("Fig 10(c,d)").unwrap()..];
        assert!(panel.contains(&format!("\n{rule}\nlavaMD ")), "{panel}");
    }

    #[test]
    fn fig11_names_the_winner_of_each_row() {
        let text = Fig11(pair(
            ["sgemm", "SRAD1"],
            [at(500), at(550), at(400), at(300)],
        ))
        .to_string();
        assert_eq!(
            line(&text, "Fig 11(a)", "sgemm"),
            "sgemm               500.0        550.0  sharing"
        );
        assert_eq!(
            line(&text, "Fig 11(b)", "SRAD1"),
            "SRAD1               400.0        300.0   2x-spm"
        );
    }

    #[test]
    fn fig12_prints_absolute_ipc_per_configuration() {
        let cols = [
            "Unshared-LRR",
            "Shared-LRR",
            "Unshared-GTO",
            "Shared-GTO",
            "Shared-OWF",
        ];
        let cells = || vec![at(100), at(100), at(120), at(120), at(120)];
        let text = Fig12 {
            reg: grid(&["BFS"], &cols, cells()),
            smem: grid(&["BFS"], &cols, cells()),
        }
        .to_string();
        assert_eq!(
            line(&text, "Fig 12(b)", "BFS"),
            "BFS                  100.0         100.0         120.0         120.0         120.0"
        );
    }

    fn sweep(ipc: Vec<Result<SimStats, String>>) -> SharingSweep {
        SharingSweep {
            title: "Table V/VI: register sharing sweep",
            ipc: grid(
                &["hotspot"],
                &["0%", "10%", "30%", "50%", "70%", "90%"],
                ipc,
            ),
            blocks: vec![vec![3, 3, 3, 4, 4, 6]],
        }
    }

    #[test]
    fn sharing_sweeps_print_ipc_and_plan_blocks() {
        let text = sweep(vec![at(600), at(610), at(620), at(630), at(640), at(650)]).to_string();
        assert_eq!(
            line(&text, "sweep: IPC", "hotspot"),
            "hotspot          600.0     610.0     620.0     630.0     640.0     650.0"
        );
        assert_eq!(
            line(&text, "sweep: resident blocks", "hotspot"),
            "hotspot          3     3     3     4     4     6"
        );
        assert_eq!(
            line(&text, "sweep: resident blocks", "benchmark"),
            "benchmark       0%   10%   30%   50%   70%   90%"
        );
    }

    fn inspect(last: Result<SimStats, String>) -> Inspect {
        Inspect {
            grid_blocks: 42,
            grid: grid(
                &["hotspot"],
                &["Unshared-LRR", "Shared-full"],
                vec![at(1), last],
            ),
        }
    }

    #[test]
    fn inspect_runs_each_distinct_configuration_once() {
        let labels = |name| {
            let k = grs_workloads::benchmark(name).unwrap();
            let configs = inspect_configs(&k);
            for (i, (a, x)) in configs.iter().enumerate() {
                for (b, y) in &configs[i + 1..] {
                    assert!(x != y && a != b, "{name}: {a} duplicates {b}");
                }
            }
            configs.into_iter().map(|(l, _)| l).collect::<Vec<_>>()
        };
        // Register sharing: every optimization step is its own run.
        assert_eq!(
            labels("hotspot"),
            [
                "Unshared-LRR",
                "Unshared-GTO",
                "Shared-LRR-NoOpt",
                "Shared-OWF-NoOpt",
                "Shared-LRR-Unroll",
                "Shared-GTO-Unroll",
                "Shared-OWF-NoDyn",
                "Shared-full"
            ]
        );
        // Scratchpad sharing has no optimization to toggle.
        assert_eq!(
            labels("conv1"),
            [
                "Unshared-LRR",
                "Unshared-GTO",
                "Shared-LRR",
                "Shared-OWF",
                "Shared-GTO"
            ]
        );
    }

    #[test]
    fn inspect_prints_one_counter_row_per_configuration() {
        let mut s = run(2500, 0, 10, 200).unwrap();
        s.empty_cycles = 30;
        s.mem.l1_hits = 3;
        s.mem.l1_misses = 1;
        s.mem.l2_hits = 1;
        s.mem.l2_misses = 1;
        s.mem.transactions = 40;
        s.warp_instrs = 80;
        s.lock_retries = 5;
        s.throttled_issues = 6;
        let text = inspect(Ok(s)).to_string();
        assert!(text.contains("\ninspect: hotspot (grid 42)\n"), "{text}");
        assert_eq!(
            line(&text, "inspect", "Shared-full"),
            "Shared-full             2.5      1000        10       200        30   25.0%   50.0%        40         80         5         6   no"
        );
    }

    #[test]
    fn a_failed_cell_prints_failed_in_every_column_derived_from_it() {
        // Fig. 8: hotspot's sharing run fails, MUM's baseline fails.
        let reg = vec![
            run(600_000, 3, 10, 200),
            failed(),
            failed(),
            run(690_000, 6, 5, 50),
        ];
        let text = fig8(&["hotspot", "MUM"], reg).to_string();
        assert_eq!(
            tokens(&text, "Fig 8(a,c)", "hotspot"),
            ["hotspot", "600.0", "failed", "failed", "3", "failed", "failed", "failed"]
        );
        assert_eq!(
            tokens(&text, "Fig 8(a,c)", "MUM"),
            ["MUM", "failed", "690.0", "failed", "failed", "6", "failed", "failed"]
        );

        // Fig. 9: a middle rung fails only its own gain; a failed full
        // configuration fails its gain and both decreases.
        let ladder = ["base", "a", "b", "c", "full"];
        let text = Fig9 {
            reg: grid(
                &["MUM"],
                &ladder,
                vec![at(100), at(110), failed(), at(90), at(150)],
            ),
            smem: grid(
                &["CONV2"],
                &["base", "a", "full"],
                vec![at(200), at(210), failed()],
            ),
        }
        .to_string();
        assert_eq!(
            tokens(&text, "Fig 9(a)", "MUM"),
            ["MUM", "10.00%", "failed", "-10.00%", "50.00%"]
        );
        assert_eq!(tokens(&text, "Fig 9(c)", "MUM"), ["MUM", "0.0%", "0.0%"]);
        assert_eq!(
            tokens(&text, "Fig 9(b)", "CONV2"),
            ["CONV2", "5.00%", "failed"]
        );
        assert_eq!(
            tokens(&text, "Fig 9(d)", "CONV2"),
            ["CONV2", "failed", "failed"]
        );

        // Fig. 10 and Fig. 11: the gain and the winner need both runs.
        let cells = || [at(600), failed(), failed(), at(600)];
        let text = Fig10 {
            gto: pair(["hotspot", "lavaMD"], cells()),
            two_level: pair(["hotspot", "lavaMD"], cells()),
        }
        .to_string();
        assert_eq!(
            tokens(&text, "Fig 10(a,b)", "hotspot"),
            ["hotspot", "600.0", "failed", "failed"]
        );
        assert_eq!(
            tokens(&text, "Fig 10(c,d)", "lavaMD"),
            ["lavaMD", "failed", "600.0", "failed"]
        );
        let text = Fig11(pair(["sgemm", "SRAD1"], cells())).to_string();
        assert_eq!(
            tokens(&text, "Fig 11(a)", "sgemm"),
            ["sgemm", "600.0", "failed", "failed"]
        );
        assert_eq!(
            tokens(&text, "Fig 11(b)", "SRAD1"),
            ["SRAD1", "failed", "600.0", "failed"]
        );

        // Fig. 12 and the sharing sweeps: only the failed run's IPC; the
        // launch-plan blocks are not simulated.
        let cols = ["u-lrr", "s-lrr", "u-gto", "s-gto", "s-owf"];
        let cells = || vec![at(1), at(2), failed(), at(4), at(5)];
        let text = Fig12 {
            reg: grid(&["BFS"], &cols, cells()),
            smem: grid(&["BFS"], &cols, cells()),
        }
        .to_string();
        assert_eq!(
            tokens(&text, "Fig 12(a)", "BFS"),
            ["BFS", "1.0", "2.0", "failed", "4.0", "5.0"]
        );
        let text = sweep(vec![at(600), failed(), at(620), at(630), at(640), at(650)]).to_string();
        assert_eq!(
            tokens(&text, "sweep: IPC", "hotspot"),
            ["hotspot", "600.0", "failed", "620.0", "630.0", "640.0", "650.0"]
        );
        assert_eq!(
            tokens(&text, "sweep: resident blocks", "hotspot"),
            ["hotspot", "3", "3", "3", "4", "4", "6"]
        );

        // inspect: every counter of a failed configuration.
        let text = inspect(failed()).to_string();
        let mut expected = vec!["Shared-full"];
        expected.extend(["failed"; 12]);
        assert_eq!(tokens(&text, "inspect", "Shared-full"), expected);
        assert_eq!(tokens(&text, "inspect", "Unshared-LRR")[1], "1.0");
    }
}
