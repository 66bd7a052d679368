//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--quick]
//!
//! experiments:
//!   config   Table I machine description
//!   suites   Tables II/III/IV benchmark footprints
//!   hwcost   Sec. V hardware storage overhead
//!   fig1     Fig. 1  motivation: resident blocks + resource waste
//!   fig8     Fig. 8  resident blocks and IPC improvement (reg + scratchpad)
//!   fig9     Fig. 9  optimization ablation + stall/idle decrease
//!   fig10    Fig. 10 sharing vs GTO and Two-Level baselines
//!   fig11    Fig. 11 sharing vs doubled-resource LRR baselines
//!   fig12    Fig. 12 Set-3 policy equivalences
//!   table5   Table V/VI  IPC and blocks vs %register sharing
//!   table7   Table VII/VIII IPC and blocks vs %scratchpad sharing
//!   perf     simulator-engine throughput (fast-forward vs reference) and
//!            the telemetry subsystem's overhead; writes BENCH_pr2.json and
//!            BENCH_pr8.json (not paper artifacts)
//!   trace    run one scenario with cycle-level telemetry and export a
//!            Perfetto-loadable Chrome trace (and optionally a metrics
//!            CSV): repro trace [conv1-28|hotspot-28] [--out=trace.json]
//!            [--metrics=metrics.csv]
//!   run      run one scenario — a fixed benchmark name or a generated
//!            stress-profile spec — across the baseline/sharing config
//!            matrix and print the comparison table:
//!            repro run <name|gen:<family>:<seed>[:<size>]> [--check]
//!            (--check re-runs the baseline on the per-cycle reference
//!            engine and asserts bit-identical statistics)
//!   sweep    batch scenarios through the sweep service and print its
//!            dedup/memoization accounting:
//!            repro sweep <spec>... [--matrix] [--warm-check]
//!            (specs are benchmark names, gen:... specs, or the literal
//!            `corpus` for the pinned generated corpus; --matrix crosses
//!            every spec with the `repro run` config matrix; --warm-check
//!            resubmits the whole batch and asserts the warm pass is 100%
//!            memo hits with bit-identical statistics)
//!   perf-gate  scheduled perf-regression gate: measure the primary
//!            fast-forward speedup and exit nonzero below the floor
//!            (default 5x, override with --min-speedup=<x>)
//!   all      every paper artifact above (perf runs only when asked)
//! ```
//!
//! `--quick` divides grid sizes by 4 for fast smoke runs.

use grs_bench::{experiments, perf, scenario, sweep, trace};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");

    let run = |name: &str| match name {
        "config" => experiments::print_config(),
        "suites" => experiments::print_suites(),
        "hwcost" => experiments::print_hwcost(),
        "fig1" => experiments::fig1(),
        "fig8" => experiments::fig8(quick),
        "fig9" => experiments::fig9(quick),
        "fig10" => experiments::fig10(quick),
        "fig11" => experiments::fig11(quick),
        "fig12" => experiments::fig12(quick),
        "table5" => experiments::table5(quick),
        "table7" => experiments::table7(quick),
        "perf" => {
            let reps = if quick { 3 } else { 20 };
            perf::write_report(reps).expect("writing BENCH_pr2.json failed");
            perf::write_telemetry_report(reps).expect("writing BENCH_pr8.json failed");
        }
        "trace" => {
            let args: Vec<String> = std::env::args().skip(1).collect();
            let scenario = args
                .iter()
                .filter(|a| !a.starts_with("--") && *a != "trace")
                .map(String::as_str)
                .next()
                .unwrap_or("conv1-28");
            let out = args
                .iter()
                .find_map(|a| a.strip_prefix("--out="))
                .unwrap_or("trace.json");
            let metrics = args.iter().find_map(|a| a.strip_prefix("--metrics="));
            if let Err(msg) = trace::run_trace(scenario, out, metrics, quick) {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
        "run" => {
            let args: Vec<String> = std::env::args().skip(1).collect();
            let check = args.iter().any(|a| a == "--check");
            let Some(spec) = args
                .iter()
                .filter(|a| !a.starts_with("--") && *a != "run")
                .map(String::as_str)
                .next()
            else {
                eprintln!("usage: repro run <name|gen:<family>:<seed>[:<size>]> [--check]");
                std::process::exit(2);
            };
            if let Err(msg) = scenario::run_scenario(spec, quick, check) {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
        "sweep" => {
            let args: Vec<String> = std::env::args().skip(1).collect();
            let matrix = args.iter().any(|a| a == "--matrix");
            let warm_check = args.iter().any(|a| a == "--warm-check");
            let specs: Vec<String> = args
                .iter()
                .filter(|a| !a.starts_with("--") && *a != "sweep")
                .cloned()
                .collect();
            if let Err(msg) = sweep::run_sweep(&specs, matrix, warm_check, quick) {
                eprintln!("{msg}");
                std::process::exit(if specs.is_empty() { 2 } else { 1 });
            }
        }
        "perf-gate" => {
            let floor = std::env::args()
                .find_map(|a| a.strip_prefix("--min-speedup=")?.parse::<f64>().ok())
                .unwrap_or(5.0);
            let reps = if quick { 3 } else { 10 };
            match perf::check_speedup_gate(floor, reps) {
                Ok(m) => println!(
                    "perf gate ok: {:.2}x >= {floor:.2}x floor ({} cycles, fast {:.4}s, ref {:.4}s)",
                    m.speedup(),
                    m.cycles,
                    m.fast_s,
                    m.reference_s
                ),
                Err(msg) => {
                    eprintln!("{msg}");
                    std::process::exit(1);
                }
            }
        }
        other => {
            if let Some(bench) = other.strip_prefix("inspect=") {
                experiments::inspect(bench, quick);
            } else {
                eprintln!("unknown experiment: {other}");
                std::process::exit(2);
            }
        }
    };

    if what == "all" {
        for name in [
            "config", "suites", "hwcost", "fig1", "fig8", "fig9", "fig10", "fig11", "fig12",
            "table5", "table7",
        ] {
            run(name);
        }
    } else {
        run(what);
    }
}
