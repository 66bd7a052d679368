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
//!   inspect=<bench>
//!            full counter dump of one benchmark (e.g. inspect=hotspot)
//!            under the baseline and sharing configurations (a
//!            diagnostic, not a paper artifact)
//!   trace    run one scenario with cycle-level telemetry and export a
//!            Perfetto-loadable Chrome trace (and optionally a metrics
//!            CSV): repro trace [conv1-28|hotspot-28] [--out=trace.json]
//!            [--metrics=metrics.csv]
//!   run      run one scenario — a fixed benchmark name or a generated
//!            stress-profile spec — across the baseline/sharing config
//!            matrix and print the comparison table:
//!            repro run <name|gen:<family>:<seed>[:<size>]> [--check]
//!            (--check re-runs the lrr and lrr/event rows on the
//!            per-cycle reference engine and asserts bit-identical
//!            statistics)
//!   perf-gate  check both wall-clock ratios on the dead-wait scenario and
//!            exit 1 if either fails: the fast-forward speedup over the
//!            per-cycle reference (floor 5x) and the telemetry overhead
//!            (ceiling 1.25x), each the median of 21 interleaved pairs
//!   all      config, suites, hwcost and every figure and table above
//! ```
//!
//! `--quick` divides grid sizes by 4 for fast smoke runs. An option the
//! chosen experiment does not read is a usage error (exit 2), as is an
//! unknown experiment; an unknown benchmark or scenario name exits 1.
//! A simulation that fails prints `failed` in every column that reads it,
//! and `repro` exits 1 after printing if any simulation it submitted
//! failed.

use grs_bench::{experiments, perf, scenario, trace, SweepService};

/// The `--` options experiment `what` reads (a trailing `=` takes a
/// value), or `None` if there is no such experiment.
fn options(what: &str) -> Option<&'static [&'static str]> {
    Some(match what {
        "config" | "suites" | "hwcost" | "fig1" | "perf-gate" => &[],
        "fig8" | "fig9" | "fig10" | "fig11" | "fig12" | "table5" | "table7" | "all" => &["--quick"],
        "trace" => &["--quick", "--out=", "--metrics="],
        "run" => &["--quick", "--check"],
        _ if what.starts_with("inspect=") => &["--quick"],
        _ => return None,
    })
}

/// Does `arg` spell option `opt` (with a value, if `opt` ends in `=`)?
fn is_option(arg: &str, opt: &str) -> bool {
    if opt.ends_with('=') {
        arg.len() > opt.len() && arg.starts_with(opt)
    } else {
        arg == opt
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let what = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(String::as_str)
        .unwrap_or("all");
    let Some(accepted) = options(what) else {
        eprintln!("unknown experiment: {what}");
        std::process::exit(2);
    };
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !accepted.iter().any(|opt| is_option(a, opt)))
    {
        let takes = if accepted.is_empty() {
            "takes no options".to_string()
        } else {
            format!("takes {}", accepted.join(", "))
        };
        eprintln!("repro {what}: unknown option `{bad}`; {what} {takes}");
        std::process::exit(2);
    }

    let run = |name: &str| match name {
        "config" => experiments::print_config(),
        "suites" => experiments::print_suites(),
        "hwcost" => experiments::print_hwcost(),
        "fig1" => experiments::fig1(),
        "fig8" => print!("{}", experiments::fig8(quick)),
        "fig9" => print!("{}", experiments::fig9(quick)),
        "fig10" => print!("{}", experiments::fig10(quick)),
        "fig11" => print!("{}", experiments::fig11(quick)),
        "fig12" => print!("{}", experiments::fig12(quick)),
        "table5" => print!("{}", experiments::table5(quick)),
        "table7" => print!("{}", experiments::table7(quick)),
        "trace" => {
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
        "perf-gate" => {
            let checks = [
                perf::check_speedup_gate(perf::SPEEDUP_FLOOR, perf::GATE_PAIRS),
                perf::check_telemetry_gate(&perf::telemetry_kernel(), perf::GATE_PAIRS),
            ];
            for check in &checks {
                match check {
                    Ok(summary) => println!("perf gate ok: {summary}"),
                    Err(msg) => eprintln!("{msg}"),
                }
            }
            if checks.iter().any(Result::is_err) {
                std::process::exit(1);
            }
        }
        other => {
            let bench = other
                .strip_prefix("inspect=")
                .expect("options() admits no other experiment");
            match experiments::inspect(bench, quick) {
                Ok(result) => print!("{result}"),
                Err(msg) => {
                    eprintln!("{msg}");
                    std::process::exit(1);
                }
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

    // Experiments print a failed simulation as `failed`; the exit code is
    // what tells a script or CI that the output is incomplete.
    let failed = SweepService::global().stats().failed;
    if failed > 0 {
        eprintln!("error: {failed} simulation job(s) failed");
        std::process::exit(1);
    }
}
