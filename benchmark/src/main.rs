//! `grs-benchmark`: one benchmark for the reproduction, end to end and per
//! layer. See README.md for the workloads, metrics and how to read them.
//!
//! ```text
//! grs-benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace 0|1] [--bless]
//! grs-benchmark repeat [--runs <n>] [--seconds <s>] [--workload <name>]...
//! ```

mod golden;
mod json;
mod metrics;
mod repeat;
mod run;
mod suite;
mod trace;

use suite::Workload;

const USAGE: &str = "\
usage: grs-benchmark --workload <name> [--seed <u64>] [--seconds <s>] [--trace 0|1] [--bless]
       grs-benchmark repeat [--runs <n>] [--seconds <s>] [--workload <name>]...
workloads: paper-quick, fig8-full, dead-wait, mem-backpressure";

/// `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 28.0;

struct Args {
    repeat: bool,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
    runs: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        repeat: args.first().is_some_and(|s| s == "repeat"),
        workloads: Vec::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        bless: false,
        runs: 10,
    };
    let mut it = args.iter().skip(usize::from(a.repeat));
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            a.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => a
                .workloads
                .push(Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?),
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => a.runs = value.parse().ok().filter(|&n| n > 0).ok_or_else(bad)?,
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    if !a.repeat && a.workloads.len() != 1 {
        return Err("name one --workload".to_string());
    }
    Ok(a)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&args) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = if a.repeat {
        let workloads = if a.workloads.is_empty() {
            Workload::ALL.to_vec()
        } else {
            a.workloads
        };
        match repeat::repeat(&workloads, a.runs, a.seconds) {
            Ok(agree) => i32::from(!agree),
            Err(e) => {
                eprintln!("{e}");
                1
            }
        }
    } else if a.bless {
        match run::bless(a.workloads[0], a.seed) {
            Ok(n) => {
                eprintln!("blessed {n} golden lines for {}", a.workloads[0].name());
                0
            }
            Err(e) => {
                eprintln!("{e}");
                1
            }
        }
    } else {
        let opts = run::Options {
            workload: a.workloads[0],
            seed: a.seed,
            seconds: a.seconds,
            trace: a.trace,
        };
        match run::run(&opts) {
            Ok(o) => {
                for (name, value) in &o.metrics {
                    let unit = metrics::find(name).map_or("", |m| m.unit);
                    eprintln!("  {name:<32} {value:>14.6} {unit}");
                }
                println!(
                    "{}",
                    metrics::result_line(o.correct, o.attempted, o.failed, &o.metrics)
                );
                0
            }
            Err(e) => {
                eprintln!("{e}");
                1
            }
        }
    };
    std::process::exit(code);
}
