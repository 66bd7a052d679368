//! `grs-benchmark repeat`: two interleaved sets of runs per workload, one
//! process per run, and for every end-to-end metric each set's median and
//! quartiles, its spread, and whether the two medians agree within the
//! metric's bound.

use std::process::Command;

use crate::json::{self, Json};
use crate::metrics::{self, END_TO_END};
use crate::run::nproc;
use crate::suite::Workload;

/// One run of `workload` in a child process; its metric values.
fn run_once(workload: Workload, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("starting a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = stdout
        .lines()
        .last()
        .ok_or("no result line")
        .and_then(|l| json::parse(l).map_err(|_| "unreadable result line"));
    match result {
        Ok(doc) if out.status.success() && doc.get("correct") == Some(&Json::Bool(true)) => {
            Ok(metrics::values_of(&doc))
        }
        _ => Err(format!(
            "{} seed {seed} failed ({}):\n{}{}",
            workload.name(),
            out.status,
            stdout,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// Four decimals, or four significant digits below 0.01 (set-up times).
fn sig(x: f64) -> String {
    if x.abs() >= 0.01 {
        format!("{x:.4}")
    } else {
        format!("{x:.3e}")
    }
}

/// Returns whether every metric's two set medians agree within its bound.
pub fn repeat(workloads: &[Workload], runs: usize, seconds: f64) -> Result<bool, String> {
    // samples[workload][set][run] = metric values
    let mut samples = vec![[Vec::new(), Vec::new()]; workloads.len()];
    for r in 0..runs {
        for set in 0..2 {
            for (wi, &w) in workloads.iter().enumerate() {
                let seed = (2 * r + set + 1) as u64;
                let values = run_once(w, seed, seconds)?;
                eprintln!(
                    "run {}/{runs} set {} {} seed {seed}: {}",
                    r + 1,
                    ["A", "B"][set],
                    w.name(),
                    values
                        .iter()
                        .map(|(n, v)| format!("{n}={v}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                samples[wi][set].push(values);
            }
        }
    }

    println!(
        "nproc {}, {runs} runs per set, {seconds} s per run",
        nproc()
    );
    println!(
        "{:<18} {:<18} {:>6} {:>31} {:>31} {:>6} {:>6}",
        "workload",
        "metric",
        "better",
        "set A median [q1, q3] spread",
        "set B median [q1, q3] spread",
        "bound",
        "agree"
    );
    let mut all_agree = true;
    for (w, sets) in workloads.iter().zip(&samples) {
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics have bounds");
            let stats: Vec<(f64, f64, f64)> = sets
                .iter()
                .map(|set| {
                    let xs: Vec<f64> = set
                        .iter()
                        .filter_map(|vals| vals.iter().find(|(n, _)| n == m.name).map(|(_, v)| *v))
                        .collect();
                    let (q1, q3) = metrics::quartiles(&xs);
                    (metrics::median(&xs), q1, q3)
                })
                .collect();
            let (a, b) = (stats[0].0, stats[1].0);
            let agree = (a - b).abs() <= bound * a.min(b);
            all_agree &= agree;
            let cell = |(med, q1, q3): (f64, f64, f64)| {
                format!(
                    "{} [{}, {}] {:5.1}%",
                    sig(med),
                    sig(q1),
                    sig(q3),
                    100.0 * (q3 - q1) / med
                )
            };
            println!(
                "{:<18} {:<18} {:>6} {:>31} {:>31} {:>5.0}% {:>6}",
                w.name(),
                m.name,
                m.better.name(),
                cell(stats[0]),
                cell(stats[1]),
                100.0 * bound,
                if agree { "yes" } else { "NO" }
            );
        }
    }
    Ok(all_agree)
}
