//! `repro sweep <spec>... [--matrix] [--warm-check]` — batch scenarios
//! through the sweep service and report its dedup/memo accounting.
//!
//! Each spec is anything [`grs_workloads::benchmark`] resolves (fixed
//! benchmark names, generator specs) plus the literal `corpus`, which
//! expands to the pinned generated corpus (6 families × 3 seeds). Specs are
//! canonicalized first ([`grs_workloads::canonical_scenario`]), so spelling
//! variants of the same kernel (`BTREE` vs `b+tree`, `gen:bursty:7` vs
//! `gen:bursty:7:small`) collapse to one job *before* hashing and show up
//! in the service counters as dedup rather than extra work.
//!
//! By default every spec runs on the LRR baseline; `--matrix` crosses the
//! specs with the full `repro run` configuration matrix (baselines, both
//! sharing modes, the event memory model). `--warm-check` resubmits the
//! entire batch after it completes and verifies the service answered the
//! second pass entirely from the memo store with bit-identical statistics —
//! the end-to-end proof that determinism makes memoization exact (CI runs
//! this as a smoke test).

use std::collections::BTreeSet;

use grs_sim::RunConfig;

use crate::runner::{shrink_grid, Job, JobResult};
use crate::service::{ServiceConfig, SweepService};

/// Expand and canonicalize CLI specs: `corpus` becomes the 18 pinned
/// generated scenarios; everything else must canonicalize through the
/// workloads registry. Duplicate canonical specs are kept — the service
/// deduplicating them is the point — but order is preserved.
fn expand_specs(specs: &[String]) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    for spec in specs {
        if spec == "corpus" {
            out.extend(
                grs_workloads::pinned_corpus()
                    .into_iter()
                    .map(|s| s.scenario_name()),
            );
            continue;
        }
        match grs_workloads::canonical_scenario(spec) {
            Some(canon) => out.push(canon),
            None => {
                return Err(format!(
                    "unknown scenario `{spec}` — expected a benchmark name, a generator \
                     spec gen:<family>:<seed>[:<size>], or the literal `corpus`"
                ))
            }
        }
    }
    Ok(out)
}

/// Build the job list: specs × configuration rows.
fn build_jobs(specs: &[String], matrix: bool, quick: bool) -> Result<Vec<Job>, String> {
    let rows: Vec<(String, RunConfig)> = if matrix {
        crate::scenario::matrix()
            .into_iter()
            .map(|(l, c)| (l.to_string(), c))
            .collect()
    } else {
        vec![("lrr".to_string(), RunConfig::baseline_lrr())]
    };
    let mut jobs = Vec::with_capacity(specs.len() * rows.len());
    for spec in specs {
        let mut kernel =
            grs_workloads::benchmark(spec).ok_or_else(|| format!("unknown scenario `{spec}`"))?;
        if quick {
            shrink_grid(&mut kernel, 4);
        }
        for (label, cfg) in &rows {
            jobs.push(Job::new(
                format!("{spec}/{label}"),
                cfg.clone(),
                kernel.clone(),
            ));
        }
    }
    Ok(jobs)
}

fn print_results(results: &[JobResult]) -> bool {
    println!(
        "{:<40} {:>10} {:>8} {:>7}",
        "job", "cycles", "ipc", "blocks"
    );
    let mut failed = false;
    for r in results {
        match &r.stats {
            Some(s) => println!(
                "{:<40} {:>10} {:>8.3} {:>7}",
                r.label,
                s.cycles,
                s.ipc(),
                s.blocks_completed
            ),
            None => {
                failed = true;
                println!(
                    "{:<40} FAILED: {}",
                    r.label,
                    r.error.as_deref().unwrap_or("no error message")
                );
            }
        }
    }
    failed
}

/// Run the sweep. A fresh private service instance is used (not the global
/// one) so the printed counters account for exactly this sweep — and so
/// `--warm-check`'s "zero executions on the warm pass" assertion cannot be
/// satisfied by residue from an earlier sweep in the same process.
pub fn run_sweep(
    specs: &[String],
    matrix: bool,
    warm_check: bool,
    quick: bool,
) -> Result<(), String> {
    if specs.is_empty() {
        return Err("usage: repro sweep <spec>... [--matrix] [--warm-check] [--quick]".to_string());
    }
    let specs = expand_specs(specs)?;
    let unique: BTreeSet<&String> = specs.iter().collect();
    let jobs = build_jobs(&specs, matrix, quick)?;
    let n_jobs = jobs.len();
    println!(
        "sweep: {} scenario spec(s) ({} unique) x {} config row(s) = {} jobs",
        specs.len(),
        unique.len(),
        if matrix {
            crate::scenario::matrix().len()
        } else {
            1
        },
        n_jobs
    );

    let service = SweepService::new(ServiceConfig::default());
    let cold = service.sweep(jobs.clone());
    let failed = print_results(&cold);
    let cold_stats = service.stats();
    println!("{cold_stats}");

    if warm_check {
        let warm = service.sweep(jobs);
        let warm_stats = service.stats();
        let executed_delta = warm_stats.executed - cold_stats.executed;
        let memo_delta = warm_stats.memo_hits - cold_stats.memo_hits;
        if executed_delta != 0 {
            return Err(format!(
                "warm-check: {executed_delta} job(s) re-simulated on the warm pass \
                 (expected 0 — every resubmission should be a memo hit)"
            ));
        }
        if memo_delta != n_jobs as u64 {
            return Err(format!(
                "warm-check: {memo_delta} memo hits on the warm pass, expected {n_jobs}"
            ));
        }
        for (c, w) in cold.iter().zip(&warm) {
            if c.stats != w.stats {
                return Err(format!(
                    "warm-check: job `{}` returned different statistics from the memo \
                     store — determinism violation",
                    c.label
                ));
            }
        }
        println!(
            "warm-check OK: {n_jobs}/{n_jobs} memo hits, 0 re-simulations, statistics \
             bit-identical ({:.0}% hit rate overall)",
            warm_stats.hit_rate() * 100.0
        );
    }

    if failed {
        return Err("one or more sweep jobs failed".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_expands_to_the_pinned_generated_scenarios() {
        let specs = expand_specs(&["corpus".to_string()]).unwrap();
        assert_eq!(specs.len(), 18, "6 families x 3 pinned seeds");
        assert!(specs.iter().all(|s| s.starts_with("gen:")));
        let unique: BTreeSet<&String> = specs.iter().collect();
        assert_eq!(unique.len(), 18);
    }

    #[test]
    fn spelling_variants_canonicalize_before_hashing() {
        let specs = expand_specs(&["BTREE".to_string(), "b+tree".to_string()]).unwrap();
        assert_eq!(specs, vec!["b+tree", "b+tree"]);
        let err = expand_specs(&["warp-yoga".to_string()]).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
    }

    #[test]
    fn a_quick_warm_checked_sweep_passes_end_to_end() {
        // The CI smoke in miniature: duplicate spellings of one scenario,
        // warm pass must be 100% memo hits with identical stats.
        run_sweep(
            &["gen:bursty:7".to_string(), "GEN:Bursty:7:small".to_string()],
            false,
            true,
            true,
        )
        .expect("sweep");
    }
}
