//! Correctness battery for the sweep service (`grs_bench::service`): exact
//! memoization, in-flight dedup, key soundness/discrimination, and the
//! grid runner's one execution per duplicate row.
//!
//! The battery leans on the repo's foundational invariant — the simulator
//! is a *pure function* of `(RunConfig, Kernel)` — and checks
//! the service exploits it without ever violating it: a memo hit must be
//! **bit-identical** to a re-run, never merely close.

use std::collections::BTreeSet;
use std::sync::Arc;

use gpu_resource_sharing::core::SchedulerKind;
use gpu_resource_sharing::prelude::*;
use gpu_resource_sharing::sim::ServiceStats;
use grs_bench::service::{job_key, ServiceConfig};
use grs_bench::{run_grid, JobSource, SweepService};
use proptest::prelude::*;
use workloads::gen::{Family, GenSpec, SizeClass};

/// A small, fast kernel distinct from anything other suites submit.
fn tiny_kernel(tag: u32) -> Kernel {
    KernelBuilder::new(format!("svc-tiny-{tag}"))
        .threads_per_block(64)
        .regs_per_thread(12)
        .grid_blocks(4)
        .ld_global(GlobalPattern::Stream)
        .ialu(3)
        .st_global(GlobalPattern::Stream)
        .build()
}

fn tiny_cfg() -> RunConfig {
    let mut cfg = RunConfig::baseline_lrr();
    cfg.gpu.num_sms = 1;
    cfg
}

#[test]
fn a_memo_hit_returns_bit_identical_stats_without_rerunning() {
    let service = SweepService::new(ServiceConfig::default());
    let (cfg, k) = (tiny_cfg(), tiny_kernel(1));

    let first = service.submit(cfg.clone(), k.clone());
    assert_eq!(first.source(), JobSource::Queued);
    let cold = first.wait();
    let cold_report = cold.report.as_ref().expect("clean run");

    let second = service.submit(cfg, k);
    assert_eq!(
        second.source(),
        JobSource::MemoHit,
        "an identical resubmission must be answered from the memo store"
    );
    let warm = second.try_get().expect("memo hits are born resolved");
    let warm_report = warm.report.as_ref().expect("memoized clean run");
    assert!(
        Arc::ptr_eq(cold_report, warm_report),
        "the memo store hands back the same report, not a re-run"
    );
    assert_eq!(cold_report.stats, warm_report.stats, "bit-identical");

    let s = service.stats();
    assert_eq!(s.submitted, 2);
    assert_eq!(s.executed, 1, "exactly one simulation ran");
    assert_eq!(s.memo_hits, 1);
    assert_eq!(s.deduped, 0);
    assert_eq!(s.failed, 0);
}

#[test]
fn concurrent_submissions_of_one_job_simulate_exactly_once() {
    // workers: 0 — nothing executes until `drain`, so the counters after
    // the submission race are exact: one queued, N-1 attached.
    const N: usize = 8;
    let service = Arc::new(SweepService::new(ServiceConfig {
        workers: 0,
        memo_capacity: 64,
    }));
    let (cfg, k) = (tiny_cfg(), tiny_kernel(2));

    let handles: Vec<_> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..N)
            .map(|_| {
                let service = Arc::clone(&service);
                let (cfg, k) = (cfg.clone(), k.clone());
                scope.spawn(move || service.submit(cfg, k))
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    let s = service.stats();
    assert_eq!(s.submitted, N as u64);
    assert_eq!(s.deduped, N as u64 - 1, "all but one submission attached");
    assert_eq!(s.executed, 0, "no workers: nothing has run yet");
    assert_eq!(
        handles
            .iter()
            .filter(|h| h.source() == JobSource::Queued)
            .count(),
        1,
        "exactly one submission won the enqueue race"
    );

    service.drain();
    assert_eq!(
        service.stats().executed,
        1,
        "one simulation for N submissions"
    );

    let outcomes: Vec<_> = handles.iter().map(|h| h.wait()).collect();
    for o in &outcomes {
        assert!(
            Arc::ptr_eq(o, &outcomes[0]),
            "every subscriber shares the one outcome"
        );
    }
    assert!(outcomes[0].report.is_ok());
}

#[test]
fn flipping_any_semantic_field_produces_a_distinct_key() {
    let base_cfg = RunConfig::baseline_lrr();
    let base_kernel = GenSpec::parse("gen:mixed:42:small").unwrap().build();
    let base = job_key(&base_cfg, &base_kernel, None);

    // Soundness: equal inputs, equal key.
    assert_eq!(base, job_key(&base_cfg, &base_kernel, None));

    // Discrimination: each single-field variant below must differ from the
    // base *and* from every other variant.
    let cfg_variants: Vec<(&str, RunConfig)> = vec![
        (
            "scheduler/gto",
            base_cfg.clone().with_scheduler(SchedulerKind::Gto),
        ),
        (
            "scheduler/two-level",
            base_cfg
                .clone()
                .with_scheduler(SchedulerKind::TwoLevel { group_size: 8 }),
        ),
        (
            "scheduler/owf",
            base_cfg.clone().with_scheduler(SchedulerKind::Owf),
        ),
        (
            "sharing/registers",
            base_cfg.clone().with_sharing(SharingMode::Registers),
        ),
        (
            "sharing/scratchpad",
            base_cfg.clone().with_sharing(SharingMode::Scratchpad),
        ),
        (
            "memory-model/event",
            base_cfg.clone().with_memory_model(MemoryModel::Event),
        ),
        ("watchdog", {
            let mut c = base_cfg.clone();
            c.watchdog = Some(500_000);
            c
        }),
        ("threshold", {
            let mut c = base_cfg.clone();
            c.threshold = Threshold::new(0.3).unwrap();
            c
        }),
        ("dyn-throttle", {
            let mut c = base_cfg.clone();
            c.dyn_throttle = !c.dyn_throttle;
            c
        }),
        ("reorder-decls", {
            let mut c = base_cfg.clone();
            c.reorder_decls = !c.reorder_decls;
            c
        }),
        ("fast-forward", {
            let mut c = base_cfg.clone();
            c.fast_forward = !c.fast_forward;
            c
        }),
        ("telemetry", {
            let mut c = base_cfg.clone();
            c.telemetry = Some(TelemetryConfig::default());
            c
        }),
        ("max-cycles", {
            let mut c = base_cfg.clone();
            c.max_cycles += 1;
            c
        }),
        ("mem/l2-bytes", {
            let mut c = base_cfg.clone();
            c.gpu.mem.l2_bytes *= 2;
            c
        }),
        ("mem/mshr-entries", {
            let mut c = base_cfg.clone();
            c.gpu.mem.mshr_entries += 1;
            c
        }),
        ("sm/registers", {
            let mut c = base_cfg.clone();
            c.gpu.sm.registers *= 2;
            c
        }),
        ("num-sms", {
            let mut c = base_cfg.clone();
            c.gpu.num_sms += 1;
            c
        }),
    ];
    let kernel_variants: Vec<(&str, Kernel)> = vec![
        (
            "gen-seed",
            GenSpec::parse("gen:mixed:43:small").unwrap().build(),
        ),
        (
            "gen-size",
            GenSpec::parse("gen:mixed:42:medium").unwrap().build(),
        ),
        (
            "gen-family",
            GenSpec::parse("gen:bursty:42:small").unwrap().build(),
        ),
        ("grid-shrunk", {
            let mut k = base_kernel.clone();
            k.grid_blocks -= 1;
            k
        }),
    ];

    let mut seen = BTreeSet::new();
    seen.insert(base);
    for (label, cfg) in &cfg_variants {
        let key = job_key(cfg, &base_kernel, None);
        assert!(
            seen.insert(key),
            "variant `{label}` collided with another key"
        );
    }
    for (label, kernel) in &kernel_variants {
        let key = job_key(&base_cfg, kernel, None);
        assert!(
            seen.insert(key),
            "variant `{label}` collided with another key"
        );
    }
    assert_eq!(seen.len(), cfg_variants.len() + kernel_variants.len() + 1);
}

/// Any `(family, seed)` point at a small/medium size class.
fn spec() -> impl Strategy<Value = GenSpec> {
    (
        0usize..Family::ALL.len(),
        0u64..u64::MAX,
        proptest::bool::ANY,
    )
        .prop_map(|(fam, seed, medium)| GenSpec {
            family: Family::ALL[fam],
            seed,
            size: if medium {
                SizeClass::Medium
            } else {
                SizeClass::Small
            },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn gen_spec_keys_are_sound_and_discriminating(a in spec(), b in spec()) {
        let cfg = RunConfig::baseline_lrr();
        let key_a = job_key(&cfg, &a.build(), None);
        // Soundness: rebuilding the same spec yields the same key.
        prop_assert_eq!(key_a, job_key(&cfg, &a.build(), None));
        // Discrimination: distinct specs yield distinct keys (the
        // generator embeds the spec in the kernel name, so this holds
        // even if two specs happened to emit identical instructions).
        let key_b = job_key(&cfg, &b.build(), None);
        prop_assert_eq!(a == b, key_a == key_b);
    }
}

#[test]
fn run_grid_deduplicates_duplicate_suite_entries() {
    // Regression for the duplicate-suite fix: a grid listing the same
    // (benchmark, config) pair under several row names used to simulate it
    // once per name; through the service every repeat after the first is
    // answered by dedup or the memo store. Uses a kernel unique to this
    // test so the global service's counter deltas are exactly ours.
    let k = tiny_kernel(777);
    let rows = [
        ("suite-a/k", k.clone()),
        ("suite-b/k", k.clone()),
        ("suite-c/k", k.clone()),
        ("suite-a/k-again", k),
    ];
    let before = SweepService::global().stats();
    let grid = run_grid(&rows, &[("tiny", tiny_cfg())]);
    let after = SweepService::global().stats();

    assert_eq!(grid.cells.len(), 4, "one cell per row, as always");
    for (r, name) in grid.rows.iter().enumerate().skip(1) {
        assert_eq!(
            grid.cells[r], grid.cells[0],
            "duplicate row `{name}` must report identical stats"
        );
    }
    assert!(grid.cells[0].is_ok());
    assert_eq!(after.submitted - before.submitted, 4);
    assert_eq!(
        after.executed - before.executed,
        1,
        "four duplicate suite entries cost exactly one simulation"
    );
    assert_eq!(
        (after.deduped + after.memo_hits) - (before.deduped + before.memo_hits),
        3,
        "the other three were answered without running"
    );
}

#[test]
fn warm_resubmission_of_the_pinned_corpus_is_all_memo_hits() {
    // The acceptance criterion end-to-end: the full pinned generated
    // corpus (6 families x 3 seeds), resubmitted warm, completes with zero
    // simulations executed and bit-identical statistics.
    let service = SweepService::new(ServiceConfig::default());
    let pass = || -> Vec<SimStats> {
        let handles: Vec<_> = workloads::pinned_corpus()
            .into_iter()
            .map(|spec| {
                let mut cfg = RunConfig::baseline_lrr();
                cfg.gpu.num_sms = 2;
                service.submit(cfg, spec.build())
            })
            .collect();
        handles
            .iter()
            .map(|h| {
                let outcome = h.wait();
                let report = outcome.report.as_ref().expect("clean run");
                report.stats.clone()
            })
            .collect()
    };

    let cold = pass();
    let cold_stats = service.stats();
    assert_eq!(cold.len(), 18);
    assert_eq!(cold_stats.executed, 18, "cold pass simulates everything");

    let warm = pass();
    let warm_stats = service.stats();
    assert_eq!(
        warm_stats.executed, 18,
        "warm pass executes zero simulations"
    );
    assert_eq!(warm_stats.memo_hits, 18, "every warm job is a memo hit");
    assert_eq!(warm_stats.submitted, 36);
    for (spec, (c, w)) in workloads::pinned_corpus()
        .iter()
        .zip(cold.iter().zip(&warm))
    {
        assert_eq!(
            c,
            w,
            "bit-identical SimStats for `{}`",
            spec.scenario_name()
        );
    }
    assert!((warm_stats.hit_rate() - 0.5).abs() < 1e-12);
}

#[test]
fn service_stats_display_carries_every_counter() {
    let line = format!("{}", ServiceStats::default());
    for field in [
        "submitted",
        "deduped",
        "memo hits",
        "executed",
        "failed",
        "evicted",
    ] {
        assert!(line.contains(field), "`{field}` missing from `{line}`");
    }
}
