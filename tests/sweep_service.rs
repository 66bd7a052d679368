//! Correctness battery for the sweep service (`grs_bench::service`): exact
//! memoization, dedup of a machine submitted twice before it runs, key
//! soundness/discrimination for both the machine key and the spelling's
//! job key, the merges the machine key is meant to make, failed
//! preparations, and the grid runner's one execution per duplicate row.
//!
//! The battery leans on the repo's foundational invariant — the simulator
//! is a *pure function* of the machine `Simulator::prepare` builds — and
//! checks the service exploits it without ever violating it: a memo hit
//! must be **bit-identical** to a re-run, never merely close, and two
//! spellings with one machine key must report bit-identically.

use std::collections::HashSet;
use std::sync::Arc;

use gpu_resource_sharing::core::SchedulerKind;
use gpu_resource_sharing::isa::reg::Reg;
use gpu_resource_sharing::isa::Op;
use gpu_resource_sharing::prelude::*;
use gpu_resource_sharing::sim::kinfo::KernelInfo;
use gpu_resource_sharing::sim::{Machine, RunReport, ServiceStats};
use grs_bench::runner::shrink_grid;
use grs_bench::service::{job_key, machine_key, MachineKey, ServiceConfig};
use grs_bench::{run_grid, SweepService};
use proptest::prelude::*;
use workloads::gen::{Family, GenSpec, SizeClass};
use workloads::{set1_benchmarks, set2_benchmarks, set3_benchmarks};

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

    let cold = service.submit(cfg.clone(), k.clone()).wait();
    let cold_report = cold.report.as_ref().expect("clean run");
    assert_eq!(service.stats().executed, 1);

    let second = service.submit(cfg, k);
    assert_eq!(
        service.stats().memo_hits,
        1,
        "an identical resubmission must be answered from the finished run"
    );
    let warm = second.wait();
    let warm_report = warm.report.as_ref().expect("memoized clean run");
    assert!(
        Arc::ptr_eq(cold_report, warm_report),
        "the service hands back the same report, not a re-run"
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
    // Nothing executes before a wait, so the counters after the
    // submission race are exact: one pending, N-1 sharing its cell.
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
    assert_eq!(s.deduped, N as u64 - 1, "all but one submission shared");
    assert_eq!(s.memo_hits, 0);
    assert_eq!(s.executed, 0, "nothing runs before a wait");

    let outcomes: Vec<_> = handles.iter().map(|h| h.wait()).collect();
    assert_eq!(
        service.stats().executed,
        1,
        "one simulation for N submissions"
    );
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

    let mut seen = HashSet::new();
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

/// The machine key of `kernel` under `cfg`.
fn mkey(cfg: &RunConfig, kernel: &Kernel) -> MachineKey {
    machine_key(
        &Simulator::new(cfg.clone())
            .prepare(kernel)
            .expect("prepares"),
    )
}

/// hotspot at a quick grid: 3 blocks, and 3 shared pairs under the
/// paper's register sharing.
fn hotspot() -> Kernel {
    let mut k = workloads::set1::hotspot();
    shrink_grid(&mut k, 4);
    k
}

#[test]
fn flipping_any_field_the_machine_reads_produces_a_distinct_machine_key() {
    // The base has shared pairs, so the scheduler, the sharing resource,
    // the throttle, the reorder flag and the threshold all reach the
    // machine, and each must flip the key.
    let base_cfg = RunConfig::paper_register_sharing();
    let base_kernel = hotspot();
    let base_machine = Simulator::new(base_cfg.clone())
        .prepare(&base_kernel)
        .unwrap();
    assert_eq!(base_machine.plan.shared_pairs, 3);
    let base = machine_key(&base_machine);
    assert_eq!(base, mkey(&base_cfg, &base_kernel), "sound");

    // Preconditions that make two variants below test the flags: the
    // reorder and the 0.15 threshold keep the plan and the operand masks
    // but move registers across the shared boundary.
    let flags = |cfg: &RunConfig| -> Vec<(u64, u8)> {
        let m = Simulator::new(cfg.clone()).prepare(&base_kernel).unwrap();
        assert_eq!(m.plan, base_machine.plan);
        m.kinfo.meta.iter().map(|i| (i.op_mask, i.flags)).collect()
    };
    let base_flags = flags(&base_cfg);
    let flags_only = [
        base_cfg.clone().with_reorder_decls(false),
        base_cfg
            .clone()
            .with_threshold(Threshold::new(0.15).unwrap()),
    ];
    for cfg in &flags_only {
        let f = flags(cfg);
        assert_ne!(f, base_flags, "a shared-register flag moves");
        let masks = |f: &[(u64, u8)]| f.iter().map(|x| x.0).collect::<Vec<_>>();
        assert_eq!(masks(&f), masks(&base_flags), "the operand masks do not");
    }

    let cfg_variants: Vec<(&str, RunConfig)> = vec![
        (
            "scheduler/lrr",
            base_cfg.clone().with_scheduler(SchedulerKind::Lrr),
        ),
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
            "sharing/none",
            base_cfg.clone().with_sharing(SharingMode::None),
        ),
        (
            "threshold/plan",
            base_cfg
                .clone()
                .with_threshold(Threshold::new(0.3).unwrap()),
        ),
        ("threshold/flags-only", flags_only[1].clone()),
        ("reorder-decls", flags_only[0].clone()),
        ("dyn-throttle", base_cfg.clone().with_dyn_throttle(false)),
        ("fast-forward", base_cfg.clone().with_fast_forward(false)),
        (
            "telemetry",
            base_cfg
                .clone()
                .with_telemetry(Some(TelemetryConfig::default())),
        ),
        ("watchdog", base_cfg.clone().with_watchdog(Some(500_000))),
        ("max-cycles", {
            let mut c = base_cfg.clone();
            c.max_cycles += 1;
            c
        }),
        (
            "memory-model/event",
            base_cfg.clone().with_memory_model(MemoryModel::Event),
        ),
        ("mem/l2-bytes", {
            let mut c = base_cfg.clone();
            c.gpu.mem.l2_bytes *= 2;
            c
        }),
        ("lat/ialu", {
            let mut c = base_cfg.clone();
            c.gpu.lat.ialu += 1;
            c
        }),
        ("sm/schedulers", {
            let mut c = base_cfg.clone();
            c.gpu.sm.schedulers += 1;
            c
        }),
        ("num-sms", {
            let mut c = base_cfg.clone();
            c.gpu.num_sms += 1;
            c
        }),
    ];
    let op_at = base_kernel
        .program
        .instrs
        .iter()
        .position(|i| i.op == Op::FFma)
        .expect("hotspot has an FFMA");
    let kernel_variants: Vec<(&str, Kernel)> = vec![
        ("name", {
            let mut k = base_kernel.clone();
            k.name.push('\'');
            k
        }),
        ("grid-shrunk", {
            let mut k = base_kernel.clone();
            k.grid_blocks -= 1;
            k
        }),
        ("op", {
            let mut k = base_kernel.clone();
            k.program.instrs[op_at].op = Op::FMul;
            k
        }),
        ("destination", {
            let mut k = base_kernel.clone();
            let i = &mut k.program.instrs[op_at];
            i.dst = Some(Reg(i.dst.map_or(0, |r| r.0 + 1) % 36));
            k
        }),
    ];

    let mut seen = HashSet::new();
    seen.insert(base);
    for (label, cfg) in &cfg_variants {
        let key = mkey(cfg, &base_kernel);
        assert!(
            seen.insert(key),
            "variant `{label}` collided with another key"
        );
    }
    for (label, kernel) in &kernel_variants {
        let key = mkey(&base_cfg, kernel);
        assert!(
            seen.insert(key),
            "variant `{label}` collided with another key"
        );
    }
    assert_eq!(seen.len(), cfg_variants.len() + kernel_variants.len() + 1);
}

#[test]
fn machine_keys_merge_the_paper_figures_that_build_one_machine() {
    // `repro all --quick`'s merges, pinned on keys alone (no simulation).
    let quick = |mut kernels: Vec<Kernel>| {
        for k in &mut kernels {
            shrink_grid(k, 4);
        }
        kernels
    };
    let (lrr, gto) = (RunConfig::baseline_lrr(), RunConfig::baseline_gto());

    // Fig. 12: Set-3 has no shared pairs, so its five configurations under
    // both resources build two machines per kernel: LRR and GTO.
    for k in quick(set3_benchmarks()) {
        let mut keys = HashSet::new();
        for share in [
            RunConfig::paper_register_sharing(),
            RunConfig::paper_scratchpad_sharing(),
        ] {
            for cfg in [
                lrr.clone(),
                share.clone().with_scheduler(SchedulerKind::Lrr),
                gto.clone(),
                share.clone().with_scheduler(SchedulerKind::Gto),
                share,
            ] {
                keys.insert(mkey(&cfg, &k));
            }
        }
        let want = HashSet::from([mkey(&lrr, &k), mkey(&gto, &k)]);
        assert_eq!(keys, want, "{}", k.name);
        assert_ne!(mkey(&lrr, &k), mkey(&gto, &k));
    }

    // Tables V and VII: at 0% and 10% sharing no kernel gets a pair, so
    // those rows run the Unshared-GTO machine; the 90% row's threshold
    // (1 − 0.9) differs from Fig. 8's 0.1 in its last bit but gives the
    // same plan and flags, so it runs Fig. 8's machine.
    let pct = |p| Threshold::from_sharing_pct(p).unwrap();
    assert_ne!(pct(90.0), Threshold::paper_default());
    for (share, kernels) in [
        (
            RunConfig::paper_register_sharing(),
            quick(set1_benchmarks()),
        ),
        (
            RunConfig::paper_scratchpad_sharing(),
            quick(set2_benchmarks()),
        ),
    ] {
        for k in &kernels {
            let name = &k.name;
            for p in [0.0, 10.0] {
                let cfg = share.clone().with_threshold(pct(p));
                assert_eq!(mkey(&cfg, k), mkey(&gto, k), "{name} at {p}%");
            }
            let fig8 = mkey(&share, k);
            assert_eq!(mkey(&share.clone().with_threshold(pct(90.0)), k), fig8);
            assert_ne!(fig8, mkey(&gto, k), "{name}: Fig. 8 shares");
        }
    }
}

/// `tiny_kernel(4)` with its first instruction claiming `nsrc` sources;
/// an instruction stores at most `MAX_SRCS` (3).
fn too_many_sources(nsrc: u8) -> Kernel {
    let mut k = tiny_kernel(4);
    k.program.instrs[0].nsrc = nsrc;
    k
}

#[test]
fn a_failed_preparation_resolves_at_submission_every_time() {
    let service = SweepService::new(ServiceConfig {
        workers: 0,
        memo_capacity: 64,
    });
    let mut no_sms = tiny_cfg();
    no_sms.gpu.num_sms = 0;
    let mut invalid = tiny_kernel(3);
    invalid.grid_blocks = 0;
    let jobs = [
        (no_sms, tiny_kernel(3)),
        (tiny_cfg(), invalid),
        // Rejected by `validate` before it reads an operand: slicing the
        // sources would panic.
        (tiny_cfg(), too_many_sources(4)),
        (tiny_cfg(), too_many_sources(255)),
    ];
    for (cfg, kernel) in &jobs {
        let want = Simulator::new(cfg.clone())
            .try_run_report(kernel)
            .expect_err("a configuration error")
            .to_string();
        for _ in 0..2 {
            let before = service.stats();
            let handle = service.submit(cfg.clone(), kernel.clone());
            let after = service.stats();
            assert_eq!(
                (after.executed, after.failed),
                (before.executed + 1, before.failed + 1),
                "counted at submission, before any wait"
            );
            assert_eq!(handle.wait().report.as_ref().unwrap_err(), &want);
        }
    }
    let s = service.stats();
    assert_eq!(s.submitted, 8);
    assert_eq!(
        (s.executed, s.failed),
        (8, 8),
        "every submission fails anew"
    );
    assert_eq!(s.memo_hits + s.deduped, 0, "failures are not memoized");
}

/// Two settings differ in one field; see
/// `equal_machine_keys_report_bit_identically`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Setting {
    scheduler: usize,
    sharing: usize,
    throttle: bool,
    reorder: bool,
    threshold: usize,
    event: bool,
}

impl Setting {
    const SCHEDULERS: [SchedulerKind; 4] = [
        SchedulerKind::Lrr,
        SchedulerKind::Gto,
        SchedulerKind::TwoLevel { group_size: 8 },
        SchedulerKind::Owf,
    ];
    const SHARING: [SharingMode; 3] = [
        SharingMode::None,
        SharingMode::Registers,
        SharingMode::Scratchpad,
    ];
    /// Sharing percentages, as Tables V–VIII spell them.
    const PCTS: [f64; 6] = [0.0, 10.0, 50.0, 80.0, 90.0, 95.0];

    fn config(self) -> RunConfig {
        let mut cfg = RunConfig::baseline_lrr()
            .with_scheduler(Self::SCHEDULERS[self.scheduler])
            .with_sharing(Self::SHARING[self.sharing])
            .with_dyn_throttle(self.throttle)
            .with_reorder_decls(self.reorder)
            .with_threshold(Threshold::from_sharing_pct(Self::PCTS[self.threshold]).unwrap())
            .with_telemetry(Some(TelemetryConfig {
                capacity: 1 << 12,
                sample_every: 500,
            }));
        if self.event {
            cfg = cfg.with_memory_model(MemoryModel::Event);
        }
        cfg.gpu.num_sms = 2;
        cfg
    }

    /// `self` with field `field` (mod 6) redrawn from `draw`.
    fn flip(mut self, field: u64, draw: u64) -> Self {
        match field % 6 {
            0 => self.scheduler = draw as usize % 4,
            1 => self.sharing = draw as usize % 3,
            2 => self.throttle = !self.throttle,
            3 => self.reorder = !self.reorder,
            4 => self.threshold = draw as usize % Self::PCTS.len(),
            _ => self.event = !self.event,
        }
        self
    }
}

fn setting() -> impl Strategy<Value = Setting> {
    (
        (0usize..4, 0usize..3, proptest::bool::ANY),
        (proptest::bool::ANY, 0usize..6, proptest::bool::ANY),
    )
        .prop_map(
            |((scheduler, sharing, throttle), (reorder, threshold, event))| Setting {
                scheduler,
                sharing,
                throttle,
                reorder,
                threshold,
                event,
            },
        )
}

/// `kernel` under `cfg` on the machine as spelled, the way the simulator
/// built it before `prepare` resolved plans without pairs: the
/// configuration's scheduler, throttle, sharing resource and threshold
/// flags.
fn spelled_report(cfg: &RunConfig, kernel: &Kernel) -> RunReport {
    let mut m: Machine = Simulator::new(cfg.clone()).prepare(kernel).unwrap();
    m.scheduler = cfg.scheduler;
    m.dyn_throttle = cfg.dyn_throttle;
    m.sharing = cfg.sharing.resource();
    m.kinfo = KernelInfo::new(m.kinfo.kernel.clone(), m.sharing, cfg.threshold);
    m.run()
}

proptest! {
    // Per-PR default of 16 cases; the nightly job widens it through
    // `PROPTEST_CASES`.
    #![proptest_config(ProptestConfig::with_cases(
        proptest::test_runner::cases_from_env("PROPTEST_CASES", 16)
    ))]

    /// Equal machine keys ⇒ bit-identical `RunReport`s, telemetry
    /// included: a generated kernel (≤ 16 blocks, 2 SMs) under a random
    /// setting and four neighbours, each differing from it in one field.
    /// The setting's report also equals that of its machine as spelled,
    /// so resolving a plan without pairs moves no statistic; and a
    /// setting without sharing merges with its throttle flipped, so the
    /// property never runs out of merged pairs.
    #[test]
    fn equal_machine_keys_report_bit_identically(
        spec in spec(),
        base in setting(),
        flips in proptest::collection::vec((0u64..6, 0u64..64), 4..5),
    ) {
        let mut kernel = spec.build();
        kernel.grid_blocks = kernel.grid_blocks.min(16);
        let run = |s: Setting| Simulator::new(s.config()).try_run_report(&kernel).unwrap();
        let base_key = mkey(&base.config(), &kernel);
        let base_report = run(base);
        prop_assert!(
            base_report == spelled_report(&base.config(), &kernel),
            "{:?}: the resolved machine reports differently from the spelled one", base
        );
        let mut neighbours: Vec<Setting> =
            flips.iter().map(|&(field, draw)| base.flip(field, draw)).collect();
        if base.sharing == 0 {
            let merged = base.flip(2, 0);
            prop_assert_eq!(mkey(&merged.config(), &kernel), base_key);
            neighbours.push(merged);
        }
        for n in neighbours {
            if mkey(&n.config(), &kernel) == base_key {
                prop_assert!(run(n) == base_report, "{:?} and {:?}: one key, two reports", n, base);
            }
        }
    }
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
    // answered by dedup or a memo hit. Uses a kernel unique to this
    // test so the global service's counter deltas are exactly ours.
    let k = tiny_kernel(777);
    let rows = [
        ("suite-a/k", k.clone()),
        ("suite-b/k", k.clone()),
        ("suite-c/k", k.clone()),
        ("suite-a/k-again", k),
    ];
    // The counter deltas are exact because no other test in this binary
    // submits a machine with this kernel name to the global service.
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
    for field in ["submitted", "deduped", "memo hits", "executed", "failed"] {
        assert!(line.contains(field), "`{field}` missing from `{line}`");
    }
}
