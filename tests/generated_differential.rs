//! Cross-engine differential harness over the generated-kernel corpus.
//!
//! The simulator's determinism contract is the oracle: a generated kernel
//! needs no reference output, because both engines (per-cycle reference
//! and event-driven fast-forward) and the telemetry layer must produce
//! **bit-identical** `SimStats`. Any divergence is a bug in one of them —
//! found without ever deciding what the "right" number is.
//! (`tests/golden_stats.rs` pins the corpus's absolute numbers.)
//!
//! Coverage:
//! * the pinned corpus (`workloads::gen::pinned_corpus()`: every family ×
//!   pinned seed, small size) across all of the above, under both memory
//!   presets (unlimited `Functional` and finite `Event` buffers), and the
//!   `Event` preset with its buffers idealized ≡ `Functional`;
//! * a seeded fresh-band property test over arbitrary `(family, seed)`
//!   draws — `GRS_GEN_SEEDS` raises the case count for nightly fuzz runs
//!   (pinned regressions in `proptest-regressions/generated_differential.txt`);
//! * a non-vacuity check: the `mshr-thrash` family must actually saturate
//!   the finite MSHR tables (`mshr_full_stalls > 0`) — back-pressure the
//!   hand-built Set kernels never reach, so the differential matrix is
//!   exercised in that regime too.

use gpu_resource_sharing::prelude::*;
use proptest::prelude::*;
use workloads::gen::{pinned_corpus, Family, GenSpec, PINNED_SEEDS};

/// Small machine so the per-cycle reference loop stays fast in debug
/// builds; 2 SMs still exercise cross-SM dispatch.
fn base(model: MemoryModel) -> RunConfig {
    let mut cfg = RunConfig::baseline_lrr().with_memory_model(model);
    cfg.gpu.num_sms = 2;
    cfg.max_cycles = 20_000_000;
    cfg
}

/// The `Event` preset with its buffers idealized, under which it must equal
/// `Functional` exactly. The sizes are set after the preset, which would
/// otherwise overwrite them.
fn idealized(cfg: RunConfig) -> RunConfig {
    let mut cfg = cfg.with_memory_model(MemoryModel::Event);
    cfg.gpu.mem.mem_partitions = 1;
    cfg.gpu.mem.mshr_entries = 0; // unlimited
    cfg.gpu.mem.dram_queue_entries = 0; // unbounded
    cfg
}

/// Per-cycle reference stats for `spec` under `cfg` — the value every
/// variant is compared against.
fn reference(spec: &GenSpec, cfg: &RunConfig) -> SimStats {
    let stats = Simulator::new(cfg.clone().with_fast_forward(false)).run(&spec.build());
    assert!(!stats.timed_out, "{} timed out", spec.scenario_name());
    stats
}

#[test]
fn engines_are_bit_identical_on_the_pinned_corpus_functional() {
    for spec in pinned_corpus() {
        let kernel = spec.build();
        let cfg = base(MemoryModel::Functional);
        let reference = reference(&spec, &cfg);
        let stats = Simulator::new(cfg.with_fast_forward(true)).run(&kernel);
        assert_eq!(
            stats,
            reference,
            "fast-forward diverges from the per-cycle reference on {}",
            spec.scenario_name()
        );
        assert_eq!(reference.blocks_completed, u64::from(kernel.grid_blocks));
    }
}

#[test]
fn engines_are_bit_identical_on_the_pinned_corpus_finite_event() {
    for spec in pinned_corpus() {
        let kernel = spec.build();
        let cfg = base(MemoryModel::Event);
        let reference = reference(&spec, &cfg);
        let stats = Simulator::new(cfg.with_fast_forward(true)).run(&kernel);
        assert_eq!(
            stats,
            reference,
            "fast-forward diverges under the finite event model on {}",
            spec.scenario_name()
        );
    }
}

#[test]
fn idealized_event_model_equals_functional_on_the_pinned_corpus() {
    for spec in pinned_corpus() {
        let kernel = spec.build();
        let functional = reference(&spec, &base(MemoryModel::Functional));
        let event = Simulator::new(idealized(base(MemoryModel::Functional))).run(&kernel);
        assert_eq!(
            event,
            functional,
            "idealized event preset diverges from functional on {}",
            spec.scenario_name()
        );
    }
}

#[test]
fn telemetry_is_invisible_on_the_pinned_corpus() {
    for spec in pinned_corpus() {
        let kernel = spec.build();
        let cfg = base(MemoryModel::Event);
        let plain = Simulator::new(cfg.clone()).run(&kernel);

        let traced = Simulator::new(
            cfg.with_telemetry(Some(TelemetryConfig::default().with_sample_every(500))),
        )
        .run_report(&kernel);
        assert!(traced.completed(), "{}", spec.scenario_name());
        assert_eq!(
            traced.stats,
            plain,
            "telemetry perturbed {}",
            spec.scenario_name()
        );
        assert!(
            traced.telemetry.is_some(),
            "telemetry was configured on {}",
            spec.scenario_name()
        );
    }
}

#[test]
fn mshr_thrash_actually_saturates_the_finite_mshrs() {
    // Non-vacuity: the differential matrix above must be exercising real
    // back-pressure, not an idle memory system, for at least this family.
    for seed in PINNED_SEEDS {
        let spec = GenSpec::new(Family::MshrThrash, seed);
        let stats = Simulator::new(base(MemoryModel::Event)).run(&spec.build());
        assert!(
            stats.mshr_full_stalls > 0,
            "{} never filled an MSHR table",
            spec.scenario_name()
        );
    }
    // ...and the Functional preset, whose MSHRs are unlimited, must count
    // none, for any family (only a finite table can fill).
    for family in Family::ALL {
        let spec = GenSpec::new(family, PINNED_SEEDS[0]);
        let stats = Simulator::new(base(MemoryModel::Functional)).run(&spec.build());
        assert_eq!(stats.mshr_full_stalls, 0, "{}", spec.scenario_name());
    }
}

#[test]
fn sharing_modes_complete_the_pinned_corpus() {
    // The generator's families run under both paper sharing modes without
    // deadlock or timeout — the end-to-end suite's property, pinned here
    // for the corpus CI replays forever.
    for spec in pinned_corpus() {
        let kernel = spec.build();
        for base_cfg in [
            RunConfig::paper_register_sharing(),
            RunConfig::paper_scratchpad_sharing(),
        ] {
            let mut cfg = base_cfg.with_memory_model(MemoryModel::Event);
            cfg.gpu.num_sms = 2;
            cfg.max_cycles = 20_000_000;
            match Simulator::new(cfg).try_run(&kernel) {
                Ok(stats) => {
                    assert!(!stats.timed_out, "{}", spec.scenario_name());
                    assert_eq!(stats.blocks_completed, u64::from(kernel.grid_blocks));
                }
                Err(e) => panic!("{}: {e}", spec.scenario_name()),
            }
        }
    }
}

/// Fresh-band draws: any `(family, seed)` point, not just the pinned ones.
fn fresh_spec() -> impl Strategy<Value = GenSpec> {
    (0usize..Family::ALL.len(), 0u64..u64::MAX).prop_map(|(fam, seed)| GenSpec {
        family: Family::ALL[fam],
        seed,
        size: workloads::gen::SizeClass::Small,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        proptest::test_runner::cases_from_env("GRS_GEN_SEEDS", 6),
    ))]

    #[test]
    fn fresh_seeds_are_bit_identical_across_engines(spec in fresh_spec()) {
        let kernel = spec.build();
        for model in [MemoryModel::Functional, MemoryModel::Event] {
            let cfg = base(model);
            let reference = reference(&spec, &cfg);
            let stats = Simulator::new(cfg.with_fast_forward(true)).run(&kernel);
            prop_assert_eq!(
                &stats,
                &reference,
                "divergence under {:?} on {}",
                model,
                spec.scenario_name()
            );
        }
    }

    #[test]
    fn fresh_seeds_survive_telemetry(spec in fresh_spec()) {
        let kernel = spec.build();
        let cfg = base(MemoryModel::Event);
        let plain = Simulator::new(cfg.clone()).run(&kernel);
        let traced = Simulator::new(
            cfg.with_telemetry(Some(TelemetryConfig::default().with_sample_every(500))),
        )
        .run_report(&kernel);
        prop_assert!(traced.completed(), "{}", spec.scenario_name());
        prop_assert_eq!(
            &traced.stats,
            &plain,
            "telemetry perturbed {}",
            spec.scenario_name()
        );
    }
}
