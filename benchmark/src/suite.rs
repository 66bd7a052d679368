//! The four workloads: which simulations each one runs, and in which order.
//!
//! A workload is a [`Suite`]: the kernels `grs-workloads` built, the distinct
//! simulations (points) over them, and the submissions in canonical order.
//! The seed permutes the submissions ([`permutation`]).

use std::collections::HashMap;

use grs_bench::job_key;
use grs_bench::runner::shrink_grid;
use grs_core::{GpuConfig, SchedulerKind, Threshold};
use grs_isa::Kernel;
use grs_sim::{MemoryModel, RunConfig};
use grs_workloads::suite::{SET1_NAMES, SET2_NAMES, SET3_NAMES};
use grs_workloads::{set1_benchmarks, set2_benchmarks, set3_benchmarks};
use grs_workloads::{Family, GenSpec, SizeClass};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperQuick,
    Fig8Full,
    DeadWait,
    MemBackpressure,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperQuick,
        Workload::Fig8Full,
        Workload::DeadWait,
        Workload::MemBackpressure,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperQuick => "paper-quick",
            Workload::Fig8Full => "fig8-full",
            Workload::DeadWait => "dead-wait",
            Workload::MemBackpressure => "mem-backpressure",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the submissions go through the sweep service (in parallel)
    /// rather than straight to the simulator, one after another.
    pub fn uses_service(self) -> bool {
        self == Workload::PaperQuick
    }
}

/// How a job's global memory is timed.
#[derive(Debug, Clone, Copy)]
pub enum Memory {
    /// Issue-time latency over infinite buffering.
    Functional,
    /// Per-partition MSHR tables and DRAM queues at Table I sizes.
    Event,
}

/// The one place the benchmark picks a memory model, so that collapsing the
/// two models into one changes a single function here.
pub fn with_memory(cfg: RunConfig, memory: Memory) -> RunConfig {
    match memory {
        Memory::Functional => cfg.with_memory_model(MemoryModel::Functional),
        // Table I MSHR and DRAM-queue sizes are `MemConfig`'s defaults.
        Memory::Event => cfg.with_memory_model(MemoryModel::Event),
    }
}

/// One distinct simulation. Golden statistics are pinned per point.
#[derive(Debug, Clone)]
pub struct Point {
    pub label: String,
    pub cfg: RunConfig,
    /// Index into [`Suite::kernels`].
    pub kernel: usize,
}

#[derive(Debug, Clone, Default)]
pub struct Suite {
    /// Kernels as `grs-workloads` returned them.
    pub kernels: Vec<Kernel>,
    /// Distinct simulations, keyed by the sweep service's job key.
    pub points: Vec<Point>,
    /// Submissions in canonical order, as indices into `points`.
    pub runs: Vec<usize>,
}

impl Suite {
    pub fn kernel_of(&self, point: usize) -> &Kernel {
        &self.kernels[self.points[point].kernel]
    }

    fn add_kernels(&mut self, kernels: Vec<Kernel>) -> Vec<usize> {
        let first = self.kernels.len();
        self.kernels.extend(kernels);
        (first..self.kernels.len()).collect()
    }
}

/// Builds a suite, folding submissions with equal job keys onto one point
/// (labelled by the first) the way the sweep service dedupes them.
#[derive(Default)]
struct Builder {
    suite: Suite,
    seen: HashMap<grs_bench::ConfigHash, usize>,
}

impl Builder {
    fn add(&mut self, label: String, cfg: RunConfig, kernel: usize, reps: usize) {
        let key = job_key(&cfg, &self.suite.kernels[kernel], None);
        let points = &mut self.suite.points;
        let point = *self.seen.entry(key).or_insert_with(|| {
            points.push(Point { label, cfg, kernel });
            points.len() - 1
        });
        self.suite.runs.extend(std::iter::repeat_n(point, reps));
    }
}

/// Build the suite of `workload`. Inputs are fixed; the seed only orders
/// the submissions ([`permutation`]).
pub fn build(workload: Workload) -> Suite {
    match workload {
        Workload::PaperQuick => paper_quick(),
        Workload::Fig8Full => fig8_full(),
        Workload::DeadWait => dead_wait(),
        Workload::MemBackpressure => mem_backpressure(),
    }
}

fn lrr() -> RunConfig {
    with_memory(RunConfig::baseline_lrr(), Memory::Functional)
}

fn reg_sharing() -> RunConfig {
    with_memory(RunConfig::paper_register_sharing(), Memory::Functional)
}

fn smem_sharing() -> RunConfig {
    with_memory(RunConfig::paper_scratchpad_sharing(), Memory::Functional)
}

fn quick(mut kernels: Vec<Kernel>) -> Vec<Kernel> {
    for k in &mut kernels {
        shrink_grid(k, 4);
    }
    kernels
}

/// `repro all --quick`: the submissions of `grs_bench::experiments`' fig8,
/// fig9, fig10, fig11, fig12, table5 and table7, in that order, with the
/// same configurations and quick grids.
fn paper_quick() -> Suite {
    fn add(b: &mut Builder, exp: &str, bench: &str, cfg_label: &str, cfg: RunConfig, k: usize) {
        b.add(format!("paper-quick/{exp}/{bench}/{cfg_label}"), cfg, k, 1);
    }
    let mut b = Builder::default();

    let s1 = b.suite.add_kernels(quick(set1_benchmarks()));
    let s2 = b.suite.add_kernels(quick(set2_benchmarks()));
    for (name, &k) in SET1_NAMES.iter().zip(&s1) {
        add(&mut b, "fig8", name, "Unshared-LRR", lrr(), k);
        add(
            &mut b,
            "fig8",
            name,
            "Shared-OWF-Unroll-Dyn",
            reg_sharing(),
            k,
        );
    }
    for (name, &k) in SET2_NAMES.iter().zip(&s2) {
        add(&mut b, "fig8", name, "Unshared-LRR", lrr(), k);
        add(&mut b, "fig8", name, "Shared-OWF", smem_sharing(), k);
    }

    let s1 = b.suite.add_kernels(quick(set1_benchmarks()));
    let s2 = b.suite.add_kernels(quick(set2_benchmarks()));
    let reg_ladder = [
        ("Unshared-LRR", lrr()),
        (
            "Shared-LRR-NoOpt",
            reg_sharing()
                .with_scheduler(SchedulerKind::Lrr)
                .with_reorder_decls(false)
                .with_dyn_throttle(false),
        ),
        (
            "Shared-LRR-Unroll",
            reg_sharing()
                .with_scheduler(SchedulerKind::Lrr)
                .with_dyn_throttle(false),
        ),
        (
            "Shared-LRR-Unroll-Dyn",
            reg_sharing().with_scheduler(SchedulerKind::Lrr),
        ),
        ("Shared-OWF-Unroll-Dyn", reg_sharing()),
    ];
    for (name, &k) in SET1_NAMES.iter().zip(&s1) {
        for (label, cfg) in &reg_ladder {
            add(&mut b, "fig9", name, label, cfg.clone(), k);
        }
    }
    let smem_ladder = [
        ("Unshared-LRR", lrr()),
        (
            "Shared-LRR-NoOpt",
            smem_sharing().with_scheduler(SchedulerKind::Lrr),
        ),
        ("Shared-OWF", smem_sharing()),
    ];
    for (name, &k) in SET2_NAMES.iter().zip(&s2) {
        for (label, cfg) in &smem_ladder {
            add(&mut b, "fig9", name, label, cfg.clone(), k);
        }
    }

    let s1 = b.suite.add_kernels(quick(set1_benchmarks()));
    let s2 = b.suite.add_kernels(quick(set2_benchmarks()));
    for (base_label, base) in [
        ("Unshared-GTO", RunConfig::baseline_gto()),
        ("Unshared-TwoLevel", RunConfig::baseline_two_level()),
    ] {
        let base = with_memory(base, Memory::Functional);
        for (name, &k) in SET1_NAMES.iter().zip(&s1) {
            add(&mut b, "fig10", name, base_label, base.clone(), k);
            add(
                &mut b,
                "fig10",
                name,
                "Shared-OWF-Unroll-Dyn",
                reg_sharing(),
                k,
            );
        }
        for (name, &k) in SET2_NAMES.iter().zip(&s2) {
            add(&mut b, "fig10", name, base_label, base.clone(), k);
            add(&mut b, "fig10", name, "Shared-OWF", smem_sharing(), k);
        }
    }

    let s1 = b.suite.add_kernels(quick(set1_benchmarks()));
    let s2 = b.suite.add_kernels(quick(set2_benchmarks()));
    for (name, &k) in SET1_NAMES.iter().zip(&s1) {
        let doubled = lrr().with_gpu(GpuConfig::doubled_registers());
        add(&mut b, "fig11", name, "Unshared-LRR-Reg#65536", doubled, k);
        add(
            &mut b,
            "fig11",
            name,
            "Shared-OWF-Unroll-Dyn-Reg#32768",
            reg_sharing(),
            k,
        );
    }
    for (name, &k) in SET2_NAMES.iter().zip(&s2) {
        let doubled = lrr().with_gpu(GpuConfig::doubled_scratchpad());
        add(&mut b, "fig11", name, "Unshared-LRR-ShMem#32K", doubled, k);
        add(
            &mut b,
            "fig11",
            name,
            "Shared-OWF-ShMem#16K",
            smem_sharing(),
            k,
        );
    }

    let s3 = b.suite.add_kernels(quick(set3_benchmarks()));
    for (exp, share) in [("fig12a", reg_sharing()), ("fig12b", smem_sharing())] {
        let cfgs = [
            ("Unshared-LRR", lrr()),
            (
                "Shared-LRR",
                share.clone().with_scheduler(SchedulerKind::Lrr),
            ),
            (
                "Unshared-GTO",
                with_memory(RunConfig::baseline_gto(), Memory::Functional),
            ),
            (
                "Shared-GTO",
                share.clone().with_scheduler(SchedulerKind::Gto),
            ),
            ("Shared-OWF", share),
        ];
        for (name, &k) in SET3_NAMES.iter().zip(&s3) {
            for (label, cfg) in &cfgs {
                add(&mut b, exp, name, label, cfg.clone(), k);
            }
        }
    }

    for (exp, names, kernels, share) in [
        ("table5", &SET1_NAMES[..], set1_benchmarks(), reg_sharing()),
        ("table7", &SET2_NAMES[..], set2_benchmarks(), smem_sharing()),
    ] {
        let ks = b.suite.add_kernels(quick(kernels));
        for (name, &k) in names.iter().zip(&ks) {
            for pct in [0.0f64, 10.0, 30.0, 50.0, 70.0, 90.0] {
                let t = Threshold::from_sharing_pct(pct.min(99.0))
                    .expect("sweep percentages are valid thresholds");
                add(
                    &mut b,
                    exp,
                    name,
                    &format!("{pct}%"),
                    share.clone().with_threshold(t),
                    k,
                );
            }
        }
    }
    b.suite
}

/// Fig. 8 at the paper's grids: Set-1 under Unshared-LRR and
/// Shared-OWF-Unroll-Dyn, then Set-2 under Unshared-LRR and Shared-OWF.
/// Points come in (baseline, shared) pairs in that order; the accuracy
/// metrics rely on it.
fn fig8_full() -> Suite {
    let mut b = Builder::default();
    let s1 = b.suite.add_kernels(set1_benchmarks());
    let s2 = b.suite.add_kernels(set2_benchmarks());
    for (name, &k) in SET1_NAMES.iter().zip(&s1) {
        b.add(format!("fig8-full/{name}/Unshared-LRR"), lrr(), k, 1);
        b.add(
            format!("fig8-full/{name}/Shared-OWF-Unroll-Dyn"),
            reg_sharing(),
            k,
            1,
        );
    }
    for (name, &k) in SET2_NAMES.iter().zip(&s2) {
        b.add(format!("fig8-full/{name}/Unshared-LRR"), lrr(), k, 1);
        b.add(format!("fig8-full/{name}/Shared-OWF"), smem_sharing(), k, 1);
    }
    b.suite
}

/// DRAM round-trips of the dead-wait points, in cycles.
const DEAD_WAIT_LATENCIES: [u32; 4] = [1200, 1600, 2000, 2400];
/// Runs of each dead-wait point: one point takes a few milliseconds, so
/// repeats give the run-time percentiles enough samples.
const DEAD_WAIT_REPS: usize = 75;

/// CONV1, CONV2 and LIB at one resident wave under Unshared-LRR, with the
/// DRAM round-trip raised until almost every SM-cycle is a dead wait.
fn dead_wait() -> Suite {
    let mut b = Builder::default();
    let kernels = vec![
        grs_workloads::set2::conv1(),
        grs_workloads::set2::conv2(),
        grs_workloads::set1::lib(),
    ];
    let ks = b.suite.add_kernels(
        kernels
            .into_iter()
            .map(|mut k| {
                k.grid_blocks = 28;
                k
            })
            .collect(),
    );
    for (name, &k) in ["CONV1", "CONV2", "LIB"].iter().zip(&ks) {
        for lat in DEAD_WAIT_LATENCIES {
            let mut cfg = lrr();
            cfg.gpu.mem.dram_latency = lat;
            b.add(
                format!("dead-wait/{name}-28/dram{lat}"),
                cfg,
                k,
                DEAD_WAIT_REPS,
            );
        }
    }
    b.suite
}

/// Generator families whose kernels fill MSHR tables and DRAM queues.
const BACKPRESSURE_FAMILIES: [Family; 4] = [
    Family::MshrThrash,
    Family::PointerChase,
    Family::Bursty,
    Family::Mixed,
];
/// Generator seeds of every family. They are fixed rather than drawn from
/// the benchmark seed: twelve kernels per family still vary in total work
/// by several percent from one window of seeds to the next, which would
/// show up as run-to-run spread in every timing metric.
const BACKPRESSURE_GEN_SEEDS: std::ops::RangeInclusive<u64> = 1..=12;

/// Generated `medium` kernels under the event memory model. `large` is
/// avoided: `gen:mshr-thrash:1:large` runs into the 50M-cycle bound.
fn mem_backpressure() -> Suite {
    let mut b = Builder::default();
    let cfg = with_memory(RunConfig::baseline_lrr(), Memory::Event);
    for family in BACKPRESSURE_FAMILIES {
        for gen_seed in BACKPRESSURE_GEN_SEEDS {
            let spec = GenSpec::new(family, gen_seed).with_size(SizeClass::Medium);
            let k = b.suite.add_kernels(vec![spec.build()])[0];
            b.add(
                format!("mem-backpressure/{}", spec.scenario_name()),
                cfg.clone(),
                k,
                1,
            );
        }
    }
    b.suite
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order `0..n` is submitted in at `seed`: a Fisher-Yates shuffle
/// driven by SplitMix64.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn paper_quick_has_311_submissions_and_228_distinct_jobs() {
        let s = build(Workload::PaperQuick);
        assert_eq!(s.runs.len(), 311);
        assert_eq!(s.points.len(), 228);
        let keys: HashSet<_> = s
            .runs
            .iter()
            .map(|&p| job_key(&s.points[p].cfg, s.kernel_of(p), None))
            .collect();
        assert_eq!(keys.len(), 228);
    }

    #[test]
    fn workload_sizes() {
        let fig8 = build(Workload::Fig8Full);
        assert_eq!((fig8.points.len(), fig8.runs.len()), (30, 30));
        let dead = build(Workload::DeadWait);
        assert_eq!((dead.points.len(), dead.runs.len()), (12, 900));
        let mem = build(Workload::MemBackpressure);
        assert_eq!((mem.points.len(), mem.runs.len()), (48, 48));
    }

    #[test]
    fn labels_are_unique_and_space_free() {
        for w in Workload::ALL {
            let s = build(w);
            let labels: HashSet<&str> = s.points.iter().map(|p| p.label.as_str()).collect();
            assert_eq!(labels.len(), s.points.len(), "{}", w.name());
            assert!(labels.iter().all(|l| !l.contains(char::is_whitespace)));
        }
    }

    #[test]
    fn permutation_is_deterministic_and_a_true_permutation() {
        for n in [0, 1, 2, 30, 311, 900] {
            let a = permutation(n, 7);
            assert_eq!(a, permutation(n, 7));
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        }
        assert_ne!(permutation(311, 1), permutation(311, 2));
        assert_ne!(permutation(311, 1), (0..311).collect::<Vec<_>>());
    }
}
