//! Running one workload: set-up, timed passes, checks and metrics.
//!
//! An untraced run sets up [`SETUP_REPS`] times (`setup_s` is the median),
//! then runs passes over the workload's submissions until the next pass
//! would end more than half a pass after `--seconds`, and reports medians
//! over passes. A pass is
//! checked and dropped before the next starts, so memory does not grow with
//! the number of passes. A traced run makes one untraced pass (the overhead
//! reference) and one traced pass, and reports the per-layer metrics.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use grs_bench::{JobHandle, JobOutcome, ServiceConfig, SweepService};
use grs_isa::Kernel;
use grs_sim::{RunConfig, ServiceStats, SimStats, Simulator};

use crate::golden::{self, Golden};
use crate::metrics;
use crate::suite::{self, Suite, Workload};
use crate::trace::Tracer;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 51;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fresh service: `nproc - 1` workers, and the waiting caller helps, so
/// at most `nproc` threads simulate.
fn spawn_service() -> SweepService {
    SweepService::new(ServiceConfig {
        workers: nproc() - 1,
        memo_capacity: 512,
    })
}

struct Prepared {
    workload: Workload,
    suite: Suite,
    service: Option<SweepService>,
    /// Mean over points of planned resident blocks over baseline blocks.
    blocks_gain: f64,
}

/// Everything the program does before the first job: kernels, validation,
/// launch plans, the service. Loading golden statistics is the benchmark's
/// own work and stays outside.
fn prepare(workload: Workload, t: &mut Tracer) -> Result<Prepared, String> {
    t.open("workloads.build");
    let suite = suite::build(workload);
    t.close();

    for k in &suite.kernels {
        t.open("isa.validate");
        let valid = grs_isa::validate(k);
        t.close();
        valid.map_err(|e| format!("{}: {e}", k.name))?;
    }

    let mut gain = 0.0;
    for p in &suite.points {
        t.open("core.plan");
        let plan = Simulator::new(p.cfg.clone()).plan_for(&suite.kernels[p.kernel]);
        t.close();
        if plan.baseline_blocks == 0 {
            return Err(format!("{}: kernel does not fit on an SM", p.label));
        }
        gain += f64::from(plan.max_blocks) / f64::from(plan.baseline_blocks);
    }

    let service = workload.uses_service().then(|| {
        t.open("service.spawn");
        let s = spawn_service();
        t.close();
        s
    });

    Ok(Prepared {
        workload,
        blocks_gain: gain / suite.points.len() as f64,
        suite,
        service,
    })
}

struct JobRun {
    point: usize,
    /// Host seconds in the simulator; NaN for results the service returned.
    secs: f64,
    result: Result<SimStats, String>,
}

struct ServicePass {
    /// Counters after the cold pass.
    cold: ServiceStats,
    submit_s: f64,
    warm_s: f64,
    warm_memo_hits: u64,
    warm_runs: Vec<JobRun>,
}

struct Pass {
    /// Host seconds from the first submission to the last result.
    wall: f64,
    runs: Vec<JobRun>,
    service: Option<ServicePass>,
}

fn simulate(cfg: &RunConfig, kernel: &Kernel) -> Result<SimStats, String> {
    let sim = Simulator::new(cfg.clone());
    match catch_unwind(AssertUnwindSafe(|| sim.try_run_report(kernel))) {
        Ok(Ok(report)) => Ok(report.stats),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("simulation panicked".to_string()),
    }
}

/// Simulate `points` one after another, straight through the simulator.
fn sequential_pass(p: &Prepared, points: &[usize], t: &mut Tracer) -> Pass {
    let start = Instant::now();
    let mut runs = Vec::with_capacity(points.len());
    for (job, &point) in points.iter().enumerate() {
        let pt = &p.suite.points[point];
        t.open_job("sim.run", Some(job));
        let t0 = Instant::now();
        let result = simulate(&pt.cfg, &p.suite.kernels[pt.kernel]);
        let secs = t0.elapsed().as_secs_f64();
        t.close();
        runs.push(JobRun {
            point,
            secs,
            result,
        });
    }
    Pass {
        wall: start.elapsed().as_secs_f64(),
        runs,
        service: None,
    }
}

fn outcome_run(point: usize, o: &JobOutcome) -> JobRun {
    JobRun {
        point,
        secs: f64::NAN,
        result: o
            .report
            .as_ref()
            .map(|r| r.stats.clone())
            .map_err(String::clone),
    }
}

/// Submit `points` to `service` as one batch and wait for every result,
/// then resubmit the batch warm. The service is dropped (its worker
/// joined) before returning.
fn service_pass(p: &Prepared, service: SweepService, points: &[usize], t: &mut Tracer) -> Pass {
    let submit = |point: usize| {
        let pt = &p.suite.points[point];
        service.submit(pt.cfg.clone(), p.suite.kernels[pt.kernel].clone())
    };
    let start = Instant::now();
    let mut submit_s = 0.0;
    let mut handles = Vec::with_capacity(points.len());
    for (job, &point) in points.iter().enumerate() {
        t.open_job("service.submit", Some(job));
        let t0 = Instant::now();
        handles.push(submit(point));
        submit_s += t0.elapsed().as_secs_f64();
        t.close();
    }
    let mut outcomes: Vec<Arc<JobOutcome>> = Vec::with_capacity(points.len());
    for (job, h) in handles.iter().enumerate() {
        t.open_job("service.wait", Some(job));
        outcomes.push(h.wait());
        t.close();
    }
    let wall = start.elapsed().as_secs_f64();
    let cold = service.stats();

    t.open("service.warm");
    let warm_start = Instant::now();
    let warm_handles: Vec<JobHandle> = points.iter().map(|&point| submit(point)).collect();
    let warm_outcomes: Vec<Arc<JobOutcome>> = warm_handles.iter().map(JobHandle::wait).collect();
    let warm_s = warm_start.elapsed().as_secs_f64();
    t.close();
    let warm_memo_hits = service.stats().memo_hits - cold.memo_hits;
    drop(service);

    let runs_of = |outcomes: &[Arc<JobOutcome>]| -> Vec<JobRun> {
        points
            .iter()
            .zip(outcomes)
            .map(|(&point, o)| outcome_run(point, o))
            .collect()
    };
    Pass {
        wall,
        runs: runs_of(&outcomes),
        service: Some(ServicePass {
            cold,
            submit_s,
            warm_s,
            warm_memo_hits,
            warm_runs: runs_of(&warm_outcomes),
        }),
    }
}

fn run_pass(p: &mut Prepared, order: &[usize], t: &mut Tracer) -> Pass {
    t.open("harness.pass");
    let pass = if p.workload.uses_service() {
        let service = p.service.take().unwrap_or_else(spawn_service);
        service_pass(p, service, order, t)
    } else {
        sequential_pass(p, order, t)
    };
    t.close();
    pass
}

/// Sums over the simulations a pass executed.
#[derive(Default)]
struct Totals {
    jobs: u64,
    sm_cycles: u64,
    stats: SimStats,
}

impl Totals {
    fn add(&mut self, cfg: &RunConfig, s: &SimStats) {
        let t = &mut self.stats;
        self.jobs += 1;
        self.sm_cycles += s.cycles * u64::from(cfg.gpu.num_sms);
        t.cycles += s.cycles;
        t.warp_instrs += s.warp_instrs;
        t.stall_cycles += s.stall_cycles;
        t.idle_cycles += s.idle_cycles;
        t.empty_cycles += s.empty_cycles;
        t.stall_scoreboard_cycles += s.stall_scoreboard_cycles;
        t.stall_barrier_cycles += s.stall_barrier_cycles;
        t.stall_no_ready_cycles += s.stall_no_ready_cycles;
        t.lock_retries += s.lock_retries;
        t.throttled_issues += s.throttled_issues;
        t.max_resident_blocks = t.max_resident_blocks.max(s.max_resident_blocks);
        t.mshr_full_stalls += s.mshr_full_stalls;
        t.dram_queue_full_stalls += s.dram_queue_full_stalls;
        t.mem.transactions += s.mem.transactions;
        t.mem.l1_hits += s.mem.l1_hits;
        t.mem.l1_misses += s.mem.l1_misses;
        t.mem.l2_hits += s.mem.l2_hits;
        t.mem.l2_misses += s.mem.l2_misses;
        t.mem.mshr_merges += s.mem.mshr_merges;
        t.mem.mshr_occupancy_cycles += s.mem.mshr_occupancy_cycles;
    }
}

/// What is kept of a pass once it has been checked.
struct Summary {
    wall: f64,
    totals: Totals,
    /// Host seconds of each simulation the benchmark timed.
    job_secs: Vec<f64>,
    service: Option<ServicePass>,
}

/// Checks every result against its golden line (or, without one, against
/// the first run of the same point) and the invariants.
struct Checker {
    golden: Golden,
    first: HashMap<usize, SimStats>,
    attempted: u64,
    failed: u64,
    covered: u64,
    errors: Vec<String>,
}

impl Checker {
    fn new(golden: Golden) -> Self {
        Checker {
            golden,
            first: HashMap::new(),
            attempted: 0,
            failed: 0,
            covered: 0,
            errors: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 10 {
            self.errors.push(why);
        }
    }

    fn check(&mut self, suite: &Suite, run: &JobRun) {
        self.attempted += 1;
        let label = &suite.points[run.point].label;
        let verdict = match &run.result {
            Err(e) => Err(format!("{label}: {e}")),
            Ok(s) => self.verdict(suite, run.point, s),
        };
        if let Err(why) = verdict {
            self.fail(why);
        }
    }

    fn verdict(&mut self, suite: &Suite, point: usize, s: &SimStats) -> Result<(), String> {
        let label = &suite.points[point].label;
        golden::invariants(label, suite.kernel_of(point), s)?;
        if golden::compare(&self.golden, label, s)? {
            self.covered += 1;
        }
        let first = self.first.entry(point).or_insert_with(|| s.clone());
        if golden::line(first) != golden::line(s) {
            return Err(format!(
                "{label}: differs from an earlier run of the same job"
            ));
        }
        Ok(())
    }

    /// Check a pass and keep what the metrics need.
    fn summarize(&mut self, suite: &Suite, pass: Pass) -> Summary {
        let mut totals = Totals::default();
        let mut executed = vec![false; suite.points.len()];
        for run in &pass.runs {
            self.check(suite, run);
            // The service simulates each distinct job once.
            if pass.service.is_some() && std::mem::replace(&mut executed[run.point], true) {
                continue;
            }
            if let Ok(s) = &run.result {
                totals.add(&suite.points[run.point].cfg, s);
            }
        }
        if let Some(sp) = &pass.service {
            for run in &sp.warm_runs {
                self.check(suite, run);
            }
            if sp.warm_memo_hits != sp.warm_runs.len() as u64 {
                self.fail(format!(
                    "warm pass: {} of {} submissions were memo hits",
                    sp.warm_memo_hits,
                    sp.warm_runs.len()
                ));
            }
        }
        Summary {
            wall: pass.wall,
            totals,
            job_secs: pass
                .runs
                .iter()
                .map(|r| r.secs)
                .filter(|s| !s.is_nan())
                .collect(),
            service: pass.service.map(|sp| ServicePass {
                warm_runs: Vec::new(),
                ..sp
            }),
        }
    }

    /// Set-1 and Set-2 IPC gains of `fig8-full` from the checked results.
    fn fig8_gains(&self, suite: &Suite) -> Option<(Vec<f64>, Vec<f64>)> {
        let gains: Option<Vec<f64>> = (0..suite.points.len() / 2)
            .map(|i| {
                let base = self.first.get(&(2 * i))?;
                Some(self.first.get(&(2 * i + 1))?.ipc_improvement_pct(base))
            })
            .collect();
        let mut gains = gains?;
        let smem = gains.split_off(grs_workloads::suite::SET1_NAMES.len());
        Some((gains, smem))
    }

    fn report_errors(&self) {
        for e in &self.errors {
            eprintln!("FAILED {e}");
        }
        if self.failed > self.errors.len() as u64 {
            eprintln!("... {} failures in all", self.failed);
        }
    }
}

/// Submission order at `seed`, as point indices.
fn submission_order(suite: &Suite, seed: u64) -> Vec<usize> {
    suite::permutation(suite.runs.len(), seed)
        .into_iter()
        .map(|i| suite.runs[i])
        .collect()
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    if opts.trace {
        traced(opts)
    } else {
        timed(opts)
    }
}

fn timed(opts: &Options) -> Result<Outcome, String> {
    let mut checker = Checker::new(golden::load()?);
    let mut setup_secs = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up first: never two services at once.
        drop(prepared.take());
        let t0 = Instant::now();
        prepared = Some(prepare(opts.workload, &mut Tracer::new(false))?);
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let mut p = prepared.expect("set up at least once");
    let order = submission_order(&p.suite, opts.seed);

    let mut off = Tracer::new(false);
    let mut summaries = Vec::new();
    let start = Instant::now();
    loop {
        let pass_start = Instant::now();
        let pass = run_pass(&mut p, &order, &mut off);
        summaries.push(checker.summarize(&p.suite, pass));
        // Start another pass only if it should end within half a pass of
        // `--seconds`: a workload whose pass takes up to two thirds of the
        // run then always gets at least two passes.
        let pass_secs = pass_start.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + pass_secs / 2.0 > opts.seconds {
            break;
        }
    }
    checker.report_errors();

    let walls: Vec<f64> = summaries.iter().map(|s| s.wall).collect();
    let rate = |f: fn(&SimStats) -> u64| {
        let rates: Vec<f64> = summaries
            .iter()
            .map(|s| f(&s.totals.stats) as f64 / s.wall / 1e6)
            .collect();
        metrics::median(&rates)
    };
    let values = vec![
        ("wall_s", metrics::median(&walls)),
        ("sim_mcycles_per_s", rate(|s| s.cycles)),
        ("sim_minstr_per_s", rate(|s| s.warp_instrs)),
        ("setup_s", metrics::median(&setup_secs)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    eprintln!(
        "{} seed {}: {} passes in {:.2} s, nproc {}, pass walls {:.3?} s",
        opts.workload.name(),
        opts.seed,
        summaries.len(),
        start.elapsed().as_secs_f64(),
        nproc(),
        walls
    );
    if opts.workload == Workload::Fig8Full {
        print_accuracy(&checker, &p.suite);
    }
    Ok(Outcome {
        correct: checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: values,
    })
}

fn print_accuracy(checker: &Checker, suite: &Suite) {
    match checker.fig8_gains(suite) {
        Some((reg, smem)) => {
            for (name, value) in metrics::accuracy(&reg, &smem) {
                eprintln!("  {name:<28} {value:>10.2} pp");
            }
        }
        None => eprintln!("  accuracy: some fig8-full jobs failed"),
    }
}

const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

fn traced(opts: &Options) -> Result<Outcome, String> {
    let mut checker = Checker::new(golden::load()?);
    // The untraced reference pass for `trace.overhead`.
    let mut p = prepare(opts.workload, &mut Tracer::new(false))?;
    let order = submission_order(&p.suite, opts.seed);
    let base_pass = run_pass(&mut p, &order, &mut Tracer::new(false));
    let base = checker.summarize(&p.suite, base_pass);
    drop(p);

    let mut t = Tracer::new(true);
    t.open("harness.run");
    let mut p = prepare(opts.workload, &mut t)?;
    let pass = run_pass(&mut p, &order, &mut t);
    // The service times no job, so replay its distinct jobs one by one.
    let replay = p.workload.uses_service().then(|| {
        let mut seen = vec![false; p.suite.points.len()];
        let distinct: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&pt| !std::mem::replace(&mut seen[pt], true))
            .collect();
        t.open("harness.replay");
        let replay = sequential_pass(&p, &distinct, &mut t);
        t.close();
        replay
    });
    t.open("check");
    let traced_pass = checker.summarize(&p.suite, pass);
    let replay = replay.map(|r| checker.summarize(&p.suite, r));
    t.close();
    t.close();
    checker.report_errors();

    let root = t.spans()[0].secs();
    let self_times = t.self_times();
    let self_sum: f64 = self_times.values().sum();
    eprintln!("self time by layer (traced wall {root:.3} s):");
    for (layer, secs) in &self_times {
        eprintln!("  {layer:<10} {secs:>10.4} s {:>6.1}%", 100.0 * secs / root);
    }
    let sums_ok = (self_sum - root).abs() <= 0.05 * root;

    let doc = t.chrome_json(&format!("grs-benchmark {}", opts.workload.name()));
    let trace_ok = grs_bench::trace::validate_chrome_trace(&doc);
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("creating {TRACE_DIR}: {e}"))?;
    let path = format!(
        "{TRACE_DIR}/{}-seed{}.json",
        opts.workload.name(),
        opts.seed
    );
    std::fs::write(&path, &doc).map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("wrote {path} ({} spans)", t.spans().len());
    if let Err(e) = &trace_ok {
        eprintln!("trace rejected: {e}");
    }
    if !sums_ok {
        eprintln!("layer self times sum to {self_sum:.4} s, traced wall is {root:.4} s");
    }
    if opts.workload == Workload::Fig8Full {
        print_accuracy(&checker, &p.suite);
    }

    let timed = replay.as_ref().unwrap_or(&traced_pass);
    let tot = &timed.totals;
    let s = &tot.stats;
    let job_secs: f64 = timed.job_secs.iter().sum();
    let frac = |x: u64| x as f64 / tot.sm_cycles as f64;
    let ratio = |a: u64, b: u64| a as f64 / b as f64;
    let tail_pct = metrics::tail_percentile(timed.job_secs.len());
    let sp = traced_pass.service.as_ref();
    let svc = |f: fn(&ServicePass) -> u64| sp.map_or(0.0, |sp| f(sp) as f64);
    let values = vec![
        ("workloads.build_s", t.total("workloads.build").0),
        ("workloads.kernels", p.suite.kernels.len() as f64),
        ("isa.validate_s", t.total("isa.validate").0),
        ("isa.validated", t.total("isa.validate").1 as f64),
        ("core.plan_s", t.total("core.plan").0),
        ("core.resident_blocks_gain", p.blocks_gain),
        ("sim.calls", tot.jobs as f64),
        ("sim.run_s_p50", metrics::median(&timed.job_secs)),
        (
            "sim.run_s_tail",
            metrics::percentile(&timed.job_secs, tail_pct),
        ),
        ("sim.run_tail_pct", f64::from(tail_pct)),
        ("sim.run_samples", timed.job_secs.len() as f64),
        ("sim.ns_per_instr", job_secs * 1e9 / s.warp_instrs as f64),
        ("sim.ns_per_cycle", job_secs * 1e9 / s.cycles as f64),
        ("sim.cycles", s.cycles as f64),
        ("sim.warp_instrs", s.warp_instrs as f64),
        ("sim.sm.issue_rate", frac(s.warp_instrs)),
        ("sim.sm.idle_frac", frac(s.idle_cycles)),
        ("sim.sm.stall_frac", frac(s.stall_cycles)),
        ("sim.sm.empty_frac", frac(s.empty_cycles)),
        (
            "sim.sm.idle_scoreboard_frac",
            frac(s.stall_scoreboard_cycles),
        ),
        ("sim.sm.idle_barrier_frac", frac(s.stall_barrier_cycles)),
        ("sim.sm.idle_no_ready_frac", frac(s.stall_no_ready_cycles)),
        ("sim.sm.lock_retries", s.lock_retries as f64),
        ("sim.sm.throttled_issues", s.throttled_issues as f64),
        (
            "sim.sm.max_resident_blocks",
            f64::from(s.max_resident_blocks),
        ),
        ("sim.mem.transactions", s.mem.transactions as f64),
        (
            "sim.mem.l1_miss_ratio",
            ratio(s.mem.l1_misses, s.mem.l1_hits + s.mem.l1_misses),
        ),
        (
            "sim.mem.l2_miss_ratio",
            ratio(s.mem.l2_misses, s.mem.l2_hits + s.mem.l2_misses),
        ),
        ("sim.mem.mshr_merges", s.mem.mshr_merges as f64),
        ("sim.mem.mshr_full_stalls", s.mshr_full_stalls as f64),
        (
            "sim.mem.dram_queue_full_stalls",
            s.dram_queue_full_stalls as f64,
        ),
        (
            "sim.mem.mshr_mean_occupancy",
            ratio(s.mem.mshr_occupancy_cycles, s.cycles),
        ),
        ("service.submitted", svc(|sp| sp.cold.submitted)),
        ("service.executed", svc(|sp| sp.cold.executed)),
        ("service.deduped", svc(|sp| sp.cold.deduped)),
        ("service.memo_hits", svc(|sp| sp.cold.memo_hits)),
        ("service.failed", svc(|sp| sp.cold.failed)),
        ("service.warm_memo_hits", svc(|sp| sp.warm_memo_hits)),
        ("service.submit_s", sp.map_or(0.0, |sp| sp.submit_s)),
        (
            "service.wait_s",
            sp.map_or(0.0, |sp| traced_pass.wall - sp.submit_s),
        ),
        ("service.warm_pass_s", sp.map_or(0.0, |sp| sp.warm_s)),
        (
            "service.parallel_efficiency",
            sp.map_or(0.0, |_| job_secs / (nproc() as f64 * base.wall)),
        ),
        ("check_s", t.total("check").0),
        (
            "check.golden_coverage",
            checker.covered as f64 / checker.attempted as f64,
        ),
        ("trace.overhead", traced_pass.wall / base.wall),
    ];
    Ok(Outcome {
        correct: checker.failed == 0 && trace_ok.is_ok() && sums_ok,
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: values,
    })
}

/// Run one pass at `seed` and rewrite the workload's golden lines from it.
pub fn bless(workload: Workload, seed: u64) -> Result<usize, String> {
    let mut golden = golden::load()?;
    let mut p = prepare(workload, &mut Tracer::new(false))?;
    let order = submission_order(&p.suite, seed);
    let mut checker = Checker::new(Golden::new());
    let pass = run_pass(&mut p, &order, &mut Tracer::new(false));
    checker.summarize(&p.suite, pass);
    if checker.failed > 0 {
        checker.report_errors();
        return Err("refusing to bless a run that fails its checks".to_string());
    }
    let prefix = format!("{}/", workload.name());
    golden.retain(|label, _| !label.starts_with(&prefix));
    for (point, stats) in &checker.first {
        golden.insert(p.suite.points[*point].label.clone(), golden::line(stats));
    }
    golden::save(&golden)?;
    Ok(checker.first.len())
}
