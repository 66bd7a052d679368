//! The metric table (names, units, which way is better, regression bounds),
//! the order statistics the benchmark reports, and the result line.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen
    /// before a change counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Reported by untraced runs (`--trace 0`).
pub const END_TO_END: [Metric; 5] = [
    e2e("wall_s", "s", Lower, 0.25),
    e2e("sim_mcycles_per_s", "Mcycles/s", Higher, 0.25),
    e2e("sim_minstr_per_s", "Minstr/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Reported by traced runs (`--trace 1`).
pub const PER_LAYER: [Metric; 45] = [
    layer("workloads.build_s", "s", Lower),
    layer("workloads.kernels", "count", Lower),
    layer("isa.validate_s", "s", Lower),
    layer("isa.validated", "count", Lower),
    layer("core.plan_s", "s", Lower),
    layer("core.resident_blocks_gain", "ratio", Higher),
    layer("sim.calls", "count", Lower),
    layer("sim.run_s_p50", "s", Lower),
    layer("sim.run_s_tail", "s", Lower),
    layer("sim.run_tail_pct", "percentile", Higher),
    layer("sim.run_samples", "count", Higher),
    layer("sim.ns_per_instr", "ns", Lower),
    layer("sim.ns_per_cycle", "ns", Lower),
    layer("sim.cycles", "count", Lower),
    layer("sim.warp_instrs", "count", Lower),
    layer("sim.sm.issue_rate", "instr/SM-cycle", Higher),
    layer("sim.sm.idle_frac", "fraction", Lower),
    layer("sim.sm.stall_frac", "fraction", Lower),
    layer("sim.sm.empty_frac", "fraction", Lower),
    layer("sim.sm.idle_scoreboard_frac", "fraction", Lower),
    layer("sim.sm.idle_barrier_frac", "fraction", Lower),
    layer("sim.sm.idle_no_ready_frac", "fraction", Lower),
    layer("sim.sm.lock_retries", "count", Lower),
    layer("sim.sm.throttled_issues", "count", Lower),
    layer("sim.sm.max_resident_blocks", "count", Higher),
    layer("sim.mem.transactions", "count", Lower),
    layer("sim.mem.l1_miss_ratio", "fraction", Lower),
    layer("sim.mem.l2_miss_ratio", "fraction", Lower),
    layer("sim.mem.mshr_merges", "count", Higher),
    layer("sim.mem.mshr_full_stalls", "count", Lower),
    layer("sim.mem.dram_queue_full_stalls", "count", Lower),
    layer("sim.mem.mshr_mean_occupancy", "entries", Lower),
    layer("service.submitted", "count", Lower),
    layer("service.executed", "count", Lower),
    layer("service.deduped", "count", Higher),
    layer("service.memo_hits", "count", Higher),
    layer("service.failed", "count", Lower),
    layer("service.warm_memo_hits", "count", Higher),
    layer("service.submit_s", "s", Lower),
    layer("service.wait_s", "s", Lower),
    layer("service.warm_pass_s", "s", Lower),
    layer("service.parallel_efficiency", "fraction", Higher),
    layer("check_s", "s", Lower),
    layer("check.golden_coverage", "fraction", Higher),
    layer("trace.overhead", "ratio", Lower),
];

pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// IPC gains the paper's abstract reports from GPGPU-Sim, in percent:
/// register sharing mean and max, scratchpad sharing mean and max. The
/// model is validated against these four numbers only.
pub const PAPER_GAINS: [f64; 4] = [11.0, 24.0, 12.5, 30.0];

/// Distance in percentage points between `fig8-full`'s Set-1 (register
/// sharing) and Set-2 (scratchpad sharing) gains and [`PAPER_GAINS`].
pub fn accuracy(reg: &[f64], smem: &[f64]) -> [(&'static str, f64); 4] {
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let [reg_mean, reg_max, smem_mean, smem_max] = PAPER_GAINS;
    [
        ("reg_gain_mean_err_pp", (mean(reg) - reg_mean).abs()),
        ("reg_gain_max_err_pp", (max(reg) - reg_max).abs()),
        ("smem_gain_mean_err_pp", (mean(smem) - smem_mean).abs()),
        ("smem_gain_max_err_pp", (max(smem) - smem_max).abs()),
    ]
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles as Python's `statistics.quantiles(xs, n=4)`
/// computes them (the default "exclusive" method).
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The highest whole percentile with at least ten samples beyond it, out of
/// `n`: the largest `p` with `n * (100 - p) / 100 >= 10`. With fewer than
/// twenty samples there is no tail worth the name and this is the median.
pub fn tail_percentile(n: usize) -> u32 {
    if n < 20 {
        return 50;
    }
    100 - 1000u32.div_ceil(n as u32)
}

/// Nearest-rank percentile `p` of `xs`.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (u64::from(p) * v.len() as u64).div_ceil(100).max(1) as usize;
    v[rank - 1]
}

/// The result line: the last line of standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[(&str, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, value)| {
            let unit = find(name).map_or("", |m| m.unit);
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Metric values of a parsed result line.
pub fn values_of(result: &Json) -> Vec<(String, f64)> {
    match result.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for m in &all {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn benchmark_json_matches_the_metric_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = crate::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Arr(entries)) = doc.get(key) else {
                panic!("BENCHMARK.json has no `{key}` list");
            };
            let listed: Vec<(&str, &str, &str, Option<f64>)> = entries
                .iter()
                .map(|e| {
                    (
                        e.get("name").and_then(Json::as_str).unwrap(),
                        e.get("unit").and_then(Json::as_str).unwrap(),
                        e.get("better").and_then(Json::as_str).unwrap(),
                        e.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect();
            let expected: Vec<(&str, &str, &str, Option<f64>)> = table
                .iter()
                .map(|m| (m.name, m.unit, m.better.name(), m.bound))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        let setup = find("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn accuracy_matches_hand_values() {
        // `repro fig8` gains at the full grids.
        let reg = [-1.23, 12.20, 18.54, 2.39, 20.17, 20.14, 25.77, 43.34];
        let smem = [33.55, 32.33, 71.56, 16.53, 15.84, 67.78, 52.30];
        let errs = accuracy(&reg, &smem);
        // Set-1 mean 17.665% is 6.665 pp above the paper's 11%.
        let expected = [6.665, 19.34, 28.9129, 41.56];
        for ((name, got), want) in errs.iter().zip(expected) {
            assert!((got - want).abs() < 1e-3, "{name}: {got} vs {want}");
        }
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&xs), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_percentile(30), 66);
        assert_eq!(tail_percentile(48), 79);
        assert_eq!(tail_percentile(228), 95);
        assert_eq!(tail_percentile(900), 98);
        for n in 20..2000usize {
            let p = tail_percentile(n) as usize;
            assert!(n * (100 - p) >= 1000, "n={n}");
            assert!(n * (100 - p - 1) < 1000, "n={n}");
        }
        let xs: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(percentile(&xs, 66), 20.0, "ten samples lie above p66 of 30");
    }

    #[test]
    fn result_lines_parse_back() {
        let line = result_line(true, 12, 0, &[("wall_s", 1.25), ("setup_s", 0.000123)]);
        let doc = crate::json::parse(&line).unwrap();
        assert_eq!(doc.get("attempted").and_then(Json::as_f64), Some(12.0));
        assert_eq!(
            values_of(&doc),
            vec![
                ("wall_s".to_string(), 1.25),
                ("setup_s".to_string(), 0.000123)
            ]
        );
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("wall_s"))
                .and_then(|m| m.get("unit"))
                .and_then(Json::as_str),
            Some("s")
        );
    }
}
