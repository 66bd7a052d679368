//! Golden statistics: one line per simulated point, written only by
//! `--bless`, plus the invariants every run must satisfy whether or not a
//! golden line covers it.
//!
//! A line is `<label> cycles=<n> warp_instrs=<n> ...` with the fields of
//! [`FIELDS`] by name, so a new `SimStats` field changes no existing line.

use std::collections::BTreeMap;

use grs_isa::Kernel;
use grs_sim::SimStats;

/// The pinned fields, in line order.
pub const FIELDS: [&str; 18] = [
    "cycles",
    "warp_instrs",
    "thread_instrs",
    "stall",
    "idle",
    "empty",
    "blocks",
    "max_resident",
    "lock_retries",
    "throttled",
    "mshr_full",
    "dq_full",
    "l1_hits",
    "l1_misses",
    "l2_hits",
    "l2_misses",
    "transactions",
    "merges",
];

pub type Line = [u64; FIELDS.len()];

/// The golden fields of one run's statistics, in [`FIELDS`] order.
pub fn line(s: &SimStats) -> Line {
    [
        s.cycles,
        s.warp_instrs,
        s.thread_instrs,
        s.stall_cycles,
        s.idle_cycles,
        s.empty_cycles,
        s.blocks_completed,
        u64::from(s.max_resident_blocks),
        s.lock_retries,
        s.throttled_issues,
        s.mshr_full_stalls,
        s.dram_queue_full_stalls,
        s.mem.l1_hits,
        s.mem.l1_misses,
        s.mem.l2_hits,
        s.mem.l2_misses,
        s.mem.transactions,
        s.mem.mshr_merges,
    ]
}

/// Golden lines by label.
pub type Golden = BTreeMap<String, Line>;

pub const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden.txt");

const HEADER: &str = "\
# Golden statistics of the grs-benchmark workloads, one simulated point per
# line. Written only by `--bless` (at seed 1); every run checks against it.
";

pub fn format(golden: &Golden) -> String {
    let mut out = String::from(HEADER);
    for (label, values) in golden {
        out.push_str(label);
        for (name, v) in FIELDS.iter().zip(values) {
            out.push_str(&format!(" {name}={v}"));
        }
        out.push('\n');
    }
    out
}

pub fn parse(text: &str) -> Result<Golden, String> {
    let mut golden = Golden::new();
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: String| format!("golden line {}: {what}", n + 1);
        let mut tokens = line.split_whitespace();
        let label = tokens.next().expect("a non-empty line has a token");
        let mut values: Line = [0; FIELDS.len()];
        for (i, name) in FIELDS.iter().enumerate() {
            let token = tokens
                .next()
                .ok_or_else(|| err(format!("missing field `{name}`")))?;
            let value = token
                .strip_prefix(name)
                .and_then(|rest| rest.strip_prefix('='))
                .ok_or_else(|| err(format!("expected `{name}=`, found `{token}`")))?;
            values[i] = value
                .parse()
                .map_err(|_| err(format!("`{token}` is not a count")))?;
        }
        if let Some(extra) = tokens.next() {
            return Err(err(format!("unexpected `{extra}`")));
        }
        if golden.insert(label.to_string(), values).is_some() {
            return Err(err(format!("duplicate label `{label}`")));
        }
    }
    Ok(golden)
}

/// The golden file, or an empty set if none has been blessed yet.
pub fn load() -> Result<Golden, String> {
    match std::fs::read_to_string(PATH) {
        Ok(text) => parse(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Golden::new()),
        Err(e) => Err(format!("reading {PATH}: {e}")),
    }
}

pub fn save(golden: &Golden) -> Result<(), String> {
    std::fs::write(PATH, format(golden)).map_err(|e| format!("writing {PATH}: {e}"))
}

/// Compare a run against its golden line. `Ok(true)` if a line covers the
/// label and matches, `Ok(false)` if no line covers it.
pub fn compare(golden: &Golden, label: &str, stats: &SimStats) -> Result<bool, String> {
    let Some(want) = golden.get(label) else {
        return Ok(false);
    };
    let got = line(stats);
    match FIELDS
        .iter()
        .zip(want.iter().zip(&got))
        .find(|(_, (w, g))| w != g)
    {
        None => Ok(true),
        Some((name, (w, g))) => Err(format!("{label}: {name} = {g}, golden {w}")),
    }
}

/// Thread instructions a kernel issues: `total_thread_instrs` counts full
/// warps, and a partial last warp runs fewer threads.
fn expected_thread_instrs(k: &Kernel) -> u64 {
    let missing = u64::from(k.warps_per_block() * 32 - k.threads_per_block);
    k.total_thread_instrs() - missing * k.dynamic_instrs_per_warp() * u64::from(k.grid_blocks)
}

/// Conditions every finished run satisfies, golden line or not.
pub fn invariants(label: &str, k: &Kernel, s: &SimStats) -> Result<(), String> {
    let checks = [
        (!s.timed_out, "timed out".to_string()),
        (
            s.blocks_completed == u64::from(k.grid_blocks),
            format!(
                "{} of {} blocks completed",
                s.blocks_completed, k.grid_blocks
            ),
        ),
        (
            s.thread_instrs == expected_thread_instrs(k),
            format!(
                "{} thread instructions, kernel has {}",
                s.thread_instrs,
                expected_thread_instrs(k)
            ),
        ),
        (
            s.stall_scoreboard_cycles + s.stall_barrier_cycles + s.stall_no_ready_cycles
                == s.idle_cycles,
            "idle split does not sum to idle cycles".to_string(),
        ),
        (
            s.stall_mem_gate_cycles == s.stall_cycles,
            "mem-gate stalls differ from stall cycles".to_string(),
        ),
    ];
    match checks.into_iter().find(|(ok, _)| !ok) {
        None => Ok(()),
        Some((_, why)) => Err(format!("{label}: {why}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_files_round_trip() {
        let mut golden = Golden::new();
        golden.insert(
            "a/b+tree/10%".to_string(),
            std::array::from_fn(|i| i as u64),
        );
        golden.insert("gen:mixed:3:medium".to_string(), [u64::MAX; FIELDS.len()]);
        let text = format(&golden);
        assert_eq!(parse(&text).unwrap(), golden);
        assert_eq!(format(&parse(&text).unwrap()), text);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        let good = format(&Golden::from([("x".to_string(), [1; FIELDS.len()])]));
        let body = good.lines().last().unwrap();
        for bad in [
            body.replace("cycles=1", "cycles=one"),
            body.replace(" merges=1", ""),
            format!("{body} extra=1"),
            body.replace("warp_instrs", "warps"),
            format!("{body}\n{body}"),
        ] {
            assert!(parse(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn compare_names_the_first_differing_field() {
        let s = SimStats {
            cycles: 10,
            idle_cycles: 4,
            ..Default::default()
        };
        let mut golden = Golden::from([("p".to_string(), line(&s))]);
        assert_eq!(compare(&golden, "p", &s), Ok(true));
        assert_eq!(compare(&golden, "q", &s), Ok(false));
        golden.get_mut("p").unwrap()[4] = 5;
        assert_eq!(
            compare(&golden, "p", &s),
            Err("p: idle = 4, golden 5".into())
        );
    }
}
