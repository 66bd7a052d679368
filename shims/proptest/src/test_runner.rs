//! Deterministic test runner and RNG.

use std::fmt::Debug;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use crate::strategy::Strategy;

/// xorshift64* PRNG — deterministic, seedable, no OS entropy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed the stream; zero is remapped (xorshift's fixed point).
    pub fn new(seed: u64) -> Self {
        TestRng {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`; `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0)");
        self.next_u64() % bound
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Runner configuration. Only the knobs the workspace uses.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Run `cases` random cases per property.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    /// 64 cases, overridable with the `PROPTEST_CASES` environment variable
    /// (the same knob real proptest reads; see [`cases_from_env`]).
    fn default() -> Self {
        ProptestConfig {
            cases: cases_from_env("PROPTEST_CASES", 64),
        }
    }
}

/// The case count set by environment variable `var`, or `default` when it
/// is unset.
///
/// # Panics
///
/// If the value is not a positive `u32`, with a message naming the
/// variable and its value: a mistyped CI setting fails the run instead of
/// quietly running the default. (An extension of this shim: real proptest
/// has no such function.)
pub fn cases_from_env(var: &str, default: u32) -> u32 {
    let value = std::env::var_os(var);
    let value = value.as_ref().map(|v| v.to_string_lossy());
    parse_cases(var, value.as_deref(), default).unwrap_or_else(|e| panic!("{e}"))
}

/// [`cases_from_env`] on the variable's value (`None`: unset).
fn parse_cases(var: &str, value: Option<&str>, default: u32) -> Result<u32, String> {
    let Some(v) = value else {
        return Ok(default);
    };
    v.parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("{var}={v:?} is not a positive case count"))
}

/// Executes a property over deterministic random cases, replaying pinned
/// regression seeds first.
pub struct TestRunner {
    config: ProptestConfig,
}

impl TestRunner {
    /// Build a runner.
    pub fn new(config: ProptestConfig) -> Self {
        TestRunner { config }
    }

    /// Run property `test` over values of `strategy`.
    ///
    /// Seeds replay in this order:
    /// 1. every seed pinned for `name` in
    ///    `$CARGO_MANIFEST_DIR/proptest-regressions/<file-stem>.txt`
    ///    (lines of the form `<test name> <u64 seed>`, `#` comments);
    /// 2. `config.cases` seeds derived from FNV-1a(`name`) and the case
    ///    index — identical on every machine and every run.
    ///
    /// On failure the offending seed and input are printed along with the
    /// regression line to pin, then the panic propagates (no shrinking).
    pub fn run_named<S: Strategy>(
        &mut self,
        name: &str,
        source_file: &str,
        strategy: &S,
        mut test: impl FnMut(S::Value),
    ) {
        let regressions = regression_path(source_file);
        for seed in load_seeds(regressions.as_deref(), name) {
            self.run_one(name, &regressions, "pinned", seed, strategy, &mut test);
        }
        let base = fnv1a(name);
        for case in 0..self.config.cases {
            let seed = base ^ u64::from(case).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            self.run_one(name, &regressions, "generated", seed, strategy, &mut test);
        }
    }

    fn run_one<S: Strategy>(
        &self,
        name: &str,
        regressions: &Option<PathBuf>,
        kind: &str,
        seed: u64,
        strategy: &S,
        test: &mut impl FnMut(S::Value),
    ) {
        let mut rng = TestRng::new(seed);
        let value = strategy.sample(&mut rng);
        let shown = format!("{value:?}");
        let outcome = catch_unwind(AssertUnwindSafe(|| test(value)));
        if let Err(panic) = outcome {
            eprintln!("proptest shim: property `{name}` FAILED ({kind} seed {seed:#018x})");
            eprintln!("  input: {shown}");
            if let Some(path) = regressions {
                eprintln!("  to pin this case, append to {}:", path.display());
                eprintln!("  {name} {seed}");
            }
            resume_unwind(panic);
        }
    }
}

/// FNV-1a, the deterministic per-test base seed.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `proptest-regressions/<file-stem>.txt` next to the crate manifest,
/// mirroring real proptest's layout.
fn regression_path(source_file: &str) -> Option<PathBuf> {
    let stem = Path::new(source_file).file_stem()?;
    let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR")?;
    let mut path = PathBuf::from(manifest_dir);
    path.push("proptest-regressions");
    path.push(stem);
    path.set_extension("txt");
    Some(path)
}

fn load_seeds(path: Option<&Path>, name: &str) -> Vec<u64> {
    let Some(path) = path else { return Vec::new() };
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let mut seeds = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        if parts.next() == Some(name) {
            if let Some(seed) = parts.next().and_then(|s| s.parse().ok()) {
                seeds.push(seed);
            }
        }
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::new(5);
        let mut b = TestRng::new(5);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fnv_differs_between_names() {
        assert_ne!(fnv1a("alpha"), fnv1a("beta"));
    }

    #[test]
    fn regression_seed_lines_parse_and_filter_by_test_name() {
        let dir = std::env::temp_dir().join("grs-proptest-shim-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("seeds.txt");
        std::fs::write(
            &file,
            "# comment\n\nmy_test 7\nother_test 9\nmy_test 0xnotanumber\nmy_test 11\n",
        )
        .unwrap();
        assert_eq!(load_seeds(Some(&file), "my_test"), vec![7, 11]);
        assert_eq!(load_seeds(Some(&file), "other_test"), vec![9]);
        assert_eq!(load_seeds(Some(&file), "absent"), Vec::<u64>::new());
        assert_eq!(
            load_seeds(Some(Path::new("/no/such/file")), "my_test"),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn runner_executes_requested_case_count() {
        let mut runner = TestRunner::new(ProptestConfig::with_cases(10));
        let mut count = 0;
        runner.run_named("count_cases_unpinned", "no/such/file.rs", &(0u32..5), |v| {
            assert!(v < 5);
            count += 1;
        });
        assert_eq!(count, 10);
    }

    #[test]
    fn case_counts_parse_or_name_the_variable() {
        assert_eq!(parse_cases("GRS_GEN_SEEDS", None, 6), Ok(6));
        assert_eq!(parse_cases("GRS_GEN_SEEDS", Some("64"), 6), Ok(64));
        assert_eq!(parse_cases("PROPTEST_CASES", Some("1"), 64), Ok(1));
        for bad in ["", "0", "-1", " 64", "6 4", "sixty-four", "4294967296"] {
            let err = parse_cases("GRS_GEN_SEEDS", Some(bad), 6).expect_err(bad);
            assert_eq!(
                err,
                format!("GRS_GEN_SEEDS={bad:?} is not a positive case count")
            );
        }
    }
}
