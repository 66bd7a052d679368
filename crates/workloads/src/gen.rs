//! Seeded random-kernel generator: named stress-profile families.
//!
//! The hand-built Sets 1–3 model the paper's 19 benchmarks; this module
//! blows the scenario space open. Each **family** is a deterministic
//! function `(seed, size class) → Kernel` that draws a kernel's launch
//! footprint and instruction stream from a seeded xorshift stream, shaped
//! to stress one corner of the machine:
//!
//! * [`Family::PointerChase`] — chains of uncoalesced scatter loads with
//!   load-to-use dependences (MUM-style suffix-tree walks): latency-bound,
//!   many transactions per access.
//! * [`Family::Bursty`] — alternating memory bursts and long arithmetic
//!   phases: exercises the fast-forward engine's sleep/wake transitions and
//!   the schedulers' ability to overlap the phases of different warps.
//! * [`Family::BarrierHeavy`] — scratchpad traffic fenced by multiple
//!   block-wide barriers per iteration: stresses barrier bookkeeping and
//!   the scratchpad-sharing automaton's lock interleavings.
//! * [`Family::DivergentTile`] — two loop phases with very different
//!   working-set tiles and register windows: small-tile address arithmetic
//!   in a low register window, then wide-tile compute — the shape the
//!   paper's declaration-reordering pass targets.
//! * [`Family::MshrThrash`] — back-to-back wide scatter loads over a span
//!   far larger than the L2: drives the finite MSHR tables and DRAM
//!   queues of the `Event` memory preset into sustained back-pressure
//!   (`mshr_full_stalls > 0` on the bench machine).
//! * [`Family::Mixed`] — a seeded composition of the other families'
//!   phases, one small loop per segment.
//!
//! Every generated kernel passes [`grs_isa::validate`] *by construction*
//! (the builder's `build()` re-validates), fits the Table I machine, and is
//! a pure function of its [`GenSpec`] — which is what lets the differential
//! harness (`tests/generated_differential.rs`) use the simulator's own
//! determinism contract as an oracle: the same kernel must produce
//! bit-identical `SimStats` across every engine, memory preset, telemetry
//! setting and checkpoint cut.
//!
//! Specs have a stable string form, `gen:<family>:<seed>[:<size>]`
//! (e.g. `gen:pointer-chase:42:small`), accepted by
//! [`crate::benchmark`] and the `repro run` CLI.

use grs_isa::{GlobalPattern, Kernel, KernelBuilder};

/// Seeds of the pinned differential corpus: every family × these seeds is
/// exercised by `tests/generated_differential.rs` in CI. Chosen arbitrarily
/// and then **frozen** — changing them silently retires regression coverage.
pub const PINNED_SEEDS: [u64; 3] = [1, 42, 3133];

/// A stress-profile family (see the module docs for what each stresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Chained uncoalesced scatter loads.
    PointerChase,
    /// Alternating memory bursts and arithmetic phases.
    Bursty,
    /// Scratchpad traffic fenced by several barriers per iteration.
    BarrierHeavy,
    /// Two loop phases with contrasting tiles and register windows.
    DivergentTile,
    /// Wide scatter loads that exhaust finite MSHR/DRAM buffers.
    MshrThrash,
    /// Seeded composition of the other families' phases.
    Mixed,
}

impl Family {
    /// Every family, in stable order.
    pub const ALL: [Family; 6] = [
        Family::PointerChase,
        Family::Bursty,
        Family::BarrierHeavy,
        Family::DivergentTile,
        Family::MshrThrash,
        Family::Mixed,
    ];

    /// Stable kebab-case name used in spec strings and scenario labels.
    pub fn name(self) -> &'static str {
        match self {
            Family::PointerChase => "pointer-chase",
            Family::Bursty => "bursty",
            Family::BarrierHeavy => "barrier-heavy",
            Family::DivergentTile => "divergent-tile",
            Family::MshrThrash => "mshr-thrash",
            Family::Mixed => "mixed",
        }
    }

    /// Inverse of [`Self::name`].
    pub fn from_name(name: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// How big a generated kernel is: grid blocks and loop trip counts scale
/// with the class, the instruction *shape* does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// A few blocks, short loops — differential-test sized.
    Small,
    /// A few waves on the Table I machine.
    Medium,
    /// Benchmark-suite sized grids.
    Large,
}

impl SizeClass {
    /// Every size class, in stable order.
    pub const ALL: [SizeClass; 3] = [SizeClass::Small, SizeClass::Medium, SizeClass::Large];

    /// Stable name used in spec strings.
    pub fn name(self) -> &'static str {
        match self {
            SizeClass::Small => "small",
            SizeClass::Medium => "medium",
            SizeClass::Large => "large",
        }
    }

    /// Inverse of [`Self::name`].
    pub fn from_name(name: &str) -> Option<SizeClass> {
        SizeClass::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Inclusive grid-blocks band.
    fn grid_band(self) -> (u64, u64) {
        match self {
            SizeClass::Small => (4, 10),
            SizeClass::Medium => (24, 56),
            SizeClass::Large => (96, 168),
        }
    }

    /// Multiplier applied to loop trip counts.
    fn trip_mult(self) -> u16 {
        match self {
            SizeClass::Small => 1,
            SizeClass::Medium => 2,
            SizeClass::Large => 4,
        }
    }
}

/// A fully-specified generated kernel: `(family, seed, size) → Kernel` is a
/// pure function ([`GenSpec::build`] twice yields identical kernels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenSpec {
    /// Stress-profile family.
    pub family: Family,
    /// Generator seed; any value is legal.
    pub seed: u64,
    /// Size class (grid and trip-count scaling).
    pub size: SizeClass,
}

impl GenSpec {
    /// Spec for `family` at `seed`, [`SizeClass::Small`].
    pub fn new(family: Family, seed: u64) -> Self {
        GenSpec {
            family,
            seed,
            size: SizeClass::Small,
        }
    }

    /// Replace the size class.
    pub fn with_size(mut self, size: SizeClass) -> Self {
        self.size = size;
        self
    }

    /// Parse the stable string form `gen:<family>:<seed>[:<size>]`.
    pub fn parse(s: &str) -> Result<GenSpec, String> {
        let body = s
            .strip_prefix("gen:")
            .ok_or_else(|| format!("generator specs start with `gen:`, got `{s}`"))?;
        let mut parts = body.split(':');
        let family = parts
            .next()
            .filter(|p| !p.is_empty())
            .ok_or_else(|| format!("`{s}` names no family"))?;
        let family = Family::from_name(family).ok_or_else(|| {
            let names: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
            format!("unknown family `{family}` (families: {})", names.join(", "))
        })?;
        let seed = parts
            .next()
            .ok_or_else(|| format!("`{s}` carries no seed (expected gen:<family>:<seed>)"))?;
        let seed: u64 = seed
            .parse()
            .map_err(|_| format!("seed `{seed}` is not a u64"))?;
        let size = match parts.next() {
            None => SizeClass::Small,
            Some(sz) => SizeClass::from_name(sz).ok_or_else(|| {
                format!("unknown size class `{sz}` (sizes: small, medium, large)")
            })?,
        };
        if let Some(extra) = parts.next() {
            return Err(format!("trailing spec component `{extra}` in `{s}`"));
        }
        Ok(GenSpec { family, seed, size })
    }

    /// Stable scenario name, `gen:<family>:<seed>:<size>`; re-parses to
    /// `self`.
    pub fn scenario_name(&self) -> String {
        format!(
            "gen:{}:{}:{}",
            self.family.name(),
            self.seed,
            self.size.name()
        )
    }

    /// Generate the kernel.
    pub fn build(&self) -> Kernel {
        generate(self.family, self.seed, self.size)
    }
}

/// The pinned differential corpus: every family × [`PINNED_SEEDS`], small
/// size class. `tests/generated_differential.rs` asserts bit-identical
/// `SimStats` for each entry across every engine/memory/telemetry/
/// checkpoint combination.
pub fn pinned_corpus() -> Vec<GenSpec> {
    Family::ALL
        .into_iter()
        .flat_map(|f| PINNED_SEEDS.into_iter().map(move |s| GenSpec::new(f, s)))
        .collect()
}

/// xorshift64* stream; deterministic, no external entropy ever.
struct GenRng(u64);

impl GenRng {
    fn new(seed: u64) -> Self {
        // SplitMix64 finalizer over the raw seed so that nearby seeds (0,
        // 1, 2, ...) land in unrelated stream states; the `| 1` guards the
        // xorshift zero fixed point.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        GenRng((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw from the inclusive band `[lo, hi]`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next() % (hi - lo + 1)
    }

    /// True with probability `pct`%.
    fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }
}

/// Mix the family and size discriminants into the user seed so
/// `gen:bursty:7` and `gen:pointer-chase:7` differ beyond their shape
/// templates.
fn stream_for(family: Family, seed: u64, size: SizeClass) -> GenRng {
    let fam = Family::ALL.iter().position(|f| *f == family).unwrap() as u64;
    let sz = SizeClass::ALL.iter().position(|s| *s == size).unwrap() as u64;
    GenRng::new(seed ^ (fam.wrapping_mul(0x00FF_00FF_0000_0101)) ^ (sz << 56))
}

/// Draw a thread count: `warps` full warps, occasionally trimmed to a
/// partial final warp (exercises warp-granularity rounding).
fn draw_threads(rng: &mut GenRng, min_warps: u64, max_warps: u64) -> u32 {
    let warps = rng.range(min_warps, max_warps) as u32;
    let threads = warps * 32;
    if rng.chance(20) && threads > 32 {
        threads - rng.range(1, 16) as u32
    } else {
        threads
    }
}

/// Generate the `family` kernel for `(seed, size)`. Pure and total: every
/// `(family, seed, size)` triple yields a kernel that passes
/// [`grs_isa::validate`] and fits the Table I machine.
pub fn generate(family: Family, seed: u64, size: SizeClass) -> Kernel {
    let rng = &mut stream_for(family, seed, size);
    let (glo, ghi) = size.grid_band();
    let grid = rng.range(glo, ghi) as u32;
    let mult = size.trip_mult();
    let name = GenSpec { family, seed, size }.scenario_name();
    let b = match family {
        Family::PointerChase => pointer_chase(rng, &name, grid, mult),
        Family::Bursty => bursty(rng, &name, grid, mult),
        Family::BarrierHeavy => barrier_heavy(rng, &name, grid, mult),
        Family::DivergentTile => divergent_tile(rng, &name, grid, mult),
        Family::MshrThrash => mshr_thrash(rng, &name, grid, mult),
        Family::Mixed => mixed(rng, &name, grid, mult),
    };
    b.build()
}

fn pointer_chase(rng: &mut GenRng, name: &str, grid: u32, mult: u16) -> KernelBuilder {
    let mut b = KernelBuilder::new(name)
        .threads_per_block(draw_threads(rng, 1, 2))
        .regs_per_thread(rng.range(12, 24) as u32)
        .grid_blocks(grid);
    let top = b.here();
    for _ in 0..rng.range(2, 3) {
        b = b
            .ld_global(GlobalPattern::scatter(
                rng.range(64, 512) as u32,
                rng.range(2, 8) as u8,
            ))
            .ialu(rng.range(1, 2) as u32);
    }
    b.loop_back(top, rng.range(6, 14) as u16 * mult)
        .st_global(GlobalPattern::Stream)
}

fn bursty(rng: &mut GenRng, name: &str, grid: u32, mult: u16) -> KernelBuilder {
    let mut b = KernelBuilder::new(name)
        .threads_per_block(draw_threads(rng, 2, 4))
        .regs_per_thread(rng.range(16, 32) as u32)
        .grid_blocks(grid);
    let top = b.here();
    for _ in 0..rng.range(3, 6) {
        b = b.ld_global(GlobalPattern::Stream).ialu_independent(1);
    }
    b = b.ffma(rng.range(8, 16) as u32);
    if rng.chance(50) {
        b = b.sfu(rng.range(1, 2) as u32);
    }
    b.loop_back(top, rng.range(4, 10) as u16 * mult)
        .st_global(GlobalPattern::Stream)
}

fn barrier_heavy(rng: &mut GenRng, name: &str, grid: u32, mult: u16) -> KernelBuilder {
    let smem = rng.range(1024, 4096) as u32 & !127; // 128 B aligned
    let chunk = (smem / 4).min(512);
    let mut b = KernelBuilder::new(name)
        .threads_per_block(draw_threads(rng, 2, 8))
        .regs_per_thread(rng.range(12, 24) as u32)
        .smem_per_block(smem)
        .grid_blocks(grid);
    let top = b.here();
    b = b
        .ld_global(GlobalPattern::Stream)
        .st_shared(0, chunk)
        .barrier()
        .ld_shared(smem / 2, chunk.min(smem - smem / 2))
        .ialu(rng.range(2, 4) as u32)
        .barrier();
    if rng.chance(40) {
        // A third fence with a deep-offset access: under scratchpad
        // sharing this lands in the shared region and meets the Fig. 4
        // lock right next to a barrier — the paper's deadlock-avoidance
        // scenario.
        b = b.ld_shared(smem - chunk, chunk).barrier();
    }
    b.loop_back(top, rng.range(6, 12) as u16 * mult)
        .st_global(GlobalPattern::Stream)
}

fn divergent_tile(rng: &mut GenRng, name: &str, grid: u32, mult: u16) -> KernelBuilder {
    let regs = rng.range(20, 40) as u32;
    let mut b = KernelBuilder::new(name)
        .threads_per_block(draw_threads(rng, 2, 4))
        .regs_per_thread(regs)
        .grid_blocks(grid);
    // Phase 1: address arithmetic over a small hot tile, confined to a low
    // register window (the private partition under register sharing).
    b = b.reg_window(0, 6);
    let p1 = b.here();
    b = b
        .ld_global(GlobalPattern::BlockTile {
            tile_lines: rng.range(2, 8) as u32,
        })
        .ialu(rng.range(2, 4) as u32)
        .loop_back(p1, rng.range(4, 8) as u16 * mult);
    // Phase 2: wide-tile compute across the rest of the register file.
    b = b.reg_window(6, regs as u16);
    let p2 = b.here();
    b = b
        .ld_global(GlobalPattern::BlockTile {
            tile_lines: rng.range(64, 256) as u32,
        })
        .ffma(rng.range(4, 10) as u32)
        .loop_back(p2, rng.range(4, 8) as u16 * mult);
    b.st_global(GlobalPattern::Stream)
}

fn mshr_thrash(rng: &mut GenRng, name: &str, grid: u32, mult: u16) -> KernelBuilder {
    let mut b = KernelBuilder::new(name)
        .threads_per_block(draw_threads(rng, 4, 8))
        .regs_per_thread(rng.range(12, 20) as u32)
        .grid_blocks(grid);
    let top = b.here();
    for _ in 0..rng.range(3, 5) {
        // Spans far past the 768 KB L2 (6144 lines), so nearly every
        // transaction is a distinct-line miss holding an MSHR entry for a
        // full DRAM round trip.
        b = b
            .ld_global(GlobalPattern::scatter(
                rng.range(8192, 16384) as u32,
                rng.range(12, 24) as u8,
            ))
            .ialu(1);
    }
    b.loop_back(top, rng.range(4, 8) as u16 * mult)
        .st_global(GlobalPattern::Stream)
}

fn mixed(rng: &mut GenRng, name: &str, grid: u32, mult: u16) -> KernelBuilder {
    let smem = if rng.chance(60) {
        rng.range(1024, 4096) as u32 & !127
    } else {
        0
    };
    let mut b = KernelBuilder::new(name)
        .threads_per_block(draw_threads(rng, 2, 6))
        .regs_per_thread(rng.range(16, 32) as u32)
        .smem_per_block(smem)
        .grid_blocks(grid);
    for _ in 0..rng.range(3, 5) {
        let segment = rng.range(0, 3);
        let top = b.here();
        b = match segment {
            0 => b
                .ld_global(GlobalPattern::scatter(
                    rng.range(64, 1024) as u32,
                    rng.range(2, 8) as u8,
                ))
                .ialu(rng.range(1, 3) as u32),
            1 => b
                .ld_global(GlobalPattern::Stream)
                .ffma(rng.range(4, 10) as u32),
            2 if smem > 0 => {
                let chunk = (smem / 4).min(256);
                b.ld_global(GlobalPattern::Stream)
                    .st_shared(0, chunk)
                    .barrier()
                    .ld_shared(smem - chunk, chunk)
                    .ialu(2)
            }
            _ => b
                .ld_global(GlobalPattern::BlockTile {
                    tile_lines: rng.range(4, 64) as u32,
                })
                .ialu_independent(rng.range(1, 4) as u32),
        };
        b = b.loop_back(top, rng.range(3, 8) as u16 * mult);
    }
    b.st_global(GlobalPattern::Stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_isa::validate;

    #[test]
    fn every_family_seed_size_point_validates_and_fits() {
        for family in Family::ALL {
            for seed in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
                for size in SizeClass::ALL {
                    let k = generate(family, seed, size);
                    validate(&k).unwrap_or_else(|e| panic!("{family:?}/{seed}/{size:?}: {e}"));
                    // Fits the Table I SM with at least one block.
                    assert!(k.regs_per_block() <= 32768, "{family:?}/{seed}/{size:?}");
                    assert!(k.smem_per_block <= 16 * 1024, "{family:?}/{seed}/{size:?}");
                    assert!(k.regs_per_thread <= 64);
                    assert!(k.grid_blocks >= 1);
                }
            }
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_the_spec() {
        for family in Family::ALL {
            let a = generate(family, 7, SizeClass::Small);
            let b = generate(family, 7, SizeClass::Small);
            assert_eq!(a, b, "{family:?} not deterministic");
        }
    }

    #[test]
    fn seeds_and_families_actually_vary_the_kernel() {
        // Different seeds give different programs (overwhelmingly likely
        // for any reasonable generator; pinned here so a collapsed RNG is
        // caught).
        let a = generate(Family::Bursty, 1, SizeClass::Small);
        let b = generate(Family::Bursty, 2, SizeClass::Small);
        assert_ne!(a.program, b.program);
        // Same seed, different family: different shapes.
        let c = generate(Family::PointerChase, 1, SizeClass::Small);
        assert_ne!(a.program, c.program);
    }

    #[test]
    fn size_classes_scale_dynamic_work() {
        for family in Family::ALL {
            let small = generate(family, 9, SizeClass::Small);
            let large = generate(family, 9, SizeClass::Large);
            assert!(
                u64::from(large.grid_blocks) * large.dynamic_instrs_per_warp()
                    > u64::from(small.grid_blocks) * small.dynamic_instrs_per_warp(),
                "{family:?} large not larger"
            );
        }
    }

    #[test]
    fn spec_strings_round_trip() {
        for family in Family::ALL {
            for size in SizeClass::ALL {
                let spec = GenSpec::new(family, 123).with_size(size);
                let name = spec.scenario_name();
                assert_eq!(GenSpec::parse(&name), Ok(spec), "{name}");
            }
        }
        // Size defaults to small.
        assert_eq!(
            GenSpec::parse("gen:mixed:5"),
            Ok(GenSpec::new(Family::Mixed, 5))
        );
    }

    #[test]
    fn spec_parse_rejects_malformed_strings() {
        for bad in [
            "pointer-chase:1",
            "gen:",
            "gen:nope:1",
            "gen:mixed",
            "gen:mixed:notanumber",
            "gen:mixed:1:gigantic",
            "gen:mixed:1:small:extra",
        ] {
            assert!(GenSpec::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn pinned_corpus_covers_every_family() {
        let corpus = pinned_corpus();
        assert_eq!(corpus.len(), Family::ALL.len() * PINNED_SEEDS.len());
        for family in Family::ALL {
            assert!(corpus.iter().any(|s| s.family == family));
        }
        // Scenario names are unique.
        let mut names: Vec<String> = corpus.iter().map(|s| s.scenario_name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), corpus.len());
    }
}
