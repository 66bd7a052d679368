//! The spelling key: a stable 128-bit content hash of a sweep job.
//!
//! [`job_key`] folds every semantic field of a `RunConfig` and a kernel
//! (name, footprint, declaration order and every instruction) into a
//! [`ConfigHash`] with [`StableHasher`], a fixed SplitMix64 chain over two
//! lanes, so keys are reproducible across processes and platforms. The
//! sweep service does not read it: it keys jobs by the machine they build
//! ([`super::machine_key`]). The frozen benchmark folds its submissions
//! into points with it, so its digest is pinned.
//!
//! Every struct is taken apart with a full pattern (no `..`), so a new
//! field on any input type is a compile error here until it is hashed or
//! skipped with its reason beside it.

use grs_core::{GpuConfig, LatencyConfig, MemConfig, SchedulerKind, SmConfig};
use grs_isa::{GlobalPattern, Instr, Kernel, Op, Program};
use grs_sim::{RunConfig, SharingMode, TelemetryConfig};

/// Bump when the hashing scheme itself changes (field order, encoding), so
/// persisted keys from an older scheme can never alias a newer one.
const KEY_VERSION: u64 = 4;

/// Canonical 128-bit identity of a job's spelling: equal keys mean equal
/// configurations and kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigHash([u64; 2]);

impl std::fmt::Display for ConfigHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// SplitMix64 finalizer: a well-mixed bijection on `u64`.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two-lane chained mixer. Each written word perturbs both lanes through
/// the SplitMix64 bijection; chaining makes the digest order-dependent, so
/// transposed fields (and different-length collections, via length
/// prefixes) produce different keys.
#[derive(Debug)]
pub struct StableHasher {
    lanes: [u64; 2],
}

impl StableHasher {
    /// Fresh hasher, seeded with the key-scheme version.
    pub fn new() -> Self {
        let mut h = StableHasher {
            lanes: [0x6A09_E667_F3BC_C908, 0xBB67_AE85_84CA_A73B],
        };
        h.write_u64(KEY_VERSION);
        h
    }

    /// Mix one word into both lanes.
    pub fn write_u64(&mut self, v: u64) {
        self.lanes[0] = splitmix(self.lanes[0] ^ v);
        self.lanes[1] = splitmix(self.lanes[1].rotate_left(23) ^ v ^ 0xC2B2_AE3D_2745_1AFD);
    }

    /// Mix a narrower integer (widened; width does not affect the digest,
    /// field order and count do).
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    /// Mix a boolean as 0/1.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u64(u64::from(v));
    }

    /// Mix an `f64` by its exact bit pattern (thresholds are compared
    /// bitwise by the simulator's config equality too).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Mix a byte string: length prefix, then 8-byte little-endian chunks.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// Mix an optional value: a presence discriminant, then the value.
    pub fn write_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.write_u64(0),
            Some(x) => {
                self.write_u64(1);
                self.write_u64(x);
            }
        }
    }

    /// Finish the digest.
    pub fn finish(self) -> ConfigHash {
        // One final avalanche so short inputs still fill both lanes.
        ConfigHash([
            splitmix(self.lanes[0] ^ self.lanes[1].rotate_left(32)),
            splitmix(self.lanes[1] ^ self.lanes[0]),
        ])
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

fn hash_scheduler(h: &mut StableHasher, s: SchedulerKind) {
    match s {
        SchedulerKind::Lrr => h.write_u64(0),
        SchedulerKind::Gto => h.write_u64(1),
        SchedulerKind::TwoLevel { group_size } => {
            h.write_u64(2);
            h.write_u32(group_size);
        }
        SchedulerKind::Owf => h.write_u64(3),
    }
}

fn hash_gpu(h: &mut StableHasher, gpu: &GpuConfig) {
    let GpuConfig {
        num_sms,
        sm,
        lat,
        mem,
    } = gpu;
    h.write_u32(*num_sms);
    let SmConfig {
        registers,
        scratchpad_bytes,
        max_threads,
        max_blocks,
        schedulers,
    } = sm;
    for v in [
        registers,
        scratchpad_bytes,
        max_threads,
        max_blocks,
        schedulers,
    ] {
        h.write_u32(*v);
    }
    let LatencyConfig {
        ialu,
        imul,
        fp,
        sfu,
        scratchpad,
    } = lat;
    for v in [ialu, imul, fp, sfu, scratchpad] {
        h.write_u32(*v);
    }
    let MemConfig {
        l1_bytes,
        l1_ways,
        l2_bytes,
        l2_ways,
        line_bytes,
        l1_hit_latency,
        l2_latency,
        dram_latency,
        dram_service_q4,
        l2_service_q4,
        max_pending_per_warp,
        mem_partitions,
        mshr_entries,
        dram_queue_entries,
    } = mem;
    for v in [
        l1_bytes,
        l1_ways,
        l2_bytes,
        l2_ways,
        line_bytes,
        l1_hit_latency,
        l2_latency,
        dram_latency,
        dram_service_q4,
        l2_service_q4,
        max_pending_per_warp,
        mem_partitions,
        mshr_entries,
        dram_queue_entries,
    ] {
        h.write_u32(*v);
    }
}

fn hash_op(h: &mut StableHasher, op: Op) {
    match op {
        Op::IAlu => h.write_u64(0),
        Op::IMul => h.write_u64(1),
        Op::FAdd => h.write_u64(2),
        Op::FMul => h.write_u64(3),
        Op::FFma => h.write_u64(4),
        Op::Sfu => h.write_u64(5),
        Op::LdGlobal(p) => {
            h.write_u64(6);
            hash_global_pattern(h, p);
        }
        Op::StGlobal(p) => {
            h.write_u64(7);
            hash_global_pattern(h, p);
        }
        Op::LdShared(p) => {
            h.write_u64(8);
            h.write_u32(p.offset);
            h.write_u32(p.bytes);
        }
        Op::StShared(p) => {
            h.write_u64(9);
            h.write_u32(p.offset);
            h.write_u32(p.bytes);
        }
        Op::Barrier => h.write_u64(10),
        Op::BranchBack {
            target,
            trips,
            loop_id,
        } => {
            h.write_u64(11);
            h.write_u64(u64::from(target));
            h.write_u64(u64::from(trips));
            h.write_u64(u64::from(loop_id));
        }
        Op::Exit => h.write_u64(12),
    }
}

fn hash_instr(h: &mut StableHasher, i: &Instr) {
    hash_op(h, i.op);
    h.write_opt_u64(i.dst.map(|r| u64::from(r.0)));
    // Only the valid sources are identity; the padding slots beyond `nsrc`
    // are not observable and must not perturb the key.
    h.write_u64(i.sources().len() as u64);
    for r in i.sources() {
        h.write_u64(u64::from(r.0));
    }
}

fn hash_global_pattern(h: &mut StableHasher, p: GlobalPattern) {
    match p {
        GlobalPattern::Stream => h.write_u64(0),
        GlobalPattern::BlockTile { tile_lines } => {
            h.write_u64(1);
            h.write_u32(tile_lines);
        }
        GlobalPattern::KernelTile { tile_lines } => {
            h.write_u64(2);
            h.write_u32(tile_lines);
        }
        GlobalPattern::Scatter { span_lines, txns } => {
            h.write_u64(3);
            h.write_u32(span_lines);
            h.write_u64(u64::from(txns));
        }
    }
}

/// Fold a kernel's full content into the hasher: name (for generated
/// kernels this is the canonical gen-spec), launch footprint, declaration
/// order, and every instruction.
fn hash_kernel(h: &mut StableHasher, kernel: &Kernel) {
    let Kernel {
        name,
        threads_per_block,
        regs_per_thread,
        smem_per_block,
        grid_blocks,
        program,
        decl_seq,
    } = kernel;
    h.write_bytes(name.as_bytes());
    for v in [
        threads_per_block,
        regs_per_thread,
        smem_per_block,
        grid_blocks,
    ] {
        h.write_u32(*v);
    }
    h.write_u64(decl_seq.len() as u64);
    for s in decl_seq {
        h.write_u64(u64::from(*s));
    }
    let Program { instrs } = program;
    h.write_u64(instrs.len() as u64);
    for i in instrs {
        hash_instr(h, i);
    }
}

/// Fold every field of a run configuration into the hasher.
fn hash_config(h: &mut StableHasher, cfg: &RunConfig) {
    let RunConfig {
        gpu,
        scheduler,
        sharing,
        threshold,
        dyn_throttle,
        reorder_decls,
        fast_forward,
        telemetry,
        watchdog,
        max_cycles,
    } = cfg;
    hash_gpu(h, gpu);
    hash_scheduler(h, *scheduler);
    h.write_u64(match sharing {
        SharingMode::None => 0,
        SharingMode::Registers => 1,
        SharingMode::Scratchpad => 2,
    });
    h.write_f64(threshold.t());
    h.write_bool(*dyn_throttle);
    h.write_bool(*reorder_decls);
    h.write_bool(*fast_forward);
    hash_telemetry(h, *telemetry);
    h.write_opt_u64(*watchdog);
    h.write_u64(*max_cycles);
}

fn hash_telemetry(h: &mut StableHasher, telemetry: Option<TelemetryConfig>) {
    match telemetry {
        None => h.write_u64(0),
        Some(TelemetryConfig {
            capacity,
            sample_every,
        }) => {
            h.write_u64(1);
            h.write_u64(capacity as u64);
            h.write_u64(sample_every);
        }
    }
}

/// The key of a job's spelling: configuration + kernel content. Jobs
/// that spell one machine differently get different job keys.
///
/// The third parameter can only be `None`; it exists solely so the
/// benchmark crate's `job_key(&cfg, &kernel, None)` calls keep compiling.
pub fn job_key(
    cfg: &RunConfig,
    kernel: &Kernel,
    _: Option<std::convert::Infallible>,
) -> ConfigHash {
    let mut h = StableHasher::new();
    hash_config(&mut h, cfg);
    hash_kernel(&mut h, kernel);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grs_workloads::gen::GenSpec;

    fn base() -> (RunConfig, Kernel) {
        (
            RunConfig::baseline_lrr(),
            GenSpec::parse("gen:bursty:7:small").unwrap().build(),
        )
    }

    #[test]
    fn equal_inputs_hash_equal() {
        let (cfg_a, k_a) = base();
        let (cfg_b, k_b) = base();
        assert_eq!(job_key(&cfg_a, &k_a, None), job_key(&cfg_b, &k_b, None));
    }

    #[test]
    fn the_digest_is_pinned() {
        // The key must be stable across processes and releases: the frozen
        // benchmark folds its points with it. A change here is a scheme
        // change and requires bumping KEY_VERSION.
        let (cfg, k) = base();
        let key = job_key(&cfg, &k, None);
        assert_eq!(key, job_key(&cfg, &k, None));
        assert_eq!(format!("{key}").len(), 32, "128-bit hex rendering");
        assert_eq!(format!("{key}"), "1764879f3bd630b954566607fd1a550e");
    }

    #[test]
    fn kernel_content_mutation_changes_the_key() {
        let (cfg, k) = base();
        let mut shrunk = k.clone();
        shrunk.grid_blocks -= 1;
        assert_ne!(
            job_key(&cfg, &k, None),
            job_key(&cfg, &shrunk, None),
            "a shrunk grid is a different job even under the same spec name"
        );
    }
}
