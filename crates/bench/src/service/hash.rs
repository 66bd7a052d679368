//! Canonical content hashing of sweep jobs.
//!
//! The sweep service keys a job on the machine it builds: [`machine_key`]
//! folds the [`Machine`] that
//! [`Simulator::prepare`](grs_sim::Simulator::prepare) resolves a
//! `(RunConfig, Kernel)` pair to into a stable 128-bit [`ConfigHash`].
//! Each simulation is a pure function of its `Machine` (the determinism
//! suites pin this bit-for-bit), so two jobs with equal machine keys
//! *must* produce identical [`grs_sim::RunReport`]s — which is what makes
//! exact memoization sound. Keying the machine rather than the spelling
//! merges configurations that cannot change the simulation: a plan
//! without shared pairs runs the unshared machine whatever its sharing
//! resource, threshold, throttle or reorder flag, and a threshold or
//! declaration order that gives the same plan and the same
//! per-instruction shared flags builds the same machine.
//!
//! [`job_key`] keys the spelling: every semantic field of the
//! `RunConfig` and the kernel. The service uses it only for a job whose
//! preparation fails (there is no machine to key); the frozen benchmark
//! folds its submissions into points with it, so its digest is pinned.
//! The two keys live in separate domains ([`MACHINE_DOMAIN`]).
//!
//! Design rules:
//!
//! * **Exhaustive destructuring.** Every struct walked here is taken apart
//!   with a full pattern (`let Machine { gpu, kinfo, .. } = m` with
//!   *no* `..`), so adding a field to any input type is a compile error at
//!   this file until the new field is either hashed or consciously skipped
//!   (bound to `_` with the reason beside it). A field silently missing
//!   from the key would let memoization serve the wrong result; a compile
//!   error is the cheap way to make that impossible.
//! * **Hash what the machine reads.** The machine key hashes each
//!   instruction's `InstrMeta` (op, destination, operand mask,
//!   transaction count, classification flags) in place of the program,
//!   the declaration order and the threshold: the launch plan and those
//!   flags are their only effects. The kernel name stays in the key,
//!   conservatively, so tests can make a kernel unique by its name.
//! * **Observation knobs are semantic.** Even knobs proven
//!   stats-invariant (`fast_forward`, `telemetry`) are hashed: the
//!   memoized artifact is the whole `RunReport`, telemetry included, and
//!   that *does* depend on the knobs. Keying conservatively costs a
//!   re-simulation; keying loosely could hand a telemetry-less report to a
//!   telemetry-on submission.
//! * **Stable by construction.** The mixing function is a fixed SplitMix64
//!   chain over two lanes — no `std::hash` machinery whose output may
//!   change across releases — so keys are reproducible across processes
//!   and platforms, and the pinned discrimination tests in
//!   `tests/sweep_service.rs` stay meaningful.
//!
//! Both keys hash the kernel's content, not only its name. Generated
//! kernels (`gen:<family>:<seed>:<size>`) need no special case — their
//! name is the canonical spec and their content is a pure function of it —
//! but the content hash additionally protects against post-generation
//! mutation (e.g. `shrink_grid` for `--quick` runs), which a spec-only key
//! would alias.

use grs_core::{
    GpuConfig, LatencyConfig, LaunchPlan, MemConfig, ResourceKind, SchedulerKind, SmConfig,
};
use grs_isa::{GlobalPattern, Instr, Kernel, Op, Program};
use grs_sim::kinfo::{InstrMeta, KernelInfo};
use grs_sim::{Machine, RunConfig, SharingMode, TelemetryConfig};

/// Bump when the hashing scheme itself changes (field order, encoding), so
/// persisted keys from an older scheme can never alias a newer one.
const KEY_VERSION: u64 = 4;

/// The first word a [`machine_key`] hashes after the version. Every
/// [`job_key`] starts with a `u32`-widened word (`num_sms`), and this one
/// is above `u32::MAX`, so a machine key and a job key never hash the same
/// word sequence.
pub const MACHINE_DOMAIN: u64 = 0x4D41_4348_494E_4531; // "MACHINE1"

/// Canonical 128-bit identity of a sweep job. Equal keys mean equal
/// simulation inputs; the service's memo store and in-flight table are both
/// indexed by this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigHash([u64; 2]);

impl ConfigHash {
    /// The raw 128 bits, high lane first.
    pub fn to_u128(self) -> u128 {
        (u128::from(self.0[0]) << 64) | u128::from(self.0[1])
    }
}

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
pub fn hash_kernel(h: &mut StableHasher, kernel: &Kernel) {
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
pub fn hash_config(h: &mut StableHasher, cfg: &RunConfig) {
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
/// that spell one machine differently get different job keys; the
/// service keys on [`machine_key`] instead, and on this only for a job
/// whose preparation fails.
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

/// Fold what the simulator reads of a prepared kernel into the hasher.
fn hash_kernel_info(h: &mut StableHasher, kinfo: &KernelInfo) {
    let KernelInfo {
        kernel,
        warps_per_block,
        threads_in_warp,
        // The threshold's boundaries: read only through the per-instruction
        // shared flags in `meta`.
        private_regs: _,
        private_smem: _,
        meta,
        num_loops,
    } = kinfo;
    let Kernel {
        name,
        threads_per_block,
        regs_per_thread,
        smem_per_block,
        grid_blocks,
        // Read only through `meta`, which holds one entry per instruction
        // with its op, destination and operand mask.
        program: _,
        // Read only through the shared-register flags in `meta` (the plan
        // depends on the footprint alone).
        decl_seq: _,
    } = kernel;
    h.write_bytes(name.as_bytes());
    for v in [
        threads_per_block,
        regs_per_thread,
        smem_per_block,
        grid_blocks,
        warps_per_block,
    ] {
        h.write_u32(*v);
    }
    h.write_u64(threads_in_warp.len() as u64);
    for t in threads_in_warp {
        h.write_u32(*t);
    }
    h.write_u64(*num_loops as u64);
    h.write_u64(meta.len() as u64);
    for m in meta {
        let InstrMeta {
            op_mask,
            op,
            dst,
            mem_txns,
            flags,
        } = m;
        hash_op(h, *op);
        h.write_u64(*op_mask);
        h.write_u64(u64::from(*dst) | u64::from(*mem_txns) << 16 | u64::from(*flags) << 24);
    }
}

/// The canonical key of a sweep job: the machine
/// [`Simulator::prepare`](grs_sim::Simulator::prepare) builds for it.
/// Equal keys mean equal machines, and equal machines report
/// bit-identical [`grs_sim::RunReport`]s.
pub fn machine_key(m: &Machine) -> ConfigHash {
    let Machine {
        gpu,
        kinfo,
        plan,
        scheduler,
        dyn_throttle,
        sharing,
        fast_forward,
        telemetry,
        watchdog,
        max_cycles,
    } = m;
    let LaunchPlan {
        unshared,
        shared_pairs,
        max_blocks,
        // Reported alongside the plan, never read by the machine.
        baseline_blocks: _,
        // The machine reads `sharing` below instead.
        resource: _,
    } = plan;
    let mut h = StableHasher::new();
    h.write_u64(MACHINE_DOMAIN);
    hash_gpu(&mut h, gpu);
    hash_kernel_info(&mut h, kinfo);
    for v in [unshared, shared_pairs, max_blocks] {
        h.write_u32(*v);
    }
    hash_scheduler(&mut h, *scheduler);
    h.write_bool(*dyn_throttle);
    h.write_u64(match sharing {
        None => 0,
        Some(ResourceKind::Registers) => 1,
        Some(ResourceKind::Scratchpad) => 2,
    });
    h.write_bool(*fast_forward);
    hash_telemetry(&mut h, *telemetry);
    h.write_opt_u64(*watchdog);
    h.write_u64(*max_cycles);
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
        // The key must be stable across processes and releases: a change
        // here is a memo-format break and requires bumping KEY_VERSION.
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
