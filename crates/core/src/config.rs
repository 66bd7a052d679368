//! Machine configuration (paper Table I).

use serde::{Deserialize, Serialize};

/// Per-SM static limits (paper Table I, per-core rows).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SmConfig {
    /// Register file size in 32-bit registers (Table I: 32768).
    pub registers: u32,
    /// Scratchpad ("shared") memory in bytes (Table I: 16 KB).
    pub scratchpad_bytes: u32,
    /// Maximum resident threads (Table I: 1536).
    pub max_threads: u32,
    /// Maximum resident thread blocks (Table I: 8).
    pub max_blocks: u32,
    /// Warp schedulers per SM (Table I: 2).
    pub schedulers: u32,
}

/// Execution latencies in cycles for each functional class. These follow the
/// GPGPU-Sim GT200-era defaults the paper's Table I machine uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyConfig {
    /// Integer ALU.
    pub ialu: u32,
    /// Integer multiply.
    pub imul: u32,
    /// FP add / mul / fma.
    pub fp: u32,
    /// Special-function unit.
    pub sfu: u32,
    /// Scratchpad access (conflict-free).
    pub scratchpad: u32,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            ialu: 4,
            imul: 8,
            fp: 6,
            sfu: 20,
            scratchpad: 10,
        }
    }
}

/// Memory-hierarchy configuration (paper Table I plus standard GPGPU-Sim
/// timing parameters).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemConfig {
    /// L1 data cache bytes per SM (Table I: 16 KB).
    pub l1_bytes: u32,
    /// L1 associativity.
    pub l1_ways: u32,
    /// Shared L2 bytes (Table I: 768 KB).
    pub l2_bytes: u32,
    /// L2 associativity.
    pub l2_ways: u32,
    /// Cache line / memory transaction size in bytes.
    pub line_bytes: u32,
    /// L1 hit latency (cycles, load-to-use).
    pub l1_hit_latency: u32,
    /// Additional latency for an L1 miss that hits in L2.
    pub l2_latency: u32,
    /// Additional latency for an L2 miss serviced by DRAM (tRCD+tCL+... of
    /// the Table I GDDR3 timing compressed into one constant).
    pub dram_latency: u32,
    /// DRAM service interval in *quarter-cycles* per 128 B transaction once
    /// the pipe saturates (bandwidth model; FR-FCFS row hits are approximated
    /// by this aggregate rate). 4 = one line per cycle ≈ the Table I GDDR3
    /// channels at shader clock.
    pub dram_service_q4: u32,
    /// L2 bank + interconnect service interval in quarter-cycles per
    /// transaction (1 = four lines per cycle across the banked L2).
    pub l2_service_q4: u32,
    /// Maximum in-flight global transactions per warp (MSHR-per-warp limit).
    pub max_pending_per_warp: u32,
    /// Memory partitions: the L2 is sliced into this many line-interleaved
    /// banks, each with its own MSHR table and DRAM channel. Per-bank service
    /// intervals are scaled by this count so the *aggregate* L2 and DRAM
    /// bandwidth stays the same at any partition count. The default is 1 (a
    /// unified L2); `grs-sim`'s `MemoryModel::Event` preset sets Table I's 6.
    pub mem_partitions: u32,
    /// MSHR entries per partition; an L2 miss holds one from issue until its
    /// DRAM fill returns, and a full table back-pressures SM issue. `0` (the
    /// default) = unlimited, which also disables miss merging.
    pub mshr_entries: u32,
    /// Bounded DRAM request-queue entries per partition; a slot is held from
    /// admission until the channel finishes the transaction, and a full queue
    /// back-pressures SM issue. `0` (the default) = unbounded.
    pub dram_queue_entries: u32,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            l1_bytes: 16 * 1024,
            l1_ways: 4,
            l2_bytes: 768 * 1024,
            l2_ways: 8,
            line_bytes: 128,
            l1_hit_latency: 20,
            l2_latency: 180,
            dram_latency: 280,
            dram_service_q4: 2,
            l2_service_q4: 1,
            max_pending_per_warp: 6,
            mem_partitions: 1,
            mshr_entries: 0,
            dram_queue_entries: 0,
        }
    }
}

/// Whole-GPU configuration (paper Table I).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// Number of SMs (Table I: 14 clusters × 1 core).
    pub num_sms: u32,
    /// Per-SM limits.
    pub sm: SmConfig,
    /// Latency table.
    pub lat: LatencyConfig,
    /// Memory hierarchy.
    pub mem: MemConfig,
}

impl GpuConfig {
    /// The exact Table I machine: 14 SMs, 32768 registers and 16 KB
    /// scratchpad per SM, 1536 threads / 8 blocks max, 2 schedulers, 16 KB
    /// L1, 768 KB L2.
    pub fn paper_baseline() -> Self {
        GpuConfig {
            num_sms: 14,
            sm: SmConfig {
                registers: 32768,
                scratchpad_bytes: 16 * 1024,
                max_threads: 1536,
                max_blocks: 8,
                schedulers: 2,
            },
            lat: LatencyConfig::default(),
            mem: MemConfig::default(),
        }
    }

    /// Baseline with doubled register file (64 K registers) — the comparison
    /// machine of paper Fig. 11(a).
    pub fn doubled_registers() -> Self {
        let mut c = Self::paper_baseline();
        c.sm.registers *= 2;
        c
    }

    /// Baseline with doubled scratchpad (32 KB) — paper Fig. 11(b).
    pub fn doubled_scratchpad() -> Self {
        let mut c = Self::paper_baseline();
        c.sm.scratchpad_bytes *= 2;
        c
    }

    /// A small single-SM machine for fast unit tests.
    pub fn tiny() -> Self {
        let mut c = Self::paper_baseline();
        c.num_sms = 1;
        c
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::paper_baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_matches_table_1() {
        let c = GpuConfig::paper_baseline();
        assert_eq!(c.num_sms, 14);
        assert_eq!(c.sm.registers, 32768);
        assert_eq!(c.sm.scratchpad_bytes, 16384);
        assert_eq!(c.sm.max_threads, 1536);
        assert_eq!(c.sm.max_blocks, 8);
        assert_eq!(c.sm.schedulers, 2);
        assert_eq!(c.mem.l1_bytes, 16384);
        assert_eq!(c.mem.l2_bytes, 768 * 1024);
    }

    #[test]
    fn doubled_variants_double_exactly_one_resource() {
        let r = GpuConfig::doubled_registers();
        assert_eq!(r.sm.registers, 65536);
        assert_eq!(r.sm.scratchpad_bytes, 16384);
        let s = GpuConfig::doubled_scratchpad();
        assert_eq!(s.sm.registers, 32768);
        assert_eq!(s.sm.scratchpad_bytes, 32768);
    }
}
