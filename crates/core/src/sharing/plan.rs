//! The launch-count computation of paper Sec. III-C.
//!
//! Given a threshold `t` and a resource with `R` units per SM of which each
//! block needs `Rtb`, the paper launches `U` unshared blocks and `S` shared
//! *pairs* such that
//!
//! ```text
//! (1)  U + S = ⌊R/Rtb⌋            — as many effective blocks as baseline
//! (2)  U·Rtb + S·(1+t)·Rtb ≤ R    — capacity
//! (3)  M = U + 2S                 — resident blocks
//! ```
//!
//! which solves to `S = ⌊(R − ⌊R/Rtb⌋·Rtb) / (t·Rtb)⌋` clamped to `S ≤ ⌊R/Rtb⌋`
//! (a block can share with at most one partner), and the final `M` is further
//! clamped by the max-threads / max-blocks / other-resource constraints of
//! paper Sec. II. When a clamp lowers `M`, pairs are dissolved first (each
//! dissolved pair lowers `M` by one while keeping eq. (1) intact).

use serde::{Deserialize, Serialize};

use crate::config::SmConfig;
use crate::occupancy::occupancy;
use crate::sharing::{KernelFootprint, ResourceKind, Threshold};

/// Per-SM launch plan produced by [`compute_launch_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaunchPlan {
    /// `U`: blocks launched with a full private allocation.
    pub unshared: u32,
    /// `S`: pairs of blocks sharing one `(1+t)·Rtb` allocation.
    pub shared_pairs: u32,
    /// `M = U + 2S`: total resident blocks.
    pub max_blocks: u32,
    /// Baseline (non-sharing) resident blocks for the same kernel, i.e. the
    /// paper's `⌊R/Rtb⌋` intersected with the Sec. II constraints.
    pub baseline_blocks: u32,
    /// Resource this plan shares.
    pub resource: ResourceKind,
}

impl LaunchPlan {
    /// Guaranteed-progress block count: `U + S` (paper: "at least S + U
    /// thread blocks always make progress").
    #[inline]
    pub fn effective_blocks(&self) -> u32 {
        self.unshared + self.shared_pairs
    }

    /// True when the plan degenerates to the baseline (no pairs) — what
    /// happens for Set-3 kernels whose residency is limited by threads or
    /// blocks rather than the shared resource (paper Sec. VI-B2).
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        self.shared_pairs == 0
    }
}

/// Compute the Sec. III-C launch plan for `kernel` on one SM.
///
/// `resource` selects register sharing or scratchpad sharing; the other
/// resource and the thread/block caps act as clamps exactly as in the
/// baseline occupancy computation. The returned plan always satisfies
/// `effective_blocks() ≥ baseline_blocks` (eq. 1) and the capacity bound
/// (eq. 2); both are enforced by unit and property tests.
pub fn compute_launch_plan(
    sm: &SmConfig,
    kernel: &KernelFootprint,
    threshold: Threshold,
    resource: ResourceKind,
) -> LaunchPlan {
    let occ = occupancy(sm, kernel);
    let baseline = occ.blocks;

    let rtb = kernel.per_block(resource);
    let r = match resource {
        ResourceKind::Registers => sm.registers,
        ResourceKind::Scratchpad => sm.scratchpad_bytes,
    };

    // Degenerate cases: kernel does not consume this resource, or cannot fit
    // at all. Sharing adds nothing; everything launches unshared up to the
    // baseline residency.
    if rtb == 0 || rtb > r {
        return LaunchPlan {
            unshared: baseline,
            shared_pairs: 0,
            max_blocks: baseline,
            baseline_blocks: baseline,
            resource,
        };
    }

    // B = ⌊R/Rtb⌋ on the shared resource only.
    let b = r / rtb;

    // Leftover units and S from eq. (2): S ≤ (R − B·Rtb) / (t·Rtb).
    let leftover = r - b * rtb;
    let t = threshold.t();
    // f64 is exact here: register/byte counts are ≤ 2^26, well inside the
    // 53-bit mantissa; a tiny epsilon guards the floor against representation
    // error of t·Rtb.
    let s_capacity = (f64::from(leftover) / (t * f64::from(rtb)) + 1e-9).floor() as u32;
    let s_raw = s_capacity.min(b);

    // Clamps from the remaining Sec. II constraints, applied to M.
    let thread_limit = sm.max_threads / kernel.threads_per_block.max(1);
    let other_limit = match resource {
        ResourceKind::Registers => sm
            .scratchpad_bytes
            .checked_div(kernel.smem_per_block)
            .unwrap_or(u32::MAX),
        ResourceKind::Scratchpad => sm
            .registers
            .checked_div(kernel.regs_per_block())
            .unwrap_or(u32::MAX),
    };
    let m_cap = sm.max_blocks.min(thread_limit).min(other_limit);

    let m = (b + s_raw).min(m_cap);
    let (unshared, shared_pairs) = if m <= b {
        // All pairs dissolved; residency equals the non-sharing limit under
        // the external clamp.
        (m, 0)
    } else {
        let s = m - b;
        (b - s, s)
    };

    LaunchPlan {
        unshared,
        shared_pairs,
        max_blocks: unshared + 2 * shared_pairs,
        baseline_blocks: baseline,
        resource,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn sm() -> SmConfig {
        GpuConfig::paper_baseline().sm
    }

    fn reg_plan(threads: u32, regs: u32, pct: f64) -> LaunchPlan {
        compute_launch_plan(
            &sm(),
            &KernelFootprint {
                threads_per_block: threads,
                regs_per_thread: regs,
                smem_per_block: 0,
            },
            Threshold::from_sharing_pct(pct).unwrap(),
            ResourceKind::Registers,
        )
    }

    fn smem_plan(threads: u32, smem: u32, pct: f64) -> LaunchPlan {
        compute_launch_plan(
            &sm(),
            &KernelFootprint {
                threads_per_block: threads,
                regs_per_thread: 16,
                smem_per_block: smem,
            },
            Threshold::from_sharing_pct(pct).unwrap(),
            ResourceKind::Scratchpad,
        )
    }

    /// Paper Table VI: resident blocks vs %sharing for every Set-1 kernel.
    #[test]
    fn table_vi_register_sharing_block_counts() {
        // (threads, regs, [blocks at 0,10,30,50,70,90 % sharing])
        let rows: &[(&str, u32, u32, [u32; 6])] = &[
            ("backprop", 256, 24, [5, 5, 5, 5, 6, 6]),
            ("b+tree", 508, 24, [2, 2, 2, 3, 3, 3]),
            ("hotspot", 256, 36, [3, 3, 3, 4, 4, 6]),
            ("LIB", 192, 36, [4, 4, 5, 5, 6, 8]),
            ("MUM", 256, 28, [4, 4, 4, 5, 5, 6]),
            ("mri-q", 256, 24, [5, 5, 5, 5, 6, 6]),
            ("sgemm", 128, 48, [5, 5, 5, 5, 6, 8]),
            ("stencil", 512, 28, [2, 2, 2, 2, 2, 3]),
        ];
        let pcts = [0.0, 10.0, 30.0, 50.0, 70.0, 90.0];
        for &(name, threads, regs, expected) in rows {
            for (i, &pct) in pcts.iter().enumerate() {
                let plan = if pct == 0.0 {
                    // 0% sharing = t = 1; the equations give S from leftover/(1·Rtb),
                    // which is 0 by definition of ⌊R/Rtb⌋.
                    reg_plan(threads, regs, 0.0)
                } else {
                    reg_plan(threads, regs, pct)
                };
                assert_eq!(
                    plan.max_blocks, expected[i],
                    "{name} at {pct}% sharing: got {} expected {}",
                    plan.max_blocks, expected[i]
                );
            }
        }
    }

    /// Paper Table VIII: resident blocks vs %sharing for every Set-2 kernel.
    #[test]
    fn table_viii_scratchpad_sharing_block_counts() {
        let rows: &[(&str, u32, u32, [u32; 6])] = &[
            ("CONV1", 64, 2560, [6, 6, 6, 6, 7, 8]),
            ("CONV2", 128, 5184, [3, 3, 3, 3, 3, 4]),
            ("lavaMD", 128, 7200, [2, 2, 2, 2, 2, 4]),
            ("NW1", 16, 2180, [7, 7, 7, 8, 8, 8]),
            ("NW2", 16, 2180, [7, 7, 7, 8, 8, 8]),
            ("SRAD1", 256, 6144, [2, 2, 2, 3, 4, 4]),
            ("SRAD2", 256, 5120, [3, 3, 3, 3, 3, 5]),
        ];
        let pcts = [0.0, 10.0, 30.0, 50.0, 70.0, 90.0];
        for &(name, threads, smem, expected) in rows {
            for (i, &pct) in pcts.iter().enumerate() {
                let plan = smem_plan(threads, smem, pct);
                assert_eq!(
                    plan.max_blocks, expected[i],
                    "{name} at {pct}% sharing: got {} expected {}",
                    plan.max_blocks, expected[i]
                );
            }
        }
    }

    #[test]
    fn worked_example_from_paper_section_iii() {
        // Paper Fig. 2: R = 35K units, Rtb = 10K, t = 0.5 → TB0, TB1 unshared
        // and one shared pair: U = 2, S = 1, M = 4.
        let sm = SmConfig {
            registers: 35_000,
            scratchpad_bytes: 35_000,
            max_threads: 4096,
            max_blocks: 16,
            schedulers: 2,
        };
        let fp = KernelFootprint {
            threads_per_block: 320,
            regs_per_thread: 1, // negligible: scratchpad is the only binding resource
            smem_per_block: 10_000,
        };
        // Use scratchpad so Rtb is exactly 10K.
        let plan = compute_launch_plan(
            &sm,
            &fp,
            Threshold::new(0.5).unwrap(),
            ResourceKind::Scratchpad,
        );
        assert_eq!(plan.unshared, 2);
        assert_eq!(plan.shared_pairs, 1);
        assert_eq!(plan.max_blocks, 4);
        assert_eq!(plan.effective_blocks(), 3);
    }

    #[test]
    fn effective_blocks_never_below_baseline() {
        for regs in [8u32, 16, 24, 36, 48, 63] {
            for threads in [64u32, 128, 192, 256, 512] {
                for pct in [10.0, 30.0, 50.0, 70.0, 90.0] {
                    let p = reg_plan(threads, regs, pct);
                    assert!(
                        p.effective_blocks() >= p.baseline_blocks,
                        "regs={regs} threads={threads} pct={pct}: {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn capacity_bound_eq2_holds() {
        for regs in [20u32, 28, 36, 44] {
            for pct in [10.0, 50.0, 90.0] {
                let t = Threshold::from_sharing_pct(pct).unwrap();
                let fp = KernelFootprint {
                    threads_per_block: 256,
                    regs_per_thread: regs,
                    smem_per_block: 0,
                };
                let p = compute_launch_plan(&sm(), &fp, t, ResourceKind::Registers);
                let rtb = f64::from(fp.regs_per_block());
                let used =
                    f64::from(p.unshared) * rtb + f64::from(p.shared_pairs) * (1.0 + t.t()) * rtb;
                assert!(
                    used <= f64::from(sm().registers) + 1e-6,
                    "{p:?} uses {used}"
                );
            }
        }
    }

    #[test]
    fn zero_resource_kernel_degenerates() {
        let p = smem_plan(128, 0, 90.0);
        assert!(p.is_degenerate());
        assert_eq!(p.max_blocks, p.baseline_blocks);
    }

    #[test]
    fn oversized_block_degenerates() {
        let p = smem_plan(128, 40_000, 90.0); // > 16 KB scratchpad
        assert_eq!(p.max_blocks, 0);
        assert!(p.is_degenerate());
    }

    #[test]
    fn set3_thread_limited_kernel_gets_no_pairs() {
        // Register-light kernel limited by max threads: sharing must not
        // launch anything extra (paper Sec. VI-B2).
        let p = reg_plan(512, 8, 90.0); // reg limit: 32768/4096 = 8, thread limit: 3
        assert_eq!(p.baseline_blocks, 3);
        assert_eq!(p.max_blocks, 3);
        assert!(p.is_degenerate());
    }
}
