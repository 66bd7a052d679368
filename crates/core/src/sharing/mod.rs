//! Resource sharing: launch-plan arithmetic, the pair lock, ownership.
//!
//! This module implements paper Sec. III (the sharing mechanism and the
//! launch-count equations) and the ownership machinery of Sec. IV.

mod locks;
mod plan;

pub use locks::{PairLock, PairMember};
pub use plan::{compute_launch_plan, LaunchPlan};

use serde::{Deserialize, Serialize};

/// Which SM resource a sharing configuration targets. The paper evaluates
/// both, separately (register sharing on Set-1, scratchpad sharing on Set-2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ResourceKind {
    /// Register-file sharing (paper Sec. III-A).
    Registers,
    /// Scratchpad (shared-memory) sharing (paper Sec. III-B).
    Scratchpad,
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ResourceKind::Registers => "registers",
            ResourceKind::Scratchpad => "scratchpad",
        })
    }
}

/// The sharing threshold `t`, `0 < t ≤ 1` (paper Sec. III-C, notation 6).
///
/// A shared pair of blocks is allocated `(1+t)·Rtb` units: `t·Rtb` private to
/// each member, `(1−t)·Rtb` shared. The *percentage of sharing* the paper
/// quotes is `(1−t)·100` — so the headline "90% sharing" configuration is
/// `t = 0.1`, and `t = 1` degenerates to no sharing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Threshold(f64);

impl Threshold {
    /// Construct a threshold; `t` must satisfy `0 < t ≤ 1`.
    pub fn new(t: f64) -> Result<Self, ThresholdError> {
        if t > 0.0 && t <= 1.0 && t.is_finite() {
            Ok(Threshold(t))
        } else {
            Err(ThresholdError(t))
        }
    }

    /// Construct from a sharing percentage (`90` → `t = 0.1`). `pct` must be
    /// in `[0, 100)`.
    pub fn from_sharing_pct(pct: f64) -> Result<Self, ThresholdError> {
        Self::new(1.0 - pct / 100.0)
    }

    /// The raw `t` value.
    #[inline]
    pub fn t(self) -> f64 {
        self.0
    }

    /// Sharing percentage `(1−t)·100` as reported in paper Tables V–VIII.
    #[inline]
    pub fn sharing_pct(self) -> f64 {
        (1.0 - self.0) * 100.0
    }

    /// The paper's headline configuration: `t = 0.1`, i.e. 90% sharing
    /// ("For all our experimental results, we use the threshold value as
    /// 0.1, unless otherwise specified", Sec. VI-A).
    pub fn paper_default() -> Self {
        Threshold(0.1)
    }

    /// Private units per member out of a per-block requirement `rtb`:
    /// `⌊t·Rtb⌋`. Units at or below this boundary are accessed lock-free.
    #[inline]
    pub fn private_units(self, rtb: u32) -> u32 {
        (self.0 * f64::from(rtb)).floor() as u32
    }
}

impl std::fmt::Display for Threshold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t={} ({:.0}% sharing)", self.0, self.sharing_pct())
    }
}

/// Error for out-of-domain thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdError(pub f64);

impl std::fmt::Display for ThresholdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "threshold t must satisfy 0 < t ≤ 1, got {}", self.0)
    }
}

impl std::error::Error for ThresholdError {}

/// The launch footprint of a kernel — the only kernel properties occupancy
/// and launch planning depend on (the columns of paper Tables II–IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KernelFootprint {
    /// Threads per block.
    pub threads_per_block: u32,
    /// Registers per thread.
    pub regs_per_thread: u32,
    /// Scratchpad bytes per block.
    pub smem_per_block: u32,
}

impl KernelFootprint {
    /// Extract the footprint of an ISA kernel.
    pub fn of(kernel: &grs_isa::Kernel) -> Self {
        KernelFootprint {
            threads_per_block: kernel.threads_per_block,
            regs_per_thread: kernel.regs_per_thread,
            smem_per_block: kernel.smem_per_block,
        }
    }

    /// `Rtb` for the register resource, saturating at `u32::MAX` (more
    /// than any SM holds).
    #[inline]
    pub fn regs_per_block(&self) -> u32 {
        self.regs_per_thread.saturating_mul(self.threads_per_block)
    }

    /// Per-block requirement of `kind` in that resource's units.
    #[inline]
    pub fn per_block(&self, kind: ResourceKind) -> u32 {
        match kind {
            ResourceKind::Registers => self.regs_per_block(),
            ResourceKind::Scratchpad => self.smem_per_block,
        }
    }

    /// Warps per block.
    #[inline]
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block.div_ceil(grs_isa::WARP_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_domain() {
        assert!(Threshold::new(0.1).is_ok());
        assert!(Threshold::new(1.0).is_ok());
        assert!(Threshold::new(0.0).is_err());
        assert!(Threshold::new(-0.5).is_err());
        assert!(Threshold::new(1.5).is_err());
        assert!(Threshold::new(f64::NAN).is_err());
    }

    #[test]
    fn sharing_pct_roundtrip() {
        let t = Threshold::from_sharing_pct(90.0).unwrap();
        assert!((t.t() - 0.1).abs() < 1e-12);
        assert!((t.sharing_pct() - 90.0).abs() < 1e-12);
        assert_eq!(Threshold::paper_default().t(), 0.1);
    }

    #[test]
    fn private_units_floor() {
        let t = Threshold::new(0.1).unwrap();
        // hotspot: Rtb = 9216 → 921 private units per member.
        assert_eq!(t.private_units(9216), 921);
        // Rw for a 36-reg warp: 1152 → 115 private registers.
        assert_eq!(t.private_units(1152), 115);
    }

    #[test]
    fn footprint_arithmetic() {
        let f = KernelFootprint {
            threads_per_block: 256,
            regs_per_thread: 36,
            smem_per_block: 1024,
        };
        assert_eq!(f.regs_per_block(), 9216);
        assert_eq!(f.per_block(ResourceKind::Registers), 9216);
        assert_eq!(f.per_block(ResourceKind::Scratchpad), 1024);
        assert_eq!(f.warps_per_block(), 8);
        let huge = KernelFootprint {
            regs_per_thread: u32::MAX,
            ..f
        };
        assert_eq!(huge.regs_per_block(), u32::MAX);
    }
}
