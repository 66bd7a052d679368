//! # grs-workloads — synthetic models of the paper's benchmark suite
//!
//! The paper evaluates on 19 kernels from four suites (GPGPU-Sim, Rodinia,
//! CUDA-SDK, Parboil), split into three sets (Tables II–IV):
//!
//! * **Set-1** ([`set1`]): residency limited by **registers**;
//! * **Set-2** ([`set2`]): residency limited by **scratchpad**;
//! * **Set-3** ([`set3`]): residency limited by max threads or max blocks.
//!
//! We cannot ship the CUDA originals, so each benchmark is a *synthetic
//! model*: a kernel whose launch footprint (threads/block, registers/thread,
//! scratchpad/block) is copied **exactly** from the paper's tables — which
//! makes all occupancy/launch-plan results exact — and whose instruction mix
//! is engineered to reproduce the paper's qualitative description of that
//! benchmark (compute-bound vs memory-bound, working-set pressure on L1/L2,
//! barrier placement, which scratchpad offsets are touched). Each kernel's
//! doc comment records the behavioural contract it implements.

//!
//! Beyond the fixed 19, [`gen`] is a seeded random-kernel generator: named
//! stress-profile families (`gen:<family>:<seed>[:<size>]`) whose kernels
//! are pure functions of their spec — the workload frontend behind the
//! cross-engine differential harness and the `repro run gen:...` CLI.

pub mod gen;
pub mod set1;
pub mod set2;
pub mod set3;
pub mod suite;

pub use gen::{generate, pinned_corpus, Family, GenSpec, SizeClass};
pub use suite::{
    all_benchmarks, benchmark, set1_benchmarks, set2_benchmarks, set3_benchmarks, BenchSet,
};
