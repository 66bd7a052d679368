//! Benchmark registry: lookup by name and per-set enumeration.

use grs_isa::Kernel;

use crate::{set1, set2, set3};

/// Which paper table a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchSet {
    /// Table II — register-limited.
    Set1,
    /// Table III — scratchpad-limited.
    Set2,
    /// Table IV — thread/block-limited.
    Set3,
}

/// Set-1 benchmarks in the paper's figure order.
pub fn set1_benchmarks() -> Vec<Kernel> {
    vec![
        set1::backprop(),
        set1::btree(),
        set1::hotspot(),
        set1::lib(),
        set1::mum(),
        set1::mri_q(),
        set1::sgemm(),
        set1::stencil(),
    ]
}

/// Short display names for Set-1, matching the paper's x-axis labels.
pub const SET1_NAMES: [&str; 8] = [
    "backprop", "b+tree", "hotspot", "LIB", "MUM", "mri-q", "sgemm", "stencil",
];

/// Set-2 benchmarks in the paper's figure order.
pub fn set2_benchmarks() -> Vec<Kernel> {
    vec![
        set2::conv1(),
        set2::conv2(),
        set2::lavamd(),
        set2::nw1(),
        set2::nw2(),
        set2::srad1(),
        set2::srad2(),
    ]
}

/// Short display names for Set-2.
pub const SET2_NAMES: [&str; 7] = ["CONV1", "CONV2", "lavaMD", "NW1", "NW2", "SRAD1", "SRAD2"];

/// Set-3 benchmarks in the paper's figure order.
pub fn set3_benchmarks() -> Vec<Kernel> {
    vec![
        set3::backprop_layerforward(),
        set3::bfs(),
        set3::gaussian(),
        set3::nn(),
    ]
}

/// Short display names for Set-3.
pub const SET3_NAMES: [&str; 4] = ["backprop", "BFS", "gaussian", "NN"];

/// All 19 benchmarks with their set tags.
pub fn all_benchmarks() -> Vec<(BenchSet, Kernel)> {
    set1_benchmarks()
        .into_iter()
        .map(|k| (BenchSet::Set1, k))
        .chain(set2_benchmarks().into_iter().map(|k| (BenchSet::Set2, k)))
        .chain(set3_benchmarks().into_iter().map(|k| (BenchSet::Set3, k)))
        .collect()
}

/// Look a benchmark up by its short display name (case-insensitive), or —
/// for names starting with `gen:` — build the generated kernel named by the
/// spec (`gen:<family>:<seed>[:<size>]`, see [`crate::gen`]). Set-3's
/// `backprop` is distinguished as `backprop-lf`.
pub fn benchmark(name: &str) -> Option<Kernel> {
    let n = name.to_ascii_lowercase();
    if n.starts_with("gen:") {
        return crate::gen::GenSpec::parse(&n).ok().map(|s| s.build());
    }
    let k = match n.as_str() {
        "backprop" => set1::backprop(),
        "b+tree" | "btree" => set1::btree(),
        "hotspot" => set1::hotspot(),
        "lib" => set1::lib(),
        "mum" => set1::mum(),
        "mri-q" | "mriq" => set1::mri_q(),
        "sgemm" => set1::sgemm(),
        "stencil" => set1::stencil(),
        "conv1" => set2::conv1(),
        "conv2" => set2::conv2(),
        "lavamd" => set2::lavamd(),
        "nw1" => set2::nw1(),
        "nw2" => set2::nw2(),
        "srad1" => set2::srad1(),
        "srad2" => set2::srad2(),
        "backprop-lf" => set3::backprop_layerforward(),
        "bfs" => set3::bfs(),
        "gaussian" => set3::gaussian(),
        "nn" => set3::nn(),
        _ => return None,
    };
    Some(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_19() {
        assert_eq!(all_benchmarks().len(), 19);
        assert_eq!(set1_benchmarks().len(), SET1_NAMES.len());
        assert_eq!(set2_benchmarks().len(), SET2_NAMES.len());
        assert_eq!(set3_benchmarks().len(), SET3_NAMES.len());
    }

    #[test]
    fn lookup_by_name() {
        for name in SET1_NAMES
            .iter()
            .chain(&SET2_NAMES)
            .chain(&["bfs", "gaussian", "nn"])
        {
            assert!(benchmark(name).is_some(), "{name}");
        }
        assert!(benchmark("backprop-lf").is_some());
        assert!(benchmark("nope").is_none());
    }

    #[test]
    fn lookup_routes_generator_specs() {
        let k = benchmark("gen:mshr-thrash:42:small").expect("gen spec resolves");
        assert_eq!(k.name, "gen:mshr-thrash:42:small");
        // Same spec → identical kernel (the generator is pure).
        assert_eq!(benchmark("gen:mshr-thrash:42:small"), Some(k));
        // Size defaults to small; case-insensitive like the fixed names.
        assert_eq!(
            benchmark("gen:bursty:7"),
            benchmark("GEN:Bursty:7:SMALL"),
            "default size + case folding"
        );
        assert!(benchmark("gen:nope:1").is_none());
        assert!(benchmark("gen:bursty:notanumber").is_none());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = all_benchmarks()
            .iter()
            .map(|(_, k)| k.name.clone())
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 19);
    }
}
