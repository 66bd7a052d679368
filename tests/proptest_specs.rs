//! Hostile scenario specs: `workloads::benchmark` resolves whatever
//! `repro run <spec>` and `repro inspect=<spec>` pass it, so it must never
//! panic. Every string either names no kernel (`None`) or names one that
//! passes `grs_isa::validate`.
//!
//! Specs are built from the fragments a real spec is made of — `gen`, `:`,
//! family and size names, seeds (past `u64::MAX` too) — mixed with empty
//! parts and junk, so that both the valid and the nearly valid spellings
//! come up.

use gpu_resource_sharing::isa::validate;
use gpu_resource_sharing::prelude::*;
use proptest::prelude::*;
use workloads::gen::{Family, SizeClass};

/// One component of a spec: a real name, a number or junk.
fn fragment() -> impl Strategy<Value = String> {
    let mut words: Vec<&'static str> = vec![
        "gen",
        "GEN",
        "Gen",
        "",
        ":",
        "hotspot",
        "b+tree",
        "BTREE",
        "backprop-lf",
        "huge",
        "-1",
        "+7",
        "0x2a",
        " 42",
        "4.2",
        "1e3",
        "18446744073709551615",
        "18446744073709551616",
        "340282366920938463463374607431768211456",
        "\u{e9}",
        "\0",
    ];
    words.extend(Family::ALL.map(Family::name));
    words.extend(SizeClass::ALL.map(SizeClass::name));
    prop_oneof![
        (0..words.len()).prop_map(move |i| words[i].to_string()),
        (0u64..u64::MAX).prop_map(|n| n.to_string()),
        (0u64..1000).prop_map(|n| n.to_string()),
    ]
}

/// A real value for one spec component or, one time in three, a
/// fragment in its place.
fn slot(real: impl Strategy<Value = String> + 'static) -> impl Strategy<Value = String> {
    let real = real.boxed();
    prop_oneof![real.clone(), real, fragment()]
}

/// `gen:<family>:<seed>[:<size>]` with any component possibly replaced
/// and junk possibly appended, or zero to six fragments joined by `:`,
/// `::`, nothing or a space.
fn spec() -> impl Strategy<Value = String> {
    let family = (0..Family::ALL.len()).prop_map(|i| Family::ALL[i].name().to_string());
    let seed = (0u64..u64::MAX).prop_map(|n| n.to_string());
    let size = (0..SizeClass::ALL.len()).prop_map(|i| SizeClass::ALL[i].name().to_string());
    let shaped = (
        prop_oneof![
            Just("gen:"),
            Just("gen:"),
            Just("GEN:"),
            Just("gen"),
            Just("")
        ],
        slot(family),
        slot(seed),
        prop_oneof![Just(None), slot(size).prop_map(Some)],
        prop_oneof![Just(None), Just(None), fragment().prop_map(Some)],
    )
        .prop_map(|(prefix, family, seed, size, junk)| {
            let size = size.map(|s| format!(":{s}")).unwrap_or_default();
            let junk = junk.map(|j| format!(":{j}")).unwrap_or_default();
            format!("{prefix}{family}:{seed}{size}{junk}")
        });
    let seps = [":", ":", "::", "", " "];
    let loose =
        proptest::collection::vec((fragment(), 0..seps.len()), 0..7).prop_map(move |parts| {
            let mut spec = String::new();
            for (i, (part, sep)) in parts.into_iter().enumerate() {
                if i > 0 {
                    spec.push_str(seps[sep]);
                }
                spec.push_str(&part);
            }
            spec
        });
    prop_oneof![shaped, loose]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn hostile_specs_name_no_kernel_or_a_valid_one(spec in spec()) {
        if let Some(k) = workloads::benchmark(&spec) {
            let checked = validate(&k);
            prop_assert!(checked.is_ok(), "`{spec}` built an invalid kernel: {checked:?}");
        }
    }
}

#[test]
fn seed_and_size_edges_resolve_exactly() {
    let max = workloads::benchmark("gen:mixed:18446744073709551615:large").expect("u64::MAX");
    assert!(validate(&max).is_ok());
    for spec in [
        "gen:mixed:18446744073709551616",
        "gen:mixed:-1",
        "gen:mixed:",
        "gen::1",
        "gen:mixed:1:small:",
        "gen:mixed:1:huge",
        "gen:",
        "gen",
        "",
    ] {
        assert_eq!(workloads::benchmark(spec), None, "`{spec}`");
    }
}
