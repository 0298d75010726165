//! The benchmark's own tests.  They run real (short) workloads, so run them
//! optimised: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use bvc_perfbench::workload::Workload;
use bvc_perfbench::{run, Options, Outcome, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

/// One short run on a fresh thread, so thread-local solver workspaces start
/// as empty as they do in a fresh benchmark process.
fn outcome(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let options = Options {
        workload,
        seed,
        seconds: 1,
        trace,
    };
    let outcome = std::thread::spawn(move || run(options))
        .join()
        .expect("the run does not panic")
        .expect("generated workloads are admitted");
    assert!(outcome.correct, "{}: {:?}", workload.name(), outcome.notes);
    assert_eq!(outcome.failed, 0);
    outcome
}

/// Per-layer metrics that are counts (or ratios of counts), as opposed to
/// timings: these must repeat exactly at a fixed seed.
fn counts(outcome: &Outcome) -> BTreeMap<&'static str, f64> {
    outcome
        .metrics
        .iter()
        .filter(|(name, unit, _)| {
            (*unit == "count" || *unit == "ratio")
                && !name.starts_with("service.")
                && !name.starts_with("trace.")
        })
        .map(|&(name, _, value)| (name, value))
        .collect()
}

#[test]
fn per_layer_counts_repeat_at_a_fixed_seed() {
    for workload in Workload::ALL {
        let first = counts(&outcome(workload, 11, true));
        let second = counts(&outcome(workload, 11, true));
        assert_eq!(first.len(), 12, "{}", workload.name());
        assert_eq!(first, second, "{}", workload.name());
    }
}

#[test]
fn another_seed_changes_the_inputs_and_every_check_still_holds() {
    for workload in Workload::ALL {
        let a = workload.instance_config(1, 0);
        let b = workload.instance_config(2, 0);
        assert_ne!(a.honest_inputs, b.honest_inputs, "{}", workload.name());
        assert_eq!(
            a.honest_inputs,
            workload.instance_config(1, 0).honest_inputs
        );
        for seed in [1, 2] {
            let result = outcome(workload, seed, false);
            let ok_frac = result
                .metrics
                .iter()
                .find(|(name, _, _)| *name == "checked_ok_frac")
                .map(|&(_, _, value)| value);
            assert_eq!(ok_frac, Some(1.0), "{} seed {seed}", workload.name());
        }
    }
}

/// The `"name"` values of one array of `BENCHMARK.json`, paired with their
/// `"unit"`s where the entries have one.
fn manifest_entries(manifest: &str, key: &str) -> Vec<(String, Option<String>)> {
    let start = manifest
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has {key}"));
    let section = &manifest[start..];
    let section = &section[..section.find(']').expect("the array closes")];
    let string_after = |entry: &str, field: &str| -> Option<String> {
        let at = entry.find(&format!("\"{field}\""))?;
        let rest = &entry[at + field.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = rest[open..].find('"')? + open;
        Some(rest[open..close].to_string())
    };
    section
        .split('{')
        .skip(1)
        .map(|entry| {
            (
                string_after(entry, "name").expect("every entry is named"),
                string_after(entry, "unit"),
            )
        })
        .collect()
}

#[test]
fn printed_metrics_match_the_manifest() {
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits beside the benchmark directory");
    let expect = |table: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
        table
            .iter()
            .map(|(name, unit)| (name.to_string(), Some(unit.to_string())))
            .collect()
    };
    assert_eq!(
        manifest_entries(&manifest, "end_to_end"),
        expect(&END_TO_END)
    );
    assert_eq!(manifest_entries(&manifest, "per_layer"), expect(&PER_LAYER));
    let workloads: Vec<String> = manifest_entries(&manifest, "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    for name in &workloads {
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }

    // The result line names exactly the manifest's metrics, with units.
    let workload = Workload::parse(&workloads[0]).expect("checked above");
    for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let line = outcome(workload, 3, trace).to_json();
        let metrics = &line[line.find("\"metrics\"").expect("metrics key")..];
        let printed = metrics.matches("\"unit\"").count();
        assert_eq!(printed, table.len(), "{line}");
        for (name, unit) in table {
            assert!(
                metrics.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing from {line}"
            );
            assert!(metrics.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
    }
}
