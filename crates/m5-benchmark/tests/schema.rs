//! `BENCHMARK.json` and the command must not drift apart.
//!
//! Runs the command in `--quick` mode on every workload, once per metric
//! set, and checks that every declared metric is emitted with its declared
//! unit and that nothing undeclared is.

use m5_benchmark::Workload;
use std::collections::BTreeMap;
use std::process::Command;

const DECLARATION: &str = include_str!("../../../BENCHMARK.json");

/// The `{...}` entries of the array under `section`. The file keeps one
/// flat object per line.
fn entries(section: &str) -> Vec<&'static str> {
    let start = DECLARATION
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} array"));
    let body = &DECLARATION[start..];
    body[..body.find(']').expect("array closes")]
        .split('{')
        .skip(1)
        .map(|obj| &obj[..obj.find('}').expect("object closes")])
        .collect()
}

/// The string field `key` of an entry.
fn field(entry: &str, key: &str) -> String {
    let rest = entry
        .split(&format!("\"{key}\": \""))
        .nth(1)
        .unwrap_or_else(|| panic!("no {key} in {entry}"));
    rest[..rest.find('"').expect("string closes")].to_string()
}

/// `name -> unit` of every metric in the command's final JSON line, where
/// each renders as `"name": {"value": v, "unit": "u"}`.
fn emitted(stdout: &str) -> BTreeMap<String, String> {
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    let pieces: Vec<&str> = last.split(": {\"value\": ").collect();
    pieces
        .windows(2)
        .map(|w| {
            let name = w[0].rsplit('"').nth(1).expect("name");
            let unit = w[1].split("\"unit\": \"").nth(1).expect("unit");
            (
                name.to_string(),
                unit[..unit.find('"').expect("unit closes")].to_string(),
            )
        })
        .collect()
}

#[test]
fn declared_workloads_are_the_commands() {
    let declared: Vec<String> = entries("workloads")
        .into_iter()
        .map(|e| field(e, "name"))
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(declared, names);
}

#[test]
fn quick_run_emits_exactly_the_declared_metrics() {
    let declared = |section| -> BTreeMap<String, String> {
        entries(section)
            .into_iter()
            .map(|e| (field(e, "name"), field(e, "unit")))
            .collect()
    };
    let sets = [("0", declared("end_to_end")), ("1", declared("per_layer"))];
    let runs: Vec<_> = Workload::ALL
        .iter()
        .flat_map(|w| sets.iter().map(move |(trace, want)| (w, trace, want)))
        .map(|(w, trace, want)| {
            let child = Command::new(env!("CARGO_BIN_EXE_m5-benchmark"))
                .args(["--quick", "--workload", w.name(), "--trace", trace])
                .stdout(std::process::Stdio::piped())
                .spawn()
                .expect("benchmark starts");
            (w, want, child)
        })
        .collect();
    for (w, want, child) in runs {
        let out = child.wait_with_output().expect("benchmark ends");
        assert!(out.status.success(), "{}: {:?}", w.name(), out.status);
        let got = emitted(&String::from_utf8(out.stdout).expect("utf-8"));
        assert_eq!(&got, want, "{}", w.name());
    }
}
