//! Drives the benchmark's own command (`BENCHMARK.json`) at `--smoke`
//! scale: every metric the file names is printed once, finite, with its
//! unit; the last line is the result object; the counts repeat exactly.
//!
//! The command builds the release binaries it runs, so the first test
//! to get there pays for that build when it has not been made yet.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use e2ebench::metrics::{MetricDef, END_TO_END, EXACT_COUNTS, PER_LAYER};
use telemetry::Json;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn strings(list: &Json) -> Vec<String> {
    list.as_array()
        .expect("an array")
        .iter()
        .map(|s| s.as_str().expect("a string").to_string())
        .collect()
}

fn names(list: &Json) -> Vec<String> {
    list.as_array()
        .expect("an array")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// One smoke run: the `metric` lines as `name -> (value, unit)` and the
/// parsed last line.
fn smoke(workload: &str, seed: u64, trace: bool) -> (BTreeMap<String, (f64, String)>, Json) {
    let command = strings(benchmark_json().get("command").expect("command"));
    let out = Command::new(&command[0])
        .args(&command[1..])
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            "0.3",
            "--trace",
            if trace { "1" } else { "0" },
            "--smoke",
        ])
        .current_dir(repo_root())
        .output()
        .expect("run the benchmark command");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut printed = BTreeMap::new();
    for line in stdout.lines() {
        let Some(rest) = line.strip_prefix("metric ") else {
            continue;
        };
        let fields: Vec<&str> = rest.split_whitespace().collect();
        assert_eq!(fields.len(), 4, "malformed metric line {line:?}");
        assert_eq!(fields[1], "=");
        let value: f64 = fields[2].parse().expect("a number");
        let old = printed.insert(fields[0].to_string(), (value, fields[3].to_string()));
        assert!(old.is_none(), "{workload}: {} printed twice", fields[0]);
    }
    let last = stdout.lines().last().expect("some output");
    (printed, Json::parse(last).expect("the last line is JSON"))
}

fn check_run(workload: &str, trace: bool, table: &Json) {
    let (printed, result) = smoke(workload, 11, trace);
    let Json::Obj(keys) = &result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .expect("attempted")
            >= 1.0
    );
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    let Some(Json::Obj(in_json)) = result.get("metrics") else {
        panic!("no metrics object")
    };

    let wanted = table.as_array().expect("metric table");
    assert_eq!(printed.len(), wanted.len(), "{workload}: metric count");
    assert_eq!(in_json.len(), wanted.len(), "{workload}: JSON metric count");
    for m in wanted {
        let name = m.get("name").and_then(Json::as_str).expect("name");
        let unit = m.get("unit").and_then(Json::as_str).expect("unit");
        let (value, printed_unit) = printed
            .get(name)
            .unwrap_or_else(|| panic!("{workload} trace={trace}: {name} not printed"));
        assert!(value.is_finite(), "{name} = {value}");
        assert_eq!(printed_unit, unit, "{name}");
        if m.get("bound").is_some() {
            assert!(*value > 0.0, "{workload}: end-to-end {name} = {value}");
        }
        let entry = result
            .get("metrics")
            .and_then(|ms| ms.get(name))
            .expect("in JSON");
        assert_eq!(
            entry.get("value").and_then(Json::as_f64),
            Some(*value),
            "{name}"
        );
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(unit),
            "{name}"
        );
    }
}

#[test]
fn every_workload_prints_every_metric_once_with_its_unit() {
    let bench = benchmark_json();
    for workload in names(bench.get("workloads").expect("workloads")) {
        check_run(
            &workload,
            false,
            bench.get("end_to_end").expect("end_to_end"),
        );
        check_run(&workload, true, bench.get("per_layer").expect("per_layer"));
    }
}

#[test]
fn count_metrics_repeat_exactly_for_a_fixed_seed() {
    for workload in e2ebench::WORKLOADS {
        let (first, _) = smoke(workload, 5, true);
        let (second, _) = smoke(workload, 5, true);
        for name in EXACT_COUNTS {
            assert_eq!(first[*name].0, second[*name].0, "{workload}: {name}");
        }
    }
}

#[test]
fn benchmark_json_and_the_metric_tables_agree() {
    let bench = benchmark_json();
    assert_eq!(
        names(bench.get("workloads").expect("workloads")),
        e2ebench::WORKLOADS
    );
    assert_eq!(
        strings(bench.get("paths").expect("paths")),
        ["crates/e2ebench"]
    );
    let check = |key: &str, defs: &[MetricDef]| {
        let table = bench
            .get(key)
            .and_then(Json::as_array)
            .expect("a metric table");
        assert_eq!(table.len(), defs.len(), "{key}");
        for (m, def) in table.iter().zip(defs) {
            let text = |k: &str| m.get(k).and_then(Json::as_str).expect("a string");
            assert_eq!(text("name"), def.name);
            assert_eq!(text("unit"), def.unit, "{}", def.name);
            assert_eq!(text("better"), def.better.name(), "{}", def.name);
            let bound = m.get("bound").and_then(Json::as_f64);
            assert_eq!(bound, def.bound, "{}", def.name);
        }
    };
    check("end_to_end", END_TO_END);
    check("per_layer", PER_LAYER);
    for name in EXACT_COUNTS {
        assert!(PER_LAYER.iter().any(|d| d.name == *name), "{name}");
    }
}
