//! Runs the benchmark's smoke mode (every workload on a tiny input) and
//! checks its report against `BENCHMARK.json` and `predictions.json`.

use std::collections::BTreeSet;
use std::process::Command;

use gluon_metrics::json::Json;

fn read_json(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e:?}"))
}

fn names<'a>(list: &'a Json, key: &str) -> Vec<&'a str> {
    list.items()
        .expect("a JSON list")
        .iter()
        .map(|item| item.get(key).and_then(Json::as_str).expect("a name"))
        .collect()
}

fn benchmark() -> Json {
    read_json(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
}

#[test]
fn smoke_mode_reports_every_metric_with_its_unit() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        .output()
        .expect("run perfbench --smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke mode failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bench = benchmark();
    let workloads = names(bench.get("workloads").unwrap(), "name");
    let metrics: Vec<(&str, &str)> = ["end_to_end", "per_layer"]
        .iter()
        .flat_map(|section| bench.get(section).unwrap().items().unwrap())
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap(),
                m.get("unit").and_then(Json::as_str).unwrap(),
            )
        })
        .collect();
    let reports: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).expect("a JSON report line"))
        .collect();
    let reported: Vec<&str> = reports
        .iter()
        .map(|r| r.get("workload").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(reported, workloads);
    for report in &reports {
        let workload = report.get("workload").and_then(Json::as_str).unwrap();
        assert_eq!(report.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(report.get("failed").and_then(Json::as_u64), Some(0));
        assert!(report.get("attempted").and_then(Json::as_u64).unwrap() > 0);
        let values = report.get("metrics").unwrap();
        assert_eq!(
            values.fields().unwrap().len(),
            metrics.len(),
            "{workload}: reports exactly the metrics of BENCHMARK.json"
        );
        for &(name, unit) in &metrics {
            let m = values
                .get(name)
                .unwrap_or_else(|| panic!("{workload}: {name} not reported"));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(unit),
                "{workload}: unit of {name}"
            );
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{workload}: {name} has no numeric value"
            );
        }
        assert_eq!(
            values
                .get("trace.dropped_spans")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0),
            "{workload}"
        );
    }
}

#[test]
fn every_per_layer_metric_has_a_prediction() {
    let bench = benchmark();
    let workloads: BTreeSet<&str> = names(bench.get("workloads").unwrap(), "name")
        .into_iter()
        .collect();
    let end_to_end: BTreeSet<&str> = names(bench.get("end_to_end").unwrap(), "name")
        .into_iter()
        .collect();
    let predictions = read_json(concat!(env!("CARGO_MANIFEST_DIR"), "/predictions.json"));
    let predicted = names(&predictions, "metric");
    assert_eq!(
        predicted,
        names(bench.get("per_layer").unwrap(), "name"),
        "predictions.json lists the per-layer metrics of BENCHMARK.json, in order"
    );
    for p in predictions.items().unwrap() {
        let metric = p.get("metric").and_then(Json::as_str).unwrap();
        let list = |key: &str| names_in(p.get(key).unwrap_or_else(|| panic!("{metric}: no {key}")));
        for m in list("moves") {
            assert!(
                end_to_end.contains(m),
                "{metric}: unknown end-to-end metric {m}"
            );
        }
        for w in list("on").into_iter().chain(list("not_on")) {
            assert!(workloads.contains(w), "{metric}: unknown workload {w}");
        }
        assert!(
            p.get("why").and_then(Json::as_str).is_some(),
            "{metric}: no why"
        );
    }
}

fn names_in(list: &Json) -> Vec<&str> {
    list.items()
        .expect("a JSON list")
        .iter()
        .map(|s| s.as_str().expect("a string"))
        .collect()
}
