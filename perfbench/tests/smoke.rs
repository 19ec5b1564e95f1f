//! A tiny-length run of every workload, untraced and traced, checking the
//! result line against the metric catalogue in `BENCHMARK.json`.

use std::path::Path;
use std::process::Command;

use tv_serve::json::Json;

const WORKLOADS: [&str; 4] = ["paper_regen", "serve_cold", "serve_hits", "campaign_procs"];

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in section `key` of `BENCHMARK.json`.
fn catalogue(doc: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = doc.as_obj().and_then(|o| o.get(key)) else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    items
        .iter()
        .map(|m| {
            let o = m.as_obj().expect("metric object");
            let s = |k: &str| o[k].as_str().expect("string field").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.05"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: result line {last:?}: {e}"))
}

#[test]
fn every_workload_reports_every_catalogue_metric_with_its_unit() {
    let doc = benchmark_json();
    let names: Vec<String> = match doc.as_obj().and_then(|o| o.get("workloads")) {
        Some(Json::Arr(w)) => w
            .iter()
            .map(|w| {
                w.as_obj().expect("workload")["name"]
                    .as_str()
                    .expect("name")
                    .to_string()
            })
            .collect(),
        _ => panic!("BENCHMARK.json has no workloads"),
    };
    // serve_cold runs here but is not gated in BENCHMARK.json (README).
    assert!(
        names.iter().all(|n| WORKLOADS.contains(&n.as_str())),
        "{names:?}"
    );
    for workload in WORKLOADS {
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let result = run(workload, trace);
            let obj = result.as_obj().expect("result object");
            let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(
                obj["correct"].as_bool(),
                Some(true),
                "{workload} --trace {trace}"
            );
            assert!(
                obj["attempted"].as_u64().is_some_and(|n| n >= 1),
                "{workload}"
            );
            assert_eq!(obj["failed"].as_u64(), Some(0), "{workload}");
            let metrics = obj["metrics"].as_obj().expect("metrics object");
            let want = catalogue(&doc, section);
            assert_eq!(metrics.len(), want.len(), "{workload} --trace {trace}");
            for (name, unit) in want {
                let m = metrics
                    .get(&name)
                    .and_then(Json::as_obj)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}"));
                assert_eq!(m["unit"].as_str(), Some(unit.as_str()), "{workload} {name}");
                let value = m["value"].as_f64().unwrap_or(f64::NAN);
                assert!(value.is_finite(), "{workload} {name} = {value}");
                if trace == 0 {
                    assert!(value > 0.0, "{workload}: end-to-end {name} must not be 0");
                }
            }
        }
    }
}
