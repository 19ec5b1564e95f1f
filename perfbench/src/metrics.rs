//! The metric catalogue and the run outcome every workload returns.
//!
//! `BENCHMARK.json` lists the same names and units; the smoke test holds
//! the two in step.

use std::collections::BTreeMap;

use tv_serve::json::{escape, Json, Obj};

/// End-to-end metrics, reported by every workload in an untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("first_row_p50_ms", "ms"),
    ("req_per_s", "req/s"),
    ("max_rss_mb", "MB"),
];

/// Spans whose self time a traced run reports as `self.<name>`.
pub const SPANS: [&str; 15] = [
    "job",
    "uarch.build",
    "uarch.warm_up",
    "uarch.run",
    "energy.from_stats",
    "request",
    "serve.parse_spec",
    "core.store_key",
    "serve.store.get",
    "core.run_campaign",
    "core.campaign.cell",
    "serve.store.publish",
    "serve.store.fsck",
    "core.run_campaign_cluster",
    "core.cluster.group",
];

/// Per-layer metrics of a traced run, each with its unit. Every traced run
/// sets every time here (see `probe`); a count a workload has no source
/// for reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("uarch.run_ns_per_cycle", "ns/cycle"),
    ("uarch.run_ns_per_commit", "ns/inst"),
    ("uarch.warmup_ns_per_commit", "ns/inst"),
    ("uarch.build_ms", "ms"),
    ("workloads.trace_ns_per_inst", "ns/inst"),
    ("workloads.riscv_assemble_us", "us"),
    ("core.fleet.overhead_pct", "%"),
    ("core.campaign.cell_ms_p50", "ms"),
    ("core.campaign.first_row_ms", "ms"),
    ("core.campaign.store_key_us", "us"),
    ("core.cluster.first_reply_ms", "ms"),
    ("core.cluster.group_ms_p50", "ms"),
    ("core.cluster.overhead_pct", "%"),
    ("serve.spec.parse_us", "us"),
    ("serve.store.get_us", "us"),
    ("serve.store.publish_ms", "ms"),
    ("serve.store.fsck_ms", "ms"),
    ("serve.http.overhead_us", "us"),
    ("serve.http.healthz_rtt_us", "us"),
    ("uarch.sim_cycles", "count"),
    ("uarch.committed", "count"),
    ("timing.faults", "count"),
    ("tep.faults_predicted", "count"),
    ("tep.false_positives", "count"),
    ("uarch.replays", "count"),
    ("uarch.ep_stall_cycles", "count"),
    ("core.campaign.cells", "count"),
    ("core.campaign.rows_clean", "count"),
    ("core.campaign.control_caught", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("trace.spans", "count"),
    ("trace.untraced_ms", "ms"),
    ("trace.traced_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// Unit of the self-time metrics.
pub const SELF_UNIT: &str = "ms";

/// One named output check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// `None` when the check passed; the failure otherwise.
    pub failure: Option<String>,
}

/// What one benchmark run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (jobs, requests or cells).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks, in the order they ran.
    pub checks: Vec<Check>,
    /// Metric values by name (units come from the catalogue).
    pub values: BTreeMap<String, f64>,
    /// Provenance and supporting facts, printed before the result line.
    pub info: Obj,
}

impl Outcome {
    /// Records check `name`: passed when `failure` is `None`.
    pub fn check(&mut self, name: &str, failure: Option<String>) {
        self.checks.push(Check {
            name: name.to_string(),
            failure,
        });
    }

    /// Records check `name` as a boolean with a failure message.
    pub fn expect(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.check(name, (!ok).then(detail));
    }

    /// Sets metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.failure.is_none())
    }

    /// The checks as a JSON array.
    pub fn checks_json(&self) -> String {
        let items: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                let mut o = Obj::new();
                o.str("check", &c.name).bool("ok", c.failure.is_none());
                if let Some(f) = &c.failure {
                    o.str("failure", f);
                }
                o.render()
            })
            .collect();
        format!("[{}]", items.join(","))
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics of
    /// `catalogue`, each with its unit. A catalogue metric the workload did
    /// not set reads 0.
    pub fn result_line(&self, catalogue: &[(String, &'static str)]) -> String {
        let mut metrics = Obj::new();
        for (name, unit) in catalogue {
            let mut m = Obj::new();
            m.num("value", self.values.get(name).copied().unwrap_or(0.0))
                .str("unit", unit);
            metrics.obj(name, &m);
        }
        let mut o = Obj::new();
        o.bool("correct", self.correct())
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .obj("metrics", &metrics);
        o.render()
    }
}

/// The end-to-end catalogue with owned names.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect()
}

/// The per-layer catalogue: layer metrics, then one self-time metric per
/// traced span name.
pub fn per_layer() -> Vec<(String, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(SPANS.iter().map(|s| (format!("self.{s}"), SELF_UNIT)))
        .collect()
}

/// Field `key` of a JSON object.
///
/// # Errors
///
/// A missing field.
pub fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.as_obj()
        .and_then(|o| o.get(key))
        .ok_or_else(|| format!("program output lacks `{key}`"))
}

/// Numeric field `key`.
///
/// # Errors
///
/// A missing or non-numeric field.
pub fn num(doc: &Json, key: &str) -> Result<f64, String> {
    field(doc, key)?
        .as_f64()
        .ok_or_else(|| format!("`{key}` is not a number"))
}

/// Array field `key` of numbers.
///
/// # Errors
///
/// A missing field or a non-number element.
pub fn nums(doc: &Json, key: &str) -> Result<Vec<f64>, String> {
    match field(doc, key)? {
        Json::Arr(items) => items
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| format!("non-number in `{key}`")))
            .collect(),
        _ => Err(format!("`{key}` is not an array")),
    }
}

/// Array field `key` of strings.
///
/// # Errors
///
/// A missing field or a non-string element.
pub fn strs(doc: &Json, key: &str) -> Result<Vec<String>, String> {
    match field(doc, key)? {
        Json::Arr(items) => items
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("non-string in `{key}`"))
            })
            .collect(),
        _ => Err(format!("`{key}` is not an array")),
    }
}

/// Renders a list of strings as a JSON array.
pub fn str_array<S: AsRef<str>>(items: &[S]) -> String {
    let parts: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", escape(s.as_ref())))
        .collect();
    format!("[{}]", parts.join(","))
}

/// Renders a list of numbers as a JSON array.
pub fn num_array(items: &[f64]) -> String {
    let parts: Vec<String> = items
        .iter()
        .map(|v| {
            if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            }
        })
        .collect();
    format!("[{}]", parts.join(","))
}
