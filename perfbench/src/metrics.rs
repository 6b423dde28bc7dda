//! The metric tables — the single source of `BENCHMARK.json` (printed by
//! `--manifest`, pinned by a test) and of the result line's key set.

use std::collections::BTreeMap;
use std::fmt::Write;

use crate::workload;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Wall-clock timings, compared within `bound` by `--agree`; the rest
    /// must repeat exactly under fixed work.
    pub timed: bool,
}

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 16;

/// Bounds are sized to the reference host (README, "Steadiness"): a 2-core
/// VM whose run-to-run spread on every timing is 3-7% in a quiet quarter of
/// an hour and up to 20% in a noisy one, whatever the statistic.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("ttft_ms_p50", "ms", "lower", 0.25, true),
    e2e("ttft_ms_p90", "ms", "lower", 0.25, true),
    e2e("tpot_ms_p50", "ms", "lower", 0.25, true),
    e2e("tpot_ms_p95", "ms", "lower", 0.25, true),
    e2e("tokens_per_s", "1/s", "higher", 0.25, true),
    e2e("slo_attainment", "ratio", "higher", 0.10, true),
    e2e("attn_fidelity", "ratio", "higher", 0.05, false),
    e2e("peak_rss_mb", "MB", "lower", 0.20, true),
    e2e("setup_s", "s", "lower", 0.25, true),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    timed: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        timed,
    }
}

/// `(name, unit, better)`; the crate prefix names the layer.
pub const PER_LAYER: [(&str, &str, &str); 45] = [
    ("serve.attend_us_p50", "us", "lower"),
    ("serve.attend_us_p99", "us", "lower"),
    ("serve.admit_us_p50", "us", "lower"),
    ("serve.close_us_p50", "us", "lower"),
    ("serve.store_ms_p50", "ms", "lower"),
    ("serve.queue_us_p50", "us", "lower"),
    ("serve.plan_us_p50", "us", "lower"),
    ("serve.exec_us_p50", "us", "lower"),
    ("serve.batch_size_mean", "count", "higher"),
    ("serve.shared_plan_ratio", "ratio", "higher"),
    ("serve.shed", "count", "lower"),
    ("serve.rejected", "count", "lower"),
    ("serve.service_tax", "ratio", "lower"),
    ("llm.forward_self_us_p50", "us", "lower"),
    ("core.attend_full_us_p50", "us", "lower"),
    ("core.attend_dipr_flat_us_p50", "us", "lower"),
    ("core.attend_dipr_fine_us_p50", "us", "lower"),
    ("core.attend_topk_coarse_us_p50", "us", "lower"),
    ("core.attend_filtered_us_p50", "us", "lower"),
    ("core.create_session_us_p50", "us", "lower"),
    ("core.n_contexts", "count", "lower"),
    ("core.store_ms_p50", "ms", "lower"),
    ("core.store_tokens_per_s", "1/s", "higher"),
    ("query.diprs_us_p50", "us", "lower"),
    ("query.diprs_filtered_us_p50", "us", "lower"),
    ("query.diprs_visited_mean", "count", "lower"),
    ("query.diprs_appended_mean", "count", "lower"),
    ("query.dipr_size_mean", "count", "lower"),
    ("query.diprs_recall", "ratio", "higher"),
    ("query.plan_ns_p50", "ns", "lower"),
    ("index.flat_dipr_us_p50", "us", "lower"),
    ("index.coarse_select_us_p50", "us", "lower"),
    ("index.graph_build_ms_per_ktok", "ms", "lower"),
    ("index.coarse_build_ms_per_ktok", "ms", "lower"),
    ("index.graph_bytes_per_token", "B", "lower"),
    ("vector.dot_block_gbps", "GB/s", "higher"),
    ("vector.dot_ids_gbps", "GB/s", "higher"),
    ("vector.softmax_push_ns", "ns", "lower"),
    ("device.pool_map_overhead_us", "us", "lower"),
    ("device.pool_stolen_ratio", "ratio", "lower"),
    ("device.gpu_peak_bytes", "B", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.accounted_ratio", "ratio", "higher"),
    ("trace.requests", "count", "higher"),
    ("trace.spans", "count", "higher"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, values with all their digits.
pub fn result_line(correct: bool, attempted: usize, failed: usize, values: &Values) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let unit = unit_of(name);
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .unwrap();
    }
    s.push_str("}}");
    s
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    s.push_str("  \"workloads\": [\n");
    let specs = workload::specs();
    for (i, w) in specs.iter().enumerate() {
        let comma = if i + 1 == specs.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        )
        .unwrap();
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        )
        .unwrap();
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}"
        )
        .unwrap();
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is generated (`--manifest`), never hand-edited.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, manifest(), "regenerate with `--manifest`");
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(workload::names());
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(workload::specs().iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s"));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut v = Values::new();
        v.insert("setup_s", 0.8127);
        let line = result_line(true, 10, 0, &v);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
