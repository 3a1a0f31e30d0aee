//! The result line and the human-readable report.

/// An ordered set of named metrics with units.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    /// The unit `PER_LAYER` gives `name`.
    pub fn layer(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, u)| u)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        self.put(name, value, unit);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.0.iter()
    }
}

/// The end-to-end metrics every workload reports with `--trace 0`, the
/// ones `BENCHMARK.json` bounds.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("visible_p50_ms", "ms"),
    ("visible_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every workload reports with `--trace 1`; a layer
/// a workload does not use reports 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("driver.wall_ms", "ms"),
    ("driver.idle_ms", "ms"),
    ("driver.late_p99_ms", "ms"),
    ("driver.rounds", "count"),
    ("driver.unaccounted_share", "ratio"),
    ("driver.trace_overhead", "ratio"),
    ("driver.own_ms", "ms"),
    ("driver.probe_ms", "ms"),
    ("node.step_p50_us", "us"),
    ("node.step_p99_us", "us"),
    ("node.idle_step_us", "us"),
    ("node.deferred", "count"),
    ("stage.self_ms", "ms"),
    ("stage.share", "ratio"),
    ("stage.derivations", "count"),
    ("stage.derivations_per_fact", "ratio"),
    ("stage.fixpoint_rounds", "count"),
    ("stage.facts_out", "count"),
    ("stage.delegations_out", "count"),
    ("stage.revocations_out", "count"),
    ("stage.rejected", "count"),
    ("session.self_ms", "ms"),
    ("session.retransmits", "count"),
    ("session.dup_drops", "count"),
    ("session.retransmit_ratio", "ratio"),
    ("session.frames_per_fact", "ratio"),
    ("session.unacked_peak", "count"),
    ("tcp.self_ms", "ms"),
    ("tcp.frames", "count"),
    ("tcp.overflow", "count"),
    ("tcp.background_cpu_ms", "ms"),
    ("codec.bytes_per_fact", "B"),
    ("codec.encode_ns_per_fact", "ns"),
    ("codec.decode_ns_per_fact", "ns"),
    ("store.commit_ms", "ms"),
    ("store.commits", "count"),
    ("store.checkpoint_ms", "ms"),
    ("store.checkpoints", "count"),
    ("store.buffer_ms", "ms"),
    ("store.bytes_per_fact", "B"),
    ("runtime.round_p50_us", "us"),
    ("runtime.rounds", "count"),
    ("runtime.messages", "count"),
    ("wrappers.activity", "count"),
    ("runtime.self_ms", "ms"),
    ("setup.bind_ms", "ms"),
    ("setup.store_open_ms", "ms"),
    ("setup.preload_ms", "ms"),
    ("setup.quiesce_ms", "ms"),
];

/// `list`'s metrics from `m`, in `list`'s order, 0 where `m` has none.
pub fn select(m: &Metrics, list: &[(&str, &'static str)]) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in list {
        out.put(name, m.get(name).unwrap_or(0.0), unit);
    }
    out
}

/// Formats a number for JSON: every digit Rust's shortest round-trip
/// form gives; non-finite values become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` must agree.
    #[test]
    fn manifest_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("list ends")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).expect(f) + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').expect("string value") + 1;
                        let close = open + rest[open..].find('"').expect("closing quote");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(&END_TO_END));
        assert_eq!(section("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        m.put("x", f64::NAN, "s");
        assert_eq!(
            result_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"x\": {\"value\": null, \"unit\": \"s\"}}}"
        );
    }
}
