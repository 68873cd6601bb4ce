//! The metric tables: names, units, directions and regression bounds.
//! `BENCHMARK.json` carries the same tables (a unit test keeps the two
//! in step).

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the service sees. `bound` is
/// the share of the parent's median by which it may get worse.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound.
    pub bound: f64,
}

/// A per-layer metric: context for the end-to-end ones, never gated.
pub struct PerLayer {
    /// Metric name, prefixed with the module it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

use Better::{Higher, Lower};

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, reported on every workload. Every time-based
/// one carries the widest bound the driver allows: after normalisation
/// to the host's speed their run-to-run spread (quartile distance over
/// median, ten seeds) still measured 5–12 % on the sizing host, and a
/// bound has to clear three times that.
pub const END_TO_END: [EndToEnd; 7] = [
    gated("setup_s", "s", Lower, 0.25),
    gated("ops_per_s", "replies/s", Higher, 0.25),
    gated("p50_us", "us", Lower, 0.25),
    gated("read_p50_us", "us", Lower, 0.25),
    gated("write_p50_us", "us", Lower, 0.25),
    gated("rss_mb", "MiB", Lower, 0.05),
    gated("recover_s", "s", Lower, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics. A metric that does not apply to a workload
/// (the WAL's on a volatile one, the simulator's on a native one) reads 0
/// there.
pub const PER_LAYER: [PerLayer; 38] = [
    layer("svc.server.p99_us", "us", Lower),
    layer("svc.server.ops_per_batch", "count", Higher),
    layer("svc.server.barriers_per_mutation", "count", Lower),
    layer("svc.server.writev_per_op", "count", Lower),
    layer("svc.server.cpu_us_per_op", "us", Lower),
    layer("svc.server.residual_ns_per_op", "ns", Lower),
    layer("svc.proto.decode_ns_per_op", "ns", Lower),
    layer("svc.proto.encode_ns_per_op", "ns", Lower),
    layer("svc.poll.wake_rtt_us", "us", Lower),
    layer("workloads.native.get_ns", "ns", Lower),
    layer("workloads.native.scan_ns", "ns", Lower),
    layer("workloads.native.apply_batch_ns_per_mutation", "ns", Lower),
    layer("workloads.native.sgl_ops_per_s", "replies/s", Higher),
    layer("workloads.native.vs_sgl", "ratio", Higher),
    layer("workloads.sim.get_ns", "ns", Lower),
    layer("workloads.sim.put_ns", "ns", Lower),
    layer("epoch.synchronize_ns", "ns", Lower),
    layer("wal.append_ns_per_record", "ns", Lower),
    layer("wal.wait_durable_us", "us", Lower),
    layer("wal.fsyncs_per_append", "count", Lower),
    layer("wal.bytes_per_mutation", "B", Lower),
    layer("wal.replay_mops", "M/s", Higher),
    layer("wal.vs_volatile", "ratio", Higher),
    layer("rwle.read_cs_ns", "ns", Lower),
    layer("rwle.write_cs_ns", "ns", Lower),
    layer("rwle.abort_pct", "%", Lower),
    layer("rwle.commit_htm_pct", "%", Higher),
    layer("rwle.commit_rot_pct", "%", Higher),
    layer("rwle.commit_ns_pct", "%", Lower),
    layer("rwle.uninstr_pct", "%", Higher),
    layer("hle.ops_per_s", "replies/s", Higher),
    layer("rwle.vs_hle", "ratio", Higher),
    layer("bench.host_speed", "ratio", Higher),
    layer("bench.client_cpu_frac", "ratio", Lower),
    layer("bench.send_lag_p99_us", "us", Lower),
    layer("bench.window_spread_pct", "%", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
    layer("bench.build_s", "s", Lower),
];

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric of `defs` as `{"value", "unit"}`. A metric
/// without a value reads 0 (per-layer metrics off their workload).
pub fn result_json<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: impl Iterator<Item = (&'a str, &'a str)>,
    values: &Values,
) -> String {
    let metrics: Vec<String> = defs
        .map(|(name, unit)| {
            let v = values.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls `"key": "value"` or `"key": number` out of a flat JSON
    /// object's text.
    fn field<'a>(obj: &'a str, key: &str) -> &'a str {
        let at = obj.find(&format!("\"{key}\"")).expect(key);
        let rest = obj[at..].split_once(':').unwrap().1.trim_start();
        match rest.strip_prefix('"') {
            Some(s) => &s[..s.find('"').unwrap()],
            None => rest[..rest.find(',').unwrap_or(rest.len())].trim(),
        }
    }

    /// The `{…}` objects of the JSON array under `key`.
    fn objects<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
        let at = json.find(&format!("\"{key}\"")).expect(key);
        let body = &json[at..];
        let body = &body[body.find('[').unwrap() + 1..];
        let body = &body[..body.find(']').unwrap()];
        body.split('{')
            .skip(1)
            .map(|o| o.split('}').next().unwrap())
            .collect()
    }

    #[test]
    fn benchmark_json_carries_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");

        let e2e = objects(&json, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (obj, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(obj, "name"), def.name);
            assert_eq!(field(obj, "unit"), def.unit, "{}", def.name);
            assert_eq!(field(obj, "better"), def.better.word(), "{}", def.name);
            let bound: f64 = field(obj, "bound").parse().unwrap();
            assert_eq!(bound, def.bound, "{}", def.name);
            assert!(bound <= 0.25);
        }

        let layers = objects(&json, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (obj, def) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(obj, "name"), def.name);
            assert_eq!(field(obj, "unit"), def.unit, "{}", def.name);
            assert_eq!(field(obj, "better"), def.better.word(), "{}", def.name);
        }

        let workloads = objects(&json, "workloads");
        assert_eq!(workloads.len(), crate::gen::WORKLOADS.len());
        for (obj, w) in workloads.iter().zip(&crate::gen::WORKLOADS) {
            assert_eq!(field(obj, "name"), w.name);
            assert_eq!(field(obj, "why"), w.why);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(crate::gen::WORKLOADS.iter().map(|w| w.name));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &names {
            assert!(n.len() <= 64 && n.chars().all(ok), "{n}");
        }
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(u.len() <= 16 && u.chars().all(unit_ok), "{u}");
        }
    }

    #[test]
    fn result_line_lists_every_metric_and_zero_fills() {
        let mut v = Values::default();
        v.set("a", 1.5);
        let line = result_json(true, 10, 0, [("a", "s"), ("b", "us")].into_iter(), &v);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"us\"}}}"
        );
    }
}
