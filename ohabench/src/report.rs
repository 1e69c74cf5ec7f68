//! Metric names, summary statistics and the result lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::calib::HostSpeed;

/// The end-to-end metrics every workload reports under `--trace 0`, in
/// the order [`end_to_end`] takes their values.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("analyses_per_s", "1/s"),
    ("request_ms.p50", "ms"),
    ("request_ms.p90", "ms"),
    ("dyn_overhead_x", "x"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric of the traced run, with its unit. The traced
/// run prints all of them on every workload; a layer a workload's
/// requests never enter reads 0 there. `BENCHMARK.json` lists the same
/// names (checked by a test below).
pub const PER_LAYER: [(&str, &str); 44] = [
    ("ir.parse_ms", "ms"),
    ("par.fanout_us", "us"),
    ("par.profile_speedup_x", "x"),
    ("invariants.profile_ms", "ms"),
    ("invariants.profile_runs", "count"),
    ("invariants.facts", "count"),
    ("invariants.check_ms", "ms"),
    ("invariants.misspec_frac", "ratio"),
    ("pointsto.solve_ms.sound", "ms"),
    ("pointsto.solve_ms.pred", "ms"),
    ("pointsto.worklist_pops", "count"),
    ("pointsto.words_unioned", "count"),
    ("races.detect_ms", "ms"),
    ("races.racy_sites.sound", "count"),
    ("races.racy_sites.pred", "count"),
    ("slicing.slice_ms", "ms"),
    ("slicing.slice_size.sound", "count"),
    ("slicing.slice_size.pred", "count"),
    ("elide.validate_ms", "ms"),
    ("elide.validate_runs", "count"),
    ("elide.span_ms", "ms"),
    ("interp.baseline_ms", "ms"),
    ("interp.steps_per_s", "1/s"),
    ("fasttrack.full_ms", "ms"),
    ("fasttrack.hybrid_ms", "ms"),
    ("fasttrack.opt_ms", "ms"),
    ("fasttrack.elided_frac", "ratio"),
    ("giri.hybrid_ms", "ms"),
    ("giri.opt_ms", "ms"),
    ("giri.traced_frac", "ratio"),
    ("rollback.ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.hit_frac", "ratio"),
    ("store.bytes", "bytes"),
    ("serve.lru_hit_ms.p50", "ms"),
    ("serve.store_hit_ms.p50", "ms"),
    ("serve.cold_ms.p50", "ms"),
    ("serve.busy_frac", "ratio"),
    ("cluster.hop_ms", "ms"),
    ("cluster.failovers", "count"),
    ("core.request_ms", "ms"),
    ("core.unattributed_frac", "ratio"),
    ("obs.bench_trace_overhead_frac", "ratio"),
];

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra facts for the report line, as raw JSON values.
    pub report: Vec<(String, String)>,
}

/// The end-to-end metrics in [`END_TO_END`] order. Set-up time,
/// throughput and the latency quantiles (of the ascending `latencies`,
/// ms) are scaled to the reference host by `speed` (`calib.rs`); the
/// second part is the report-line entries of their raw values and of the
/// probe.
pub fn end_to_end(
    speed: &HostSpeed,
    setup_s: f64,
    per_s: f64,
    latencies: &[f64],
    dyn_overhead_x: f64,
    peak_rss_mb: f64,
) -> (Vec<Metric>, Vec<(String, String)>) {
    let scale = speed.scale();
    let (p50, p90) = (quantile(latencies, 0.5), quantile(latencies, 0.9));
    let values = [
        setup_s * scale,
        per_s / scale,
        p50 * scale,
        p90 * scale,
        dyn_overhead_x,
        peak_rss_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect();
    let mut raw = vec![
        ("raw_setup_s".into(), json_num(setup_s)),
        ("raw_analyses_per_s".into(), json_num(per_s)),
        ("raw_request_ms.p50".into(), json_num(p50)),
        ("raw_request_ms.p90".into(), json_num(p90)),
    ];
    raw.extend(speed.report());
    (metrics, raw)
}

/// The per-layer metrics in [`PER_LAYER`] order, taking each value from
/// `values` (0 when a layer is not on the workload's path).
pub fn per_layer(values: &BTreeMap<&str, f64>) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// Linear-interpolation quantile of an ascending slice (`q` in 0..=1).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sorts `values` and returns its median.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Samples strictly above the `q` quantile (the tail count a percentile
/// rests on).
pub fn beyond(sorted: &[f64], q: f64) -> usize {
    let cut = quantile(sorted, q);
    sorted.iter().filter(|&&v| v > cut).count()
}

/// The peak resident set (`VmHWM`) of a process in MiB; `None` reads the
/// current process.
pub fn peak_rss_mib(pid: Option<u64>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting keeps.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(beyond(&v, 0.5), 2);
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json = oha_obs::Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            match json.get(key) {
                Some(oha_obs::Json::Arr(items)) => items
                    .iter()
                    .filter_map(|m| match m.get("name") {
                        Some(oha_obs::Json::Str(s)) => Some(s.clone()),
                        _ => None,
                    })
                    .collect(),
                _ => Vec::new(),
            }
        };
        let layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("per_layer"), layer);
        assert_eq!(
            names("end_to_end"),
            END_TO_END
                .iter()
                .map(|(n, _)| n.to_string())
                .collect::<Vec<_>>()
        );
    }
}
