//! The metric catalogue, the result line, the run record and record
//! comparison.

use std::fmt::Write as _;

use srmac_fp::FpFormat;
use srmac_hwcost::{AdderConfig, AsicModel, DesignKind};

use crate::host::{field, json_str, Host};
use crate::ledger::{Ledger, ACCUMULATE, PACK_A, PACK_B, ROLES};

/// A gated end-to-end metric: `(name, unit, better, bound)`. Mirrors
/// `BENCHMARK.json` (a test keeps the two in step).
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("samples_per_s", "1/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("ok_frac", "frac", "higher", 0.02),
];

/// The top-level children of ResNet-20, as layer-table row names.
pub const LAYERS: [&str; 14] = [
    "00_conv", "01_bn", "02_relu", "03_block", "04_block", "05_block", "06_block", "07_block",
    "08_block", "09_block", "10_block", "11_block", "12_gap", "13_fc",
];

/// Every per-layer metric `(name, unit)`, in output order.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    for role in ROLES {
        for (k, u) in [
            ("calls", "count"),
            ("macs", "count"),
            ("pack_a_ms", "ms"),
            ("pack_b_ms", "ms"),
            ("accumulate_ms", "ms"),
            ("ns_per_mac", "ns"),
            ("pack_b_reuse", "frac"),
        ] {
            m.push((format!("qgemm.{role}.{k}"), u));
        }
    }
    for l in LAYERS {
        m.push((format!("layers.{l}.fwd_self_ms"), "ms"));
        m.push((format!("layers.{l}.bwd_self_ms"), "ms"));
    }
    let fixed: [(&str, &'static str); 36] = [
        ("layers.fwd_self_ms", "ms"),
        ("layers.bwd_self_ms", "ms"),
        ("layers.unattributed_ms", "ms"),
        ("trainer.step_ms", "ms"),
        ("trainer.replica_busy_ms", "ms"),
        ("trainer.critical_path_ms", "ms"),
        ("trainer.outside_model_ms", "ms"),
        ("trainer.fanout_eff", "frac"),
        ("data.batch_ms", "ms"),
        ("io.save_ms", "ms"),
        ("io.encode_ms", "ms"),
        ("io.write_ms", "ms"),
        ("io.rename_ms", "ms"),
        ("io.bytes_written", "B"),
        ("io.load_ms", "ms"),
        ("io.bytes_read", "B"),
        ("serve.queue_wait_ms_p50", "ms"),
        ("serve.queue_wait_ms_p99", "ms"),
        ("serve.batch_assembly_ms_p50", "ms"),
        ("serve.inference_ms_p50", "ms"),
        ("serve.inference_ms_p99", "ms"),
        ("serve.mean_batch", "count"),
        ("serve.shed", "count"),
        ("serve.expired", "count"),
        ("serve.worker_skew", "frac"),
        ("loadgen.lag_ms_p99", "ms"),
        ("loadgen.sent", "count"),
        ("loadgen.fifo_ready_frac", "frac"),
        ("loadgen.fifo_bias_ms_max", "ms"),
        ("trace.overhead_frac", "frac"),
        ("trace.unattributed_frac", "frac"),
        ("hwcost.sr13.delay_ns", "ns"),
        ("hwcost.sr13.energy_nw_per_mhz", "nW/MHz"),
        ("hwcost.rn.delay_ns", "ns"),
        ("hwcost.rn.energy_nw_per_mhz", "nW/MHz"),
        ("process.peak_rss_mib", "MiB"),
    ];
    m.extend(fixed.iter().map(|&(n, u)| (n.to_owned(), u)));
    m
}

/// The named metrics every record carries, `(name, unit)`; a workload
/// fills the ones that apply to it.
pub const NAMED: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("train_samples_per_s", "1/s"),
    ("train_step_ms_p50", "ms"),
    ("train_step_ms_p90", "ms"),
    ("serve_latency_ms_p50", "ms"),
    ("serve_latency_ms_p90", "ms"),
    ("serve_latency_ms_p99", "ms"),
    ("serve_slo_miss_frac", "frac"),
    ("failed_frac", "frac"),
    ("peak_rss_mib", "MiB"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Output checks made.
    pub attempted: u64,
    /// Output checks that failed, or operations that errored.
    pub failed: u64,
    /// Gated metric values by name.
    pub e2e: Vec<(&'static str, f64)>,
    /// Named metric values (see [`NAMED`]).
    pub named: Vec<(&'static str, f64)>,
    /// Per-layer metric values by name (traced runs).
    pub layers: Vec<(String, f64)>,
    /// Workload parameters worth recording (rate, limit, …).
    pub config: Vec<(&'static str, String)>,
    /// Human-readable layer table (traced runs).
    pub table: String,
}

impl Outcome {
    /// Looks up a gated metric.
    #[must_use]
    pub fn e2e(&self, name: &str) -> Option<f64> {
        self.e2e.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Pushes the `qgemm.<role>.*` metrics of `all` (every thread's GEMM
/// account), per op over `ops` ops.
pub fn push_gemm_metrics(m: &mut Vec<(String, f64)>, all: &Ledger, ops: f64) {
    for (r, role) in ROLES.iter().enumerate() {
        let c = &all.roles[r];
        let ms = |ns: u64| ns as f64 / 1e6 / ops;
        let ns_per_mac = if c.macs == 0 {
            0.0
        } else {
            c.ns[ACCUMULATE] as f64 / c.macs as f64
        };
        let reuse = if c.calls == 0 {
            0.0
        } else {
            1.0 - c.pack_b_calls as f64 / c.calls as f64
        };
        m.extend([
            (format!("qgemm.{role}.calls"), c.calls as f64 / ops),
            (format!("qgemm.{role}.macs"), c.macs as f64 / ops),
            (format!("qgemm.{role}.pack_a_ms"), ms(c.ns[PACK_A])),
            (format!("qgemm.{role}.pack_b_ms"), ms(c.ns[PACK_B])),
            (format!("qgemm.{role}.accumulate_ms"), ms(c.ns[ACCUMULATE])),
            (format!("qgemm.{role}.ns_per_mac"), ns_per_mac),
            (format!("qgemm.{role}.pack_b_reuse"), reuse),
        ]);
    }
}

/// Pushes the modelled silicon cost per MAC of the paper's SR13 unit and
/// its RN counterpart (E5M2 multipliers, E6M5 accumulator), from the
/// calibrated 28nm model: context for `qgemm.*.ns_per_mac`.
pub fn push_hwcost(m: &mut Vec<(String, f64)>) {
    let model = AsicModel::calibrated();
    let (mul, acc) = (FpFormat::e5m2(), FpFormat::e6m5());
    for (tag, kind, r) in [("sr13", DesignKind::SrEager, 13), ("rn", DesignKind::Rn, 0)] {
        let c = model.mac_cost(mul, &AdderConfig::new(kind, acc, r));
        m.push((format!("hwcost.{tag}.delay_ns"), c.delay));
        m.push((format!("hwcost.{tag}.energy_nw_per_mhz"), c.energy));
    }
}

/// Renders the layer table of a traced run into `o.table`: every row
/// (total ns) and an explicit `unattributed` row that closes it against
/// `wall_ns`, in ms per op and share of wall. Records the closure as an
/// output check: rows may not sum to more than the wall time they split.
/// Returns the unattributed time in ms.
pub fn push_table(
    o: &mut Outcome,
    rows: &[(String, u64)],
    wall_ns: u64,
    ops: usize,
    op: &str,
) -> f64 {
    let ms = |ns: f64| ns / 1e6;
    let attributed: u64 = rows.iter().map(|r| r.1).sum();
    let unattributed = wall_ns as f64 - attributed as f64;
    let mut sorted: Vec<&(String, u64)> = rows.iter().filter(|r| r.1 > 0).collect();
    sorted.sort_by_key(|r| std::cmp::Reverse(r.1));
    let mut t = format!("{:<34} {:>12} {:>8}\n", "row", format!("ms/{op}"), "share");
    let mut line = |name: &str, ns: f64| {
        let _ = writeln!(
            t,
            "{name:<34} {:>12.4} {:>7.2}%",
            ms(ns) / ops as f64,
            100.0 * ns / wall_ns as f64
        );
    };
    for (name, ns) in sorted {
        line(name, *ns as f64);
    }
    line("unattributed", unattributed);
    line("= traced wall", wall_ns as f64);
    o.table = t;
    o.attempted += 1;
    // Clock reads on different threads may disagree by microseconds; a
    // real double count is far larger.
    if unattributed < -0.005 * wall_ns as f64 {
        o.failed += 1;
    }
    ms(unattributed)
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The result object, the last line of a run's output: gated metrics
/// when untraced, per-layer metrics when traced.
#[must_use]
pub fn result_line(o: &Outcome, trace: bool) -> String {
    let mut metrics = Vec::new();
    if trace {
        for (name, unit) in per_layer() {
            let v = o
                .layers
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            metrics.push((name, unit, v));
        }
    } else {
        for (name, unit, _, _) in END_TO_END {
            metrics.push((name.to_owned(), unit, o.e2e(name).unwrap_or(0.0)));
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                num(*v),
                json_str(u)
            )
        })
        .collect();
    let correct = o.failed == 0 && o.attempted > 0 && metrics.iter().all(|m| m.2.is_finite());
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted.max(1),
        o.failed,
        body.join(", ")
    )
}

/// One run's record: host fingerprint, workload, configuration, every
/// value measured, and `"claim": null` (a record claims no improvement).
#[must_use]
pub fn record(
    o: &Outcome,
    host: &Host,
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"record\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"host\": {}, \"claim\": null",
        json_str(workload),
        host.to_json()
    );
    let obj = |pairs: Vec<(String, String)>| {
        let items: Vec<String> = pairs
            .into_iter()
            .map(|(k, v)| format!("{}: {v}", json_str(&k)))
            .collect();
        format!("{{{}}}", items.join(", "))
    };
    let config = o
        .config
        .iter()
        .map(|(k, v)| ((*k).to_owned(), json_str(v)))
        .collect();
    let named = NAMED
        .iter()
        .map(|(n, _)| {
            let v = o.named.iter().find(|(k, _)| k == n).map(|&(_, v)| v);
            ((*n).to_owned(), v.map_or("null".to_owned(), num))
        })
        .collect();
    let values = o
        .e2e
        .iter()
        .map(|(k, v)| ((*k).to_owned(), num(*v)))
        .collect();
    let layers = o.layers.iter().map(|(k, v)| (k.clone(), num(*v))).collect();
    let _ = write!(
        s,
        ", \"config\": {}, \"named\": {}, \"values\": {}, \"layers\": {}, \"attempted\": {}, \"failed\": {}}}}}",
        obj(config),
        obj(named),
        obj(values),
        obj(layers),
        o.attempted,
        o.failed
    );
    s
}

/// Why two records cannot be compared, or how they compare.
#[derive(Debug, PartialEq)]
pub enum Comparison {
    /// Different host fingerprints: absolute numbers are not comparable.
    HostMismatch(String),
    /// Different workloads or modes.
    Unlike(String),
    /// `(metric, base, new, ratio new/base, regressed beyond its bound)`.
    Metrics(Vec<(&'static str, f64, f64, f64, bool)>),
}

fn section<'a>(rec: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": {{");
    let start = rec.find(&pat)? + pat.len() - 1;
    let end = start + rec[start..].find('}')?;
    Some(&rec[start..=end])
}

/// Compares record `new` against record `base`.
#[must_use]
pub fn compare(base: &str, new: &str) -> Comparison {
    let (hb, hn) = (section(base, "host"), section(new, "host"));
    if hb.is_none() || hb != hn {
        return Comparison::HostMismatch(format!(
            "base host {} vs new host {}",
            hb.unwrap_or("<none>"),
            hn.unwrap_or("<none>")
        ));
    }
    for key in ["workload", "trace"] {
        if field(base, key) != field(new, key) {
            return Comparison::Unlike(format!("{key} differs"));
        }
    }
    let (vb, vn) = (
        section(base, "values").unwrap_or(""),
        section(new, "values").unwrap_or(""),
    );
    let mut out = Vec::new();
    for (name, _, better, bound) in END_TO_END {
        let get = |s: &str| field(s, name).and_then(|v| v.parse::<f64>().ok());
        if let (Some(b), Some(n)) = (get(vb), get(vn)) {
            let ratio = if b == 0.0 { 1.0 } else { n / b };
            let worse = if better == "lower" {
                ratio - 1.0
            } else {
                1.0 - ratio
            };
            out.push((name, b, n, ratio, worse > bound));
        }
    }
    Comparison::Metrics(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(latency: f64) -> Outcome {
        Outcome {
            attempted: 10,
            failed: 0,
            e2e: END_TO_END
                .iter()
                .map(|m| (m.0, 1.0))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|(n, v)| (n, if n == "latency_ms_p50" { latency } else { v }))
                .collect(),
            ..Outcome::default()
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        for (name, unit, better, bound) in END_TO_END {
            let line = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(text.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for (name, unit) in per_layer() {
            let line = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"");
            assert!(
                text.contains(&line),
                "BENCHMARK.json lacks per-layer {name}"
            );
        }
        assert_eq!(text.matches("\"bound\"").count(), END_TO_END.len());
        assert_eq!(
            text.matches("\"better\"").count(),
            END_TO_END.len() + per_layer().len()
        );
    }

    #[test]
    fn result_line_carries_every_metric_of_its_mode() {
        let o = outcome(2.5);
        let line = result_line(&o, false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        for (name, ..) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
        }
        let traced = result_line(&o, true);
        assert_eq!(traced.matches("\"unit\"").count(), per_layer().len());
    }

    #[test]
    fn unlike_hosts_are_a_host_mismatch_not_a_regression() {
        let host = Host::detect();
        let mut other = host.clone();
        other.cpu.push_str(" (other)");
        let a = record(&outcome(1.0), &host, "w", 1, 1, false);
        let b = record(&outcome(9.0), &other, "w", 1, 1, false);
        assert!(matches!(compare(&a, &b), Comparison::HostMismatch(_)));
        let c = record(&outcome(1.5), &host, "w", 2, 1, false);
        let Comparison::Metrics(m) = compare(&a, &c) else {
            panic!("same host must compare");
        };
        let p50 = m
            .iter()
            .find(|r| r.0 == "latency_ms_p50")
            .expect("p50 compared");
        assert!(p50.4, "a 1.5x p50 is beyond its bound");
        assert!(m.iter().filter(|r| r.0 != "latency_ms_p50").all(|r| !r.4));
        assert!(a.contains("\"claim\": null"));
    }
}
