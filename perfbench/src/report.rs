//! What one benchmark invocation reports: named metrics with units, the
//! per-sample distributions behind them, failed/attempted operations, and
//! the exact-repeat fingerprints.

use crate::stats::{num, Summary};
use std::fmt::Write as _;

/// One named metric value.
#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload pass produced.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Per-sample values behind a metric (trial walls, set-up repeats, …),
    /// summarised as min / quartiles / max in the run record.
    pub samples: Vec<(String, &'static str, Vec<f64>)>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed operation or failed check.
    pub failures: Vec<String>,
    /// Free-form notes (ratio bases, fingerprint verdicts) for the run record.
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn samples(&mut self, name: impl Into<String>, unit: &'static str, values: Vec<f64>) {
        self.samples.push((name.into(), unit, values));
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.notes.push((key.into(), value.into()));
    }

    /// Counts one operation, failing it with `why` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), why);
    }

    /// Counts `attempted` operations of which `failed` failed, explained
    /// by `why` when any did.
    pub fn tally(&mut self, attempted: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.failures.push(why());
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line (last on stdout): exactly `correct`, `attempted`,
    /// `failed` and the metrics named in `wanted`, in that order.
    pub fn result_line(&self, wanted: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            );
        }
        out.push_str("}}");
        out
    }

    /// The run record's body: every metric, sample summaries, notes and
    /// failures, as one JSON object.
    pub fn record_json(&self) -> String {
        let mut out = String::from("{\"metrics\":{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        out.push_str("},\"samples\":{");
        for (i, (name, unit, values)) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let summary = Summary::of(values).map_or("null".to_string(), |s| s.to_json());
            let _ = write!(
                out,
                "\"{name}\":{{\"unit\":\"{unit}\",\"summary\":{summary}}}"
            );
        }
        out.push_str("},\"notes\":{");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", escape(k), escape(v));
        }
        out.push_str("},\"failures\":[");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", escape(f));
        }
        out.push_str("]}");
        out
    }
}

/// Minimal JSON string escaping.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}
