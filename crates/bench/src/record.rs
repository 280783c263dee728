//! Typed experiment output: every row an experiment reports is a
//! [`Record`] — string labels naming the point, `f64` values measured at
//! it — and an [`Output`] collects one experiment's records and gate
//! values. One writer turns an `Output` into `<dir>/<experiment>.jsonl`;
//! the line a human reads on stdout is the same record's `Display`.

use crate::gate::{Bound, GateOutcome};
use std::fmt;
use std::path::Path;

/// One reported row.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Name of the experiment (its row in `EXPERIMENTS`) that reported it.
    pub experiment: &'static str,
    /// What the row is about: dataset, method, mode, phase.
    pub labels: Vec<(&'static str, String)>,
    /// What was set or measured there: sweep parameters, milliseconds,
    /// work counts.
    pub values: Vec<(&'static str, f64)>,
}

impl Record {
    /// The label `key`, if the row carries it.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The value `key`, if the row carries it.
    pub fn value(&self, key: &str) -> Option<f64> {
        self.values.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// The record as one JSON object (one line of the `.jsonl` file).
    pub fn to_json(&self) -> String {
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", json_escape(k), json_escape(v)))
            .collect();
        let values: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("\"{}\": {}", json_escape(k), json_number(*v)))
            .collect();
        format!(
            "{{\"experiment\": \"{}\", \"labels\": {{{}}}, \"values\": {{{}}}}}",
            json_escape(self.experiment),
            labels.join(", "),
            values.join(", ")
        )
    }
}

/// `label=text  value=number` columns; whole numbers and anything from a
/// thousand up print without a fraction, everything else to four places.
impl fmt::Display for Record {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut sep = "";
        for (key, value) in &self.labels {
            write!(f, "{sep}{key}={value}")?;
            sep = "  ";
        }
        for (key, value) in &self.values {
            if value.fract() == 0.0 || value.abs() >= 1e3 {
                write!(f, "{sep}{key}={value:.0}")?;
            } else {
                write!(f, "{sep}{key}={value:.4}")?;
            }
            sep = "  ";
        }
        Ok(())
    }
}

/// Everything one experiment run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    experiment: &'static str,
    /// The rows, in the order they were reported.
    pub records: Vec<Record>,
    /// Gate values of a wall-clock experiment (empty for the figures).
    pub gates: Vec<GateOutcome>,
}

impl Output {
    /// An empty output for the experiment named `experiment`.
    pub fn new(experiment: &'static str) -> Self {
        Output {
            experiment,
            records: Vec::new(),
            gates: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn row(&mut self, labels: &[(&'static str, &str)], values: &[(&'static str, f64)]) {
        self.records.push(Record {
            experiment: self.experiment,
            labels: labels.iter().map(|(k, v)| (*k, v.to_string())).collect(),
            values: values.to_vec(),
        });
    }

    /// Appends the gate value `<experiment>.<metric>`.
    pub fn gate(&mut self, metric: &str, measured: f64, bound: Bound) {
        self.gates.push(GateOutcome {
            name: format!("{}.{metric}", self.experiment),
            measured,
            bound,
        });
    }

    /// Writes the records as `<dir>/<experiment>.jsonl`, one JSON object
    /// per line.
    pub fn write_jsonl(&self, dir: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for record in &self.records {
            text.push_str(&record.to_json());
            text.push('\n');
        }
        std::fs::write(dir.join(format!("{}.jsonl", self.experiment)), text)
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Non-finite measurements degrade to `null`, not invalid JSON.
pub(crate) fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_reads_back_typed_and_renders_both_ways() {
        let mut out = Output::new("fig9");
        out.row(
            &[("dataset", "LA-like"), ("method", "Voronoi \"1\"")],
            &[
                ("k", 5.0),
                ("cpu_ms", 1.23456),
                ("qps", 6049.84),
                ("bad", f64::NAN),
            ],
        );
        let record = &out.records[0];
        assert_eq!(record.experiment, "fig9");
        assert_eq!(record.label("dataset"), Some("LA-like"));
        assert_eq!(record.value("k"), Some(5.0));
        assert_eq!(record.value("missing"), None);
        assert_eq!(
            record.to_string(),
            "dataset=LA-like  method=Voronoi \"1\"  k=5  cpu_ms=1.2346  qps=6050  bad=NaN"
        );
        assert_eq!(
            record.to_json(),
            "{\"experiment\": \"fig9\", \"labels\": {\"dataset\": \"LA-like\", \
             \"method\": \"Voronoi \\\"1\\\"\"}, \"values\": {\"k\": 5, \"cpu_ms\": 1.23456, \
             \"qps\": 6049.84, \"bad\": null}}"
        );
    }
}
