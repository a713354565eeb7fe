//! Measured values and how they are printed: metric records, order
//! statistics, peak memory, host metadata and the JSON lines the
//! benchmark writes to standard output.

use std::fmt::Write as _;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase (questions or submits).
    pub attempted: u64,
    /// Operations that failed (unanswered questions, fallback answers).
    pub failed: u64,
    /// Correctness violations; empty means the outputs checked out.
    pub problems: Vec<String>,
    /// The metrics of the final result line.
    pub metrics: Vec<Metric>,
    /// Extra report fields as `(key, JSON value)`: sample counts,
    /// per-dataset figures, reconciliation. Printed on the report line.
    pub details: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a metric to the result line.
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Adds a field to the report line.
    pub fn detail(&mut self, key: impl Into<String>, json_value: impl Into<String>) {
        self.details.push((key.into(), json_value.into()));
    }

    /// Records a correctness violation.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// The final result line: `correct`, `attempted`, `failed` and the
    /// metrics, as one JSON object. A non-finite value is printed as 0
    /// and makes the run incorrect (JSON has no NaN).
    pub fn result_line(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let correct = self.problems.is_empty() && finite && self.attempted > 0;
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Formats a float as a JSON number with every digit Rust's shortest
/// round-trip form keeps.
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_owned();
    }
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// Quotes a string for JSON.
pub fn json_string(s: &str) -> String {
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

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile (`p` in 0–100) of `values`; 0 for an empty
/// slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
/// 0 where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host and build facts recorded next to every result.
pub fn host_metadata() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let max_threads = std::env::var("BATCHER_MAX_THREADS").unwrap_or_default();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_owned());
    vec![
        ("nproc".to_owned(), nproc.to_string()),
        ("batcher_max_threads".to_owned(), json_string(&max_threads)),
        ("build_profile".to_owned(), json_string(profile)),
        ("commit".to_owned(), json_string(&commit)),
    ]
}

/// Renders `(key, JSON value)` fields as one JSON object.
pub fn json_object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 99.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut o = Outcome { attempted: 3, ..Outcome::default() };
        o.metric("setup_s", "s", 2.0);
        o.metric("f1", "%", 0.125);
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}, \
             \"f1\": {\"value\": 0.125, \"unit\": \"%\"}}}"
        );
        o.metric("bad", "s", f64::NAN);
        assert!(o.result_line().starts_with("{\"correct\": false"));
    }
}
