//! Order statistics, digests, process memory and the result line.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample or has
/// already failed the run.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile that still has ten samples beyond it, and the
/// sample at that rank; `None` with fewer than eleven samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let index = n - 11;
    Some((100.0 * (index + 1) as f64 / n as f64, v[index]))
}

/// Word-wise 64-bit digest of `f32` bit patterns (FNV-style multiply-xor,
/// one word per step). Order-sensitive, so two ranks agree only if every
/// element of every tensor is bit-identical.
pub fn digest_f32(state: u64, values: &[f32]) -> u64 {
    values.iter().fold(state, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Starting state for [`digest_f32`].
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Peak resident set size of this process in MB (`VmHWM`), or `None` where
/// `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value (1 for a count or a single reading).
    pub samples: usize,
}

impl Metric {
    /// A metric backed by `samples` observations.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// Formats a finite `f64` so that it round-trips and is valid JSON (Rust's
/// shortest representation; integers print without an exponent).
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

/// What a pass hands to `main`.
pub struct Outcome {
    /// Metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Samples attempted: iteration pairs, or training calls.
    pub attempted: u64,
    /// Samples that returned an error, timed out or failed a check.
    pub failed: u64,
    /// Whether every sample and every whole-run check passed.
    pub correct: bool,
}

impl Outcome {
    /// The contract's result object, on one line.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The per-layer artefact: every metric with unit and sample count, plus
/// the benchmark-side span table.
pub fn layers_json(
    workload: &str,
    metrics: &[Metric],
    spans: &[crate::trace::SpanSummary],
) -> String {
    let mut out = format!("{{\n  \"workload\": \"{workload}\",\n  \"metrics\": {{\n");
    for (i, m) in metrics.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"count\": {}}}{}",
            m.name,
            json_number(m.value),
            m.unit,
            m.samples,
            if i + 1 < metrics.len() { "," } else { "" }
        );
    }
    out.push_str("  },\n  \"spans\": {\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = writeln!(
            out,
            "    \"{}\": {{\"layer\": \"{}\", \"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}{}",
            s.name,
            s.layer,
            s.count,
            json_number(s.total_us as f64 / 1e3),
            json_number(s.self_us as f64 / 1e3),
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(value, 30.0);
        assert_eq!(pct, 75.0);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let a = digest_f32(DIGEST_SEED, &[1.0, 2.0]);
        let b = digest_f32(DIGEST_SEED, &[2.0, 1.0]);
        assert_ne!(a, b);
        assert_eq!(a, digest_f32(digest_f32(DIGEST_SEED, &[1.0]), &[2.0]));
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = Outcome {
            metrics: vec![Metric::new("a.b", 1.5, "ms", 3)],
            attempted: 4,
            failed: 0,
            correct: true,
        }
        .result_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"a.b\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
