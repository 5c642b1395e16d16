//! Sample summaries and the result line.

use std::fmt::Write as _;

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND_TAIL: usize = 10;

/// Nearest-rank percentile of an ascending-sorted, non-empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    spatial_bench::percentile(sorted, p).expect("non-empty")
}

/// The tail percentile `p` of an ascending-sorted sample, refused when
/// fewer than [`MIN_BEYOND_TAIL`] samples lie beyond it: a tail read
/// off a handful of points is one unlucky sample, not a percentile.
pub fn tail(sorted: &[f64], p: f64) -> Result<f64, String> {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    let beyond = sorted.len().saturating_sub(rank.max(1));
    if sorted.is_empty() || beyond < MIN_BEYOND_TAIL {
        return Err(format!(
            "p{} over {} samples leaves {beyond} beyond it; at least {MIN_BEYOND_TAIL} are needed",
            p * 100.0,
            sorted.len()
        ));
    }
    Ok(percentile(sorted, p))
}

/// Sorts a sample ascending (NaN-free wall times).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// Median of an unsorted, non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`,
/// `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

/// One named metric of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of a run, in report order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric; names and units are checked here, so an
    /// invalid one never reaches the result line.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(valid_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} of {name}");
        assert!(value.is_finite(), "{name} is not finite: {value}");
        assert!(
            self.0.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        self.0.push(Metric { name, value, unit });
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric as `{"value", "unit"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{:?}` prints an f64 with every digit needed to round-trip.
        write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("write to String");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(tail(&s, 0.99).is_err(), "999 samples leave 9 beyond p99");
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&s, 0.99), Ok(990.0));
        assert!(tail(&[], 0.99).is_err());
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s, 0.9), Ok(90.0));
        assert!(tail(&s, 0.95).is_err());
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn metric_names_and_units_are_checked() {
        assert!(valid_name("latency_p99_ms"));
        assert!(valid_name("store.commit_ms_p50"));
        assert!(valid_name("9lives"));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("count") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("req per s"));
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn an_invalid_metric_name_is_refused() {
        Metrics::default().push("bad name", 1.0, "ms");
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let mut m = Metrics::default();
        m.push("latency_ms", 1.203_456_789_012_3, "ms");
        m.push("jobs", 12.0, "count");
        assert_eq!(
            result_line(true, 5, 0, &m),
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034567890123, \"unit\": \"ms\"}, \
             \"jobs\": {\"value\": 12.0, \"unit\": \"count\"}}}"
        );
    }
}
