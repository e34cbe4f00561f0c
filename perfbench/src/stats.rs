//! Sample statistics and the metric table the benchmark prints.

use std::collections::BTreeMap;

/// 1-based nearest rank of percentile `p` (0..=100) in a sample of `n`.
fn rank(n: usize, p: u32) -> usize {
    (p.min(100) as usize * n).div_ceil(100).max(1)
}

/// Nearest-rank percentile `p` (0..=100) of an unsorted sample; 0.0 when
/// the sample is empty.
pub fn percentile(sample: &[f64], p: u32) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p).min(sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(sample: &[f64]) -> f64 {
    percentile(sample, 50)
}

/// The tail percentile a sample of `n` supports: the highest of `want`
/// (e.g. 90) and below that still leaves at least ten samples beyond it.
/// Returned in whole percent; 50 is the floor (the median itself).
pub fn tail_percentile(n: usize, want: u32) -> u32 {
    let mut p = want;
    while p > 50 {
        if n.saturating_sub(rank(n, p)) >= 10 {
            return p;
        }
        p -= 1;
    }
    50
}

/// Geometric mean of positive values (0.0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// One reported metric: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Metrics in insertion order, printed as a table and as the final JSON.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// `name -> {"value": v, "unit": u}` as one JSON object.
    pub fn json_object(&self) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Human-readable table, one metric per line; metrics outside
    /// `reported` (printed, not in the JSON result) are marked.
    pub fn print_table(&self, prefix: &str, reported: &[&str]) {
        for m in &self.metrics {
            let mark = if reported.contains(&m.name.as_str()) { "" } else { "  (printed only)" };
            println!("{prefix}{:<36} {:>16} {}{mark}", m.name, fmt_value(m.value), m.unit);
        }
    }
}

/// Per-op samples of named layer quantities; each reports its median.
#[derive(Debug, Default)]
pub struct Samples {
    by_name: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    pub fn push(&mut self, name: &str, value: f64) {
        match self.by_name.get_mut(name) {
            Some(v) => v.push(value),
            None => {
                self.by_name.insert(name.to_string(), vec![value]);
            }
        }
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Median of the named series, 0.0 when nothing was recorded.
    pub fn median(&self, name: &str) -> f64 {
        median(self.get(name))
    }
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() < 1e-3 || v.abs() >= 1e7) {
        format!("{v:.6e}")
    } else {
        format!("{v:.6}")
    }
}

/// A JSON number; non-finite values (which JSON cannot carry) become 0.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints every significant digit and always a decimal
        // point or exponent, so integers stay recognizably floats.
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_beyond() {
        assert_eq!(tail_percentile(1000, 99), 99);
        assert_eq!(tail_percentile(100, 90), 90);
        assert_eq!(tail_percentile(40, 90), 75);
        assert_eq!(tail_percentile(15, 90), 50);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.0);
        assert_eq!(percentile(&xs, 75), 3.0);
        assert_eq!(percentile(&[], 50), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_numbers_and_strings() {
        assert_eq!(json_num(1.0), "1.0");
        assert_eq!(json_num(f64::NAN), "0.0");
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
