//! What one run measured, checked and printed.

use std::fmt::Write as _;

/// A named figure with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms` or `Mitem/s`.
    pub unit: &'static str,
}

/// Everything a workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (from an untraced run).
    pub metrics: Vec<Figure>,
    /// Per-layer metrics (from a traced run).
    pub layers: Vec<Figure>,
    /// End-to-end figures that only some workloads have; printed for the
    /// reader, not part of the result object.
    pub info: Vec<Figure>,
    /// Free-form context: sample counts, phase lengths.
    pub notes: Vec<String>,
    /// Failed correctness checks; any entry fails the run.
    pub failures: Vec<String>,
    /// Operations attempted (ingest batches or pushes, and queries).
    pub attempted: u64,
    /// Operations that failed, were refused or timed out.
    pub failed: u64,
    /// The workload's main end-to-end figure, for the tracing overhead.
    pub headline: f64,
    /// Resident set size once the inputs existed, in kB.
    pub rss_base_kb: Option<u64>,
}

fn put(list: &mut Vec<Figure>, name: &'static str, value: f64, unit: &'static str) {
    list.retain(|f| f.name != name);
    list.push(Figure { name, value, unit });
}

impl Report {
    /// Records an end-to-end metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        put(&mut self.metrics, name, value, unit);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        put(&mut self.layers, name, value, unit);
    }

    /// Records a workload-specific end-to-end figure.
    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str) {
        put(&mut self.info, name, value, unit);
    }

    /// Adds context for the reader.
    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// Counts operations.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Sets the workload's main end-to-end figure.
    pub fn headline(&mut self, value: f64) {
        self.headline = value;
    }

    /// Marks the inputs as generated: memory growth is measured from here.
    pub fn inputs_ready(&mut self) {
        self.rss_base_kb = crate::host::reset_peak_rss_kb();
    }
}

/// Whether `name` is a legal metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, figures: &[Figure]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{",
        attempted.max(1)
    );
    for (i, f) in figures.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // `{}` prints the shortest decimal that reads back as the same f64.
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            f.name, f.value, f.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_pattern() {
        assert!(valid_name("pipeline.snapshot_p50_ms"));
        assert!(valid_name("max_qps_at_slo"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("p50 ms"));
        assert!(!valid_name(""));
    }

    #[test]
    fn result_object_has_exactly_the_four_keys() {
        let json = result_json(
            true,
            3,
            0,
            &[Figure {
                name: "setup_s",
                value: 0.0123456789,
                unit: "s",
            }],
        );
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.0123456789, \"unit\": \"s\"}}}"
        );
    }
}
