//! The result line: one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every output check passed (on the operations that did not fail).
    pub correct: bool,
    /// Operations attempted: cells for the sweeps, ticks and reopens
    /// for the stream.
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Failed checks, one line each (printed to stderr).
    pub problems: Vec<String>,
}

impl Outcome {
    /// Append a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Value of a metric by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line. Non-finite values cannot be written as JSON
    /// numbers; they are reported as `null` and make the run incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && finite,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_result_line() {
        let mut o = Outcome {
            correct: true,
            attempted: 10,
            failed: 1,
            ..Outcome::default()
        };
        o.push("setup_s", 0.5, "s");
        o.push("samples_per_s", 1234.5678, "samples/s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": {\"setup_s\": \
             {\"value\": 0.5, \"unit\": \"s\"}, \"samples_per_s\": {\"value\": 1234.5678, \
             \"unit\": \"samples/s\"}}}"
        );
        o.push("bad", f64::NAN, "s");
        assert!(o.to_json().starts_with("{\"correct\": false"));
    }
}
