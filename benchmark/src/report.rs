//! What one workload run reports, and how it is printed.

use std::fmt::Write as _;
use std::time::Instant;

use crate::spec::RunArgs;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The outcome of one workload run: the oracle's verdict and every number
/// measured, gated or not.
#[derive(Debug, Default)]
pub struct Report {
    /// Source tuples injected plus reconfiguration calls made.
    pub attempted: u64,
    /// Result mismatches plus dropped sends plus failed calls.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(
            self.get(&name).is_none(),
            "metric {name} reported twice in one run"
        );
        self.metrics.push(Metric { name, value, unit });
    }

    /// Report the median of `values` under `name`, with its quartiles and
    /// sample count beside it as `name.q1`, `name.q3` and `name.n`.
    pub fn put_median(&mut self, name: &str, values: &[f64], unit: &'static str) {
        self.put(name, crate::stats::median(values), unit);
        if values.len() >= 2 {
            let (q1, _, q3) = crate::stats::quartiles(values);
            self.put(format!("{name}.q1"), q1, unit);
            self.put(format!("{name}.q3"), q3, unit);
        }
        self.put(format!("{name}.n"), values.len() as f64, "count");
    }

    /// Set up `args`' workload `times` times over (once in quick mode) —
    /// dropping each result before building the next — report the median as
    /// `setup_s`, and return the last one built. The median is what a later
    /// change that moves work into set-up is held to.
    pub fn time_setups<T>(
        &mut self,
        args: &RunArgs,
        times: usize,
        mut build: impl FnMut() -> T,
    ) -> T {
        let mut seconds = Vec::new();
        let mut last = None;
        for _ in 0..if args.quick { 1 } else { times } {
            drop(last.take());
            let started = Instant::now();
            last = Some(build());
            seconds.push(started.elapsed().as_secs_f64());
        }
        self.put_median("setup_s", &seconds, "s");
        last.expect("at least one set-up")
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Every metric as a `name value unit` line.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(out, "{} {} {}", m.name, m.value, m.unit);
        }
        out
    }

    /// The result line: `correct`, `attempted`, `failed` and the `declared`
    /// metrics, each of which this run must have measured.
    pub fn result_json(&self, declared: &[crate::spec::Declared]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, d) in declared.iter().enumerate() {
            let metric = self
                .metrics
                .iter()
                .find(|m| m.name == d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if metric.unit != d.unit {
                return Err(format!(
                    "metric {} measured in {} but declared in {}",
                    d.name, metric.unit, d.unit
                ));
            }
            if !metric.value.is_finite() {
                return Err(format!("metric {} is {}", d.name, metric.value));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name, metric.value, d.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// Parse `name value unit` lines back (the parent process reads its
/// children's output this way). Lines of any other shape are skipped.
pub fn parse_lines(text: &str) -> Vec<(String, f64, String)> {
    text.lines()
        .filter_map(|line| {
            let mut parts = line.split(' ');
            let (name, value, unit) = (parts.next()?, parts.next()?, parts.next()?);
            if parts.next().is_some() {
                return None;
            }
            Some((name.to_string(), value.parse().ok()?, unit.to_string()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Declared;

    #[test]
    fn result_line_holds_exactly_the_declared_metrics() {
        let mut report = Report {
            attempted: 10,
            ..Default::default()
        };
        report.put("a_ms", 1.25, "ms");
        report.put("extra", 3.0, "count");
        let declared = [Declared::new("a_ms", "ms")];
        assert_eq!(
            report.result_json(&declared).unwrap(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(report
            .result_json(&[Declared::new("missing", "ms")])
            .is_err());
        assert!(report.result_json(&[Declared::new("a_ms", "s")]).is_err());
    }

    #[test]
    fn lines_round_trip() {
        let mut report = Report::default();
        report.put_median("x_ms", &[1.0, 2.0, 4.0], "ms");
        let parsed = parse_lines(&format!("noise line here too\n{}", report.lines()));
        let names: Vec<&str> = parsed.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["x_ms", "x_ms.q1", "x_ms.q3", "x_ms.n"]);
        assert_eq!(parsed[0].1, 2.0);
        assert_eq!(parsed[3], ("x_ms.n".to_string(), 3.0, "count".to_string()));
    }
}
