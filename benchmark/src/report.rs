//! Run options, the per-workload report, and its JSON forms.

use kmem_bench::JsonObj;

use crate::layers::LayerCosts;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::session::CloseReport;
use crate::stats::Summary;
use crate::workload::Scale;

/// What every run needs to know.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    pub scale: Scale,
    /// `min(available_parallelism, 4)`.
    pub host_threads: usize,
    /// `available_parallelism` itself, for the envelope.
    pub host_cpus: usize,
}

/// Decimal places of every measured number: nanoseconds of a `setup_s`,
/// and more digits than any timing repeats to.
const DIGITS: usize = 9;

/// Free text for a [`JsonObj`] string, which is written unescaped.
fn plain(text: &str) -> String {
    text.chars()
        .map(|c| match c {
            '"' => '\'',
            '\\' => '/',
            c if c.is_control() => ' ',
            c => c,
        })
        .collect()
}

/// One workload being measured. `round` is one interleavable slice of
/// work (a rep or two); the suite calls the five workloads' rounds in
/// turn so host noise spreads over all of them.
pub trait Bench {
    fn name(&self) -> &'static str;
    /// `drivers` is what the layer drivers measured for this round, and
    /// in `finish` over all rounds; empty unless the run is traced.
    fn round(&mut self, drivers: &LayerCosts);
    fn finish(self: Box<Self>, drivers: &LayerCosts) -> WorkloadReport;
}

/// Everything measured on one workload.
pub struct WorkloadReport {
    pub workload: &'static str,
    pub threads: usize,
    /// Metric name → summary over reps, in insertion order.
    pub metrics: Vec<(&'static str, Summary)>,
    /// Context that is not a declared metric (sample counts, ledger terms).
    pub notes: Vec<(String, f64)>,
    /// Free-text findings (largest ledger term, unresolved orderings).
    pub remarks: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Check failures; the run is incorrect when any exist.
    pub failures: Vec<String>,
}

impl WorkloadReport {
    pub fn new(workload: &'static str, threads: usize, close: CloseReport) -> Self {
        WorkloadReport {
            workload,
            threads,
            metrics: Vec::new(),
            notes: Vec::new(),
            remarks: Vec::new(),
            attempted: close.tally.total_calls().max(1),
            failed: close.tally.failed + close.tally.tag_bad,
            failures: close.failures,
        }
    }

    pub fn push(&mut self, name: &'static str, summary: Summary) {
        self.metrics.push((name, summary));
    }

    pub fn note(&mut self, name: impl Into<String>, value: f64) {
        self.notes.push((name.into(), value));
    }

    pub fn get(&self, name: &str) -> Option<&Summary> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| &m.1)
    }

    /// Checks that every metric of `declared` is present and finite,
    /// recording a failure for each that is not.
    pub fn require(&mut self, declared: &[&MetricDef]) {
        for def in declared {
            match self.get(def.name) {
                None => self.failures.push(format!("metric {} missing", def.name)),
                Some(s) if !s.value().is_finite() => self
                    .failures
                    .push(format!("metric {} is not finite", def.name)),
                Some(_) => {}
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    /// The driver's result line: `correct`, `attempted`, `failed` and the
    /// values of `declared` (a metric that is not finite is left out, and
    /// [`require`](Self::require) has already failed the run for it).
    pub fn result_line(&self, declared: &[&MetricDef]) -> String {
        let mut line = JsonObj::new();
        line.bool("correct", self.correct())
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .obj("metrics", |metrics| {
                for def in declared {
                    let Some(value) = self.get(def.name).map(Summary::value) else {
                        continue;
                    };
                    if value.is_finite() {
                        metrics.obj(def.name, |m| {
                            m.f64("value", value, DIGITS).str("unit", def.unit);
                        });
                    }
                }
            });
        line.finish()
    }

    /// The suite document's entry for this workload: every metric with its
    /// value, quartiles, minimum, sample count, and (end-to-end) its bound.
    pub fn write_json(&self, out: &mut JsonObj) {
        out.usize("threads", self.threads)
            .bool("correct", self.correct())
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .arr("failures", &self.failures, |failure, o| {
                o.str("what", &plain(failure));
            })
            .obj("metrics", |metrics| {
                for (name, s) in self.metrics.iter().filter(|m| m.1.value().is_finite()) {
                    metrics.obj(name, |m| {
                        if let Some(def) = find_def(name) {
                            m.str("unit", def.unit).str("better", def.better.as_str());
                        }
                        m.f64("value", s.value(), DIGITS)
                            .f64("median", s.median, DIGITS)
                            .f64("q1", s.q1, DIGITS)
                            .f64("q3", s.q3, DIGITS)
                            .f64("min", s.min, DIGITS)
                            .usize("n", s.n);
                        if let Some(bound) = bound_of(name) {
                            // A bound tighter than the spread this very run
                            // measured would flag noise as regression:
                            // print the wider of the two.
                            let spread = s.spread_of_value().unwrap_or(0.0);
                            m.f64("bound", bound.max(2.0 * spread), DIGITS).f64(
                                "spread",
                                s.spread(),
                                DIGITS,
                            );
                        }
                    });
                }
            })
            .obj("notes", |notes| {
                for (name, value) in self.notes.iter().filter(|n| n.1.is_finite()) {
                    notes.f64(name, *value, DIGITS);
                }
            })
            .arr("remarks", &self.remarks, |remark, o| {
                o.str("text", &plain(remark));
            });
    }
}

pub fn find_def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .map(|m| &m.0)
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END.iter().find(|m| m.0.name == name).map(|m| m.1)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::stats::summarize;
    use crate::workload::Tally;

    /// A report of `calls` calls holding `metrics`, one sample each.
    pub(crate) fn report_of(calls: u64, metrics: &[(&'static str, f64)]) -> WorkloadReport {
        let mut tally = Tally::default();
        tally.calls[0] = calls;
        let close = CloseReport {
            failures: Vec::new(),
            tally,
        };
        let mut report = WorkloadReport::new("pair", 2, close);
        for &(name, value) in metrics {
            report.push(name, summarize(&[value]));
        }
        report
    }

    #[test]
    fn result_line_holds_the_declared_metrics_with_all_their_digits() {
        let mut report = report_of(1000, &[("ns_per_op", 6.3827), ("setup_s", 0.074466367)]);
        let declared: Vec<&MetricDef> = END_TO_END.iter().map(|m| &m.0).collect();
        assert_eq!(
            report.result_line(&declared),
            r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"ns_per_op":{"value":6.382700000,"unit":"ns"},"setup_s":{"value":0.074466367,"unit":"s"}}}"#
        );
        // A missing or non-finite metric fails the run and is left out.
        report.push("frames_peak", summarize(&[f64::NAN]));
        report.require(&declared);
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
        let line = report.result_line(&declared);
        assert!(line.starts_with(r#"{"correct":false,"#) && !line.contains("NaN"));
    }

    #[test]
    fn free_text_is_made_plain_before_it_is_written_unescaped() {
        assert_eq!(plain("a \"b\" c\\d\ne"), "a 'b' c/d e");
        let mut report = report_of(1, &[]);
        report.failures.push("panicked at \"x\"\nline".into());
        let mut out = JsonObj::new();
        report.write_json(&mut out);
        assert!(out
            .finish()
            .contains(r#""failures":[{"what":"panicked at 'x' line"}]"#));
    }
}
