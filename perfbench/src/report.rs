//! What one run reports, and how it is printed.

use crate::trace::Tracer;

/// One measured value with its unit and the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The result of one run of one workload.
#[derive(Default)]
pub struct Outcome {
    /// False when any output check failed.
    pub correct: bool,
    /// Timed operations attempted, and how many failed or were refused.
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Other figures printed for people (per-operation names, validity checks).
    pub notes: Vec<Metric>,
    /// Reasons for any failed check.
    pub errors: Vec<String>,
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn note(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.notes.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Record a failed check; the run then reports `correct: false`.
    pub fn fail(&mut self, why: String) {
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
        self.correct = false;
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// A JSON number with all its digits (JSON has no NaN or infinity).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
