//! Exact-repeat fingerprints: the seed-determined counts of a unit of work
//! (moves, move kinds, oracle counters, traced event counts), compared
//! across the passes of one invocation. Each run record also carries a
//! digest of them, so two runs of the same work can be compared by hand;
//! that comparison is never a failure, because a change to the engine may
//! rightly change the counts.

/// FNV-1a digest of a pass's fingerprints, for the run record.
pub fn digest(fingerprints: &str) -> String {
    format!("{:016x}", ncg_lab::fnv1a(fingerprints.as_bytes()))
}

use crate::report::Report;

/// Verdicts of one workload's fingerprint comparisons.
#[derive(Debug, Default)]
pub struct Verdicts {
    pub compared: u64,
    pub mismatched: Vec<String>,
}

impl Verdicts {
    /// Records one comparison.
    pub fn record(&mut self, what: &str, equal: bool) {
        self.compared += 1;
        if !equal {
            self.mismatched.push(what.to_string());
        }
    }

    pub fn summary(&self) -> String {
        if self.mismatched.is_empty() {
            format!("{} comparison(s), all exact", self.compared)
        } else {
            format!(
                "{} comparison(s), mismatched: {}",
                self.compared,
                self.mismatched.join(", ")
            )
        }
    }

    /// Counts the comparisons as one checked operation, failed on any
    /// mismatch, and reports them.
    pub fn report(&self, workload: &str, out: &mut Report) {
        out.check(self.mismatched.is_empty(), || {
            format!("{workload}: fingerprint mismatch: {}", self.summary())
        });
        out.note("fingerprint", self.summary());
        out.metric(
            "fingerprint.mismatches",
            self.mismatched.len() as f64,
            "count",
        );
        out.metric("fingerprint.comparisons", self.compared as f64, "count");
    }
}
