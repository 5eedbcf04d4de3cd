//! The result of one benchmark run and its printed form.

use std::fmt::Write as _;

use crate::calib::{Calibration, Slice};

/// One run's end-to-end metrics as measured, before scaling.
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub minstr_per_s: f64,
    pub req_per_s: f64,
    /// `None` when the median falls on a failed operation.
    pub p50_us: Option<f64>,
}

/// One run's outcome: human-readable notes first, then one JSON object
/// as the last line of standard output.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks beyond per-operation failures (digests, execution
    /// counts); any entry makes the run incorrect.
    pub check_failures: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// Records the end-to-end metrics at the reference host speed —
    /// times multiplied by the run's calibrated speed, rates divided by
    /// it, memory as measured — and notes the measured values. Set-up
    /// is scaled by both slices; the operations by `slice`.
    pub fn end_to_end(&mut self, e: &EndToEnd, calib: &Calibration, slice: Slice) {
        let setup_speed = calib.speed(Slice::Both);
        let speed = calib.speed(slice);
        self.note(format!(
            "measured: setup_s={} sim_minstr_per_s={} req_per_s={} p50_us={}; host speed \
             {setup_speed:.4} (both slices), {:.4} (loopback) of reference over {} calibration samples",
            e.setup_s,
            e.minstr_per_s,
            e.req_per_s,
            e.p50_us.map_or("n/a".to_owned(), |v| v.to_string()),
            calib.speed(Slice::Loopback),
            calib.samples()
        ));
        self.metric("setup_s", e.setup_s * setup_speed, "s");
        self.metric("peak_rss_mb", e.peak_rss_mb, "MiB");
        self.metric("sim_minstr_per_s", e.minstr_per_s / speed, "Minstr/s");
        self.metric("req_per_s", e.req_per_s / speed, "1/s");
        self.check(e.p50_us.is_some(), || {
            "the median falls on a failed operation".to_owned()
        });
        self.metric("p50_us", e.p50_us.unwrap_or(0.0) * speed, "us");
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty() && self.attempted > 0
    }

    /// Everything but the last line: notes, failed checks, and each
    /// metric by name and unit.
    pub fn human(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for failure in &self.check_failures {
            let _ = writeln!(out, "# CHECK FAILED: {failure}");
        }
        let _ = writeln!(
            out,
            "# operations: attempted={} failed={} correct={}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "# {name:<28} {value:>18.6} {unit}");
        }
        out
    }

    /// The result line. Non-finite values cannot be written as JSON
    /// numbers; they are reported as 0 and fail the run.
    pub fn json(&self) -> String {
        let bad: Vec<&str> = self
            .metrics
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.as_str())
            .collect();
        let correct = self.correct() && bad.is_empty();
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident set (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or_else(|| format!("no VmHWM in {path}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("p50_us", 41.5, "us");
        r.metric("setup_s", 1.0, "s");
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_us\": {\"value\": 41.5, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 1.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failures_and_bad_values_make_the_run_incorrect() {
        let mut r = Report {
            attempted: 3,
            failed: 1,
            ..Report::default()
        };
        assert!(!r.correct());
        r.failed = 0;
        r.check(false, || "digest mismatch".to_owned());
        assert!(!r.correct());
        let mut r = Report {
            attempted: 1,
            ..Report::default()
        };
        r.metric("x", f64::NAN, "s");
        assert!(r.json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mib("self").expect("procfs") > 0.0);
    }
}
