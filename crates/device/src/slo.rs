//! Service Level Objectives for LLM serving.
//!
//! The paper measures two SLOs (§2): **TTFT** (Time-To-First-Token) bounds
//! the prefill phase and **TPOT** (Time-Per-Output-Token) bounds each decode
//! step. §9.1 fixes TPOT ≤ 0.24 s — the human reading speed from the
//! DistServe measurements the paper cites.

use serde::{Deserialize, Serialize};

/// An SLO specification for one serving workload.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Slo {
    /// Maximum acceptable Time-To-First-Token in seconds (`None` = unbounded).
    pub ttft_s: Option<f64>,
    /// Maximum acceptable Time-Per-Output-Token in seconds (`None` = unbounded).
    pub tpot_s: Option<f64>,
}

impl Slo {
    /// The paper's evaluation SLO: TPOT ≤ 0.24 s (human reading speed),
    /// TTFT unconstrained.
    pub fn reading_speed() -> Self {
        Self {
            ttft_s: None,
            tpot_s: Some(0.24),
        }
    }

    /// An SLO with both phases bounded.
    pub fn new(ttft_s: f64, tpot_s: f64) -> Self {
        Self {
            ttft_s: Some(ttft_s),
            tpot_s: Some(tpot_s),
        }
    }

    /// Checks measured latencies against this SLO.
    pub fn check(&self, ttft_s: f64, tpot_s: f64) -> SloReport {
        SloReport {
            ttft_s,
            tpot_s,
            ttft_ok: self.ttft_s.map(|lim| ttft_s <= lim).unwrap_or(true),
            tpot_ok: self.tpot_s.map(|lim| tpot_s <= lim).unwrap_or(true),
        }
    }
}

/// Result of checking measured latencies against an [`Slo`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SloReport {
    /// Measured Time-To-First-Token in seconds.
    pub ttft_s: f64,
    /// Measured Time-Per-Output-Token in seconds.
    pub tpot_s: f64,
    /// Whether the TTFT bound was met.
    pub ttft_ok: bool,
    /// Whether the TPOT bound was met.
    pub tpot_ok: bool,
}

impl SloReport {
    /// Whether every bound was met (Table 5's ✓/✗ column).
    pub fn satisfied(&self) -> bool {
        self.ttft_ok && self.tpot_ok
    }

    /// Paper-style marker string.
    pub fn marker(&self) -> &'static str {
        if self.satisfied() {
            "\u{2713}"
        } else {
            "\u{2717}"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reading_speed_slo_checks_tpot_only() {
        let slo = Slo::reading_speed();
        let ok = slo.check(3600.0, 0.2);
        assert!(ok.satisfied());
        let bad = slo.check(0.1, 0.3);
        assert!(!bad.satisfied());
        assert!(!bad.tpot_ok);
        assert!(bad.ttft_ok);
    }

    #[test]
    fn both_bounds_enforced() {
        let slo = Slo::new(1.0, 0.1);
        assert!(slo.check(0.9, 0.05).satisfied());
        assert!(!slo.check(1.1, 0.05).satisfied());
        assert!(!slo.check(0.9, 0.15).satisfied());
    }

    #[test]
    fn boundary_is_inclusive() {
        let slo = Slo::new(1.0, 0.24);
        assert!(slo.check(1.0, 0.24).satisfied());
    }

    #[test]
    fn markers() {
        let slo = Slo::reading_speed();
        assert_eq!(slo.check(0.0, 0.1).marker(), "✓");
        assert_eq!(slo.check(0.0, 1.0).marker(), "✗");
    }
}
