//! Shared harness for the paper-reproduction experiment binaries.
//!
//! Every table and figure in the paper's evaluation (§9) has one binary in
//! `src/bin/` that regenerates it (PAPER.md, "Evaluation shape reproduced
//! here"). The
//! helpers here cover what all of them need: scaled experiment sizing
//! (laptop-scale by default, `--full` for paper-scale), result tables on
//! stdout, JSON dumps under `results/`, and the latency model that
//! converts *measured* CPU-side costs plus *modeled* GPU-side costs into
//! paper-scale TPOT estimates (each binary's header documents its own
//! modeling split).

use std::io::Write as _;
use std::path::PathBuf;

use alaya_device::cost::CostModel;
use serde::Serialize;

pub mod latency;

pub use latency::{modeled_tpot, TpotInputs};

/// Experiment scale: every binary supports a reduced default (minutes on a
/// laptop) and `--full` (closer to paper scale; hours).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes; shapes preserved.
    Quick,
    /// Paper-scale sizes where feasible.
    Full,
}

impl Scale {
    /// Parses process arguments (`--full` selects [`Scale::Full`]).
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Picks `quick` or `full` by scale.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// The paper's hardware/model cost model (L20 + Llama-3-8B-262k).
pub fn paper_cost_model() -> CostModel {
    CostModel::paper_rig()
}

/// Prints a fixed-width table row.
pub fn print_row(cells: &[String], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cells.iter().zip(widths) {
        line.push_str(&format!("{:<w$}  ", c, w = w));
    }
    println!("{}", line.trim_end());
}

/// Prints a header row plus separator.
pub fn print_header(cells: &[&str], widths: &[usize]) {
    print_row(
        &cells.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        widths,
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
}

/// Writes an experiment's JSON record into `results/` at the workspace
/// root.
pub fn write_json<T: Serialize>(experiment: &str, value: &T) {
    let dir = results_dir();
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{experiment}.json"));
    if let Ok(mut f) = std::fs::File::create(&path) {
        let _ = f.write_all(
            serde_json::to_string_pretty(value)
                .unwrap_or_default()
                .as_bytes(),
        );
        eprintln!("[wrote {}]", path.display());
    }
}

/// `results/` directory at the workspace root (falls back to CWD).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench → workspace root is two up.
    let base = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .map(|p| p.join("../.."))
        .unwrap_or_else(|_| PathBuf::from("."));
    base.join("results")
}

/// Formats seconds human-readably (µs/ms/s).
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}us", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.2}s", s)
    }
}

/// Formats bytes human-readably (KB/MB/GB, decimal).
pub fn fmt_bytes(b: u64) -> String {
    let b = b as f64;
    if b >= 1e9 {
        format!("{:.2}GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.1}MB", b / 1e6)
    } else {
        format!("{:.1}KB", b / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_secs(5e-6), "5.0us");
        assert_eq!(fmt_secs(0.0123), "12.30ms");
        assert_eq!(fmt_secs(3.5), "3.50s");
        assert_eq!(fmt_bytes(1500), "1.5KB");
        assert_eq!(fmt_bytes(2_500_000), "2.5MB");
        assert_eq!(fmt_bytes(48_000_000_000), "48.00GB");
    }
}
