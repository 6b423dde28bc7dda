//! Paper claims as measurements plus predicates, and the shared harness of
//! the reproduction binaries.
//!
//! Each claim of the paper's evaluation (§9) that this repository can
//! measure has one module here: a `measure` function that runs the
//! experiment at the sizes it is given and returns its rows, and a `check`
//! predicate that reads only deterministic outputs of those rows (counts,
//! recall, accuracy, bytes — never wall-clock time) and returns the
//! headline as measured, or why the claim does not hold. Those functions
//! are the only implementation: `tests/paper_claims.rs` runs every one at
//! small sizes, and each binary in `src/bin/` is a printer over the same
//! pair at quick (default) or paper (`--full`) scale that exits non-zero
//! when its predicate fails. PAPER.md, "Evaluation shape reproduced here",
//! maps each claim to its predicate, test and binary.

use alaya_attention::{attend_selected, WindowSpec};
use alaya_vector::topk::ScoredIdx;
use alaya_workloads::TaskInstance;

pub mod fig11;
pub mod fig12;
pub mod fig5;
pub mod fig6;
pub mod fig9;
pub mod table3;
pub mod table5;

/// Head dimension of every synthetic workload the claims run on.
const DIM: usize = 32;

/// What a claim's predicate returns: the headline as measured, or the
/// reason the claim does not hold.
pub type Verdict = Result<String, String>;

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

/// Smallest and largest of `values`, or `None` if there are none.
fn min_max(values: impl IntoIterator<Item = f64>) -> Option<(f64, f64)> {
    values.into_iter().fold(None, |acc, v| match acc {
        None => Some((v, v)),
        Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
    })
}

/// Whether attention over a 16 + 32-token window plus `selected` answers
/// `inst`: the probe Figure 6 and Table 3 score a selection rule with.
fn answers(inst: &TaskInstance, selected: &[ScoredIdx]) -> bool {
    let ids: Vec<u32> = selected.iter().map(|s| s.idx as u32).collect();
    let scale = 1.0 / (inst.keys.dim() as f32).sqrt();
    let window = WindowSpec::new(16, 32);
    let out = attend_selected(&inst.query, &inst.keys, &inst.values, scale, window, &ids);
    inst.is_correct(&out.out)
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

/// Ends a reproduction binary: prints the verdict and exits with status 1
/// if the claim failed.
pub fn finish(verdict: Verdict) {
    match verdict {
        Ok(headline) => println!("\nclaim holds: {headline}"),
        Err(why) => {
            println!("\nCLAIM FAILED: {why}");
            std::process::exit(1);
        }
    }
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
