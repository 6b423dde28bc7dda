//! Figure 12: filter-based DIPRS under partial context reuse — recall of
//! the 2-hop search vs naive pruning, and measured latency (claim and
//! sweep: `alaya_bench::fig12`). Exits non-zero if the claim fails; the
//! latencies are printed, never judged.
//!
//! Run: `cargo run --release -p alaya-bench --bin fig12_filter_diprs [--full]`

use alaya_bench::{fig12, finish, fmt_secs, print_header, print_row, Scale};

fn main() {
    let scale = Scale::from_args();
    let prefix = scale.pick(4000, 40_000);
    let rows = fig12::measure(prefix, scale.pick(32, 100));

    println!("\nFigure 12: filter-based DIPRS — recall and latency (prefix={prefix})\n");
    let widths = [10, 6, 7, 13, 9];
    let header = ["index size", "reuse", "recall", "naive recall", "latency"];
    print_header(&header, &widths);
    for r in &rows {
        print_row(
            &[
                r.index_size.to_string(),
                format!("{:.0}%", r.reuse_ratio_pct),
                format!("{:.3}", r.recall),
                format!("{:.3}", r.naive_recall),
                fmt_secs(r.latency_s),
            ],
            &widths,
        );
    }
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        println!(
            "\nlatency {} -> {} ({:.1}x) as the index grows {:.0}x (paper: +1.13ms)",
            fmt_secs(first.latency_s),
            fmt_secs(last.latency_s),
            last.latency_s / first.latency_s.max(1e-12),
            last.index_size as f64 / first.index_size as f64,
        );
    }
    finish(fig12::check(&rows));
}
