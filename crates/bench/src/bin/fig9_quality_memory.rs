//! Figure 9: generation quality vs GPU memory on En.MC and En.QA (claim,
//! methods and memory accounting: `alaya_bench::fig9`). Exits non-zero if
//! the claim fails.
//!
//! Run: `cargo run --release -p alaya-bench --bin fig9_quality_memory [--full]`

use alaya_bench::{fig9, finish, fmt_bytes, print_header, print_row, Scale};

fn main() {
    let scale = Scale::from_args();
    let points = fig9::measure(scale.pick(3000, 12_000), scale.pick(12, 40));

    let widths = [22, 8, 11, 9];
    for kind in fig9::TASKS {
        println!("\nFigure 9 ({}): quality vs GPU memory\n", kind.name());
        print_header(&["method", "cache", "GPU memory", "accuracy"], &widths);
        for p in points.iter().filter(|p| p.task == kind.name()) {
            print_row(
                &[
                    p.method.clone(),
                    p.cache_pct.map_or("-".into(), |c| format!("{c:.0}%")),
                    fmt_bytes(p.gpu_bytes),
                    format!("{:.1}", p.accuracy),
                ],
                &widths,
            );
        }
    }
    finish(fig9::check(&points));
}
