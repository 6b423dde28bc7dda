//! Figure 6: accuracy vs retrieved tokens — DIPR vs top-k on Passage
//! Retrieval and LCC (claim and sweeps: `alaya_bench::fig6`). Exits
//! non-zero if the claim fails.
//!
//! Run: `cargo run --release -p alaya-bench --bin fig6_dipr_vs_topk [--full]`

use alaya_bench::{fig6, finish, print_header, print_row, Scale};

fn main() {
    let scale = Scale::from_args();
    let points = fig6::measure(scale.pick(3000, 12_000), scale.pick(24, 80));

    let widths = [8, 10, 12, 9];
    for kind in fig6::TASKS {
        println!(
            "\nFigure 6 ({}): accuracy vs retrieved tokens\n",
            kind.name()
        );
        print_header(&["method", "param", "mean tokens", "accuracy"], &widths);
        for p in points.iter().filter(|p| p.task == kind.name()) {
            let (method, param) = match p.method.as_str() {
                "topk" => ("Top-k", format!("{}", p.param)),
                _ => ("DIPR", format!("b={:.1}", p.param)),
            };
            print_row(
                &[
                    method.into(),
                    param,
                    format!("{:.1}", p.mean_tokens),
                    format!("{:.1}", p.accuracy),
                ],
                &widths,
            );
        }
    }
    finish(fig6::check(&points));
}
