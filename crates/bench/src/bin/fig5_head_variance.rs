//! Figure 5: critical tokens per head — 90 % recovery vs DIPR at one β
//! (claim and sizes: `alaya_bench::fig5`). Exits non-zero if the claim
//! fails.
//!
//! Run: `cargo run --release -p alaya-bench --bin fig5_head_variance [--full]`

use alaya_bench::{fig5, finish, print_header, print_row, Scale};

fn main() {
    let scale = Scale::from_args();
    let ctx = scale.pick(20_000, 100_000);
    let points = fig5::measure(ctx, scale.pick(4, 1));

    println!("\nFigure 5: critical tokens per head — 90% recovery vs DIPR (ctx={ctx})\n");
    let widths = [6, 5, 11, 8];
    print_header(&["layer", "head", "recovery90", "DIPR"], &widths);
    for p in &points {
        print_row(
            &[p.layer, p.head, p.recovery90_tokens, p.dipr_tokens].map(|v| v.to_string()),
            &widths,
        );
    }
    let mean = |f: fn(&fig5::HeadPoint) -> usize| {
        points.iter().map(|p| f(p) as f64).sum::<f64>() / points.len() as f64
    };
    println!(
        "\nmean recovery90 = {:.2}   mean DIPR(beta={:.0}) = {:.2}",
        mean(|p| p.recovery90_tokens),
        fig5::beta(),
        mean(|p| p.dipr_tokens)
    );
    println!("(paper annotates 4592.18 vs 4648.99 at beta=110 on the real model)");
    finish(fig5::check(&points));
}
