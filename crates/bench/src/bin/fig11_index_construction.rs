//! Figure 11: GQA-based index sharing — index count, memory and measured
//! build time, one index per query head vs one per KV head (claim and
//! setup: `alaya_bench::fig11`). Exits non-zero if the claim fails; the
//! times are printed, never judged.
//!
//! Run: `cargo run --release -p alaya-bench --bin fig11_index_construction [--full]`

use alaya_bench::{fig11, finish, fmt_bytes, fmt_secs, print_header, print_row, Scale};

fn main() {
    let scale = Scale::from_args();
    let rows = fig11::measure(&scale.pick(
        [1000usize, 2000, 4000, 8000],
        [4000, 10_000, 20_000, 40_000],
    ));

    println!("\nFigure 11: RoarGraph construction per layer, unshared vs GQA-shared\n");
    let widths = [8, 12, 10, 9, 8, 8];
    let header = [
        "context",
        "indexes per",
        "time",
        "memory",
        "indexes",
        "speedup",
    ];
    print_header(&header, &widths);
    for pair in rows.chunks(2) {
        for r in pair {
            print_row(
                &[
                    r.context_len.to_string(),
                    if r.shared { "KV head" } else { "query head" }.into(),
                    fmt_secs(r.seconds),
                    fmt_bytes(r.bytes as u64),
                    r.n_indexes.to_string(),
                    format!("{:.1}x", pair[0].seconds / r.seconds.max(1e-12)),
                ],
                &widths,
            );
        }
    }
    finish(fig11::check(&rows));
}
