//! Table 3: the number k of required tokens per task (claim, precondition
//! and sweep: `alaya_bench::table3`). Exits non-zero if the claim or its
//! precondition fails.
//!
//! Run: `cargo run --release -p alaya-bench --bin table3_task_k [--full]`

use alaya_bench::{finish, print_header, print_row, table3, Scale};

fn main() {
    let scale = Scale::from_args();
    let (ctx, instances) = (scale.pick(4000, 16_000), scale.pick(16, 48));
    let rows = table3::measure(ctx, instances);

    println!("\nTable 3: required k per task (ctx={ctx}, {instances} instances)\n");
    let widths = [12, 6, 11, 14, 8];
    let header = ["Task", "k", "proportion", "full-attn ok", "paper k"];
    print_header(&header, &widths);
    for r in &rows {
        print_row(
            &[
                r.task.clone(),
                r.required_k.to_string(),
                format!("{:.2}%", r.proportion_pct),
                format!("{}/{}", r.full_attention_correct, r.instances),
                r.reference_m.to_string(),
            ],
            &widths,
        );
    }
    finish(table3::check(&rows));
}
