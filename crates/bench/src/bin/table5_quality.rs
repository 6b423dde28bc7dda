//! Table 5: generation quality on the ∞-Bench-analogue suite, with each
//! method's measured mean attended tokens (claim and methods:
//! `alaya_bench::table5`). Exits non-zero if the claim fails.
//!
//! Run: `cargo run --release -p alaya-bench --bin table5_quality [--full]`

use alaya_bench::{finish, print_header, print_row, table5, Scale};

fn main() {
    let scale = Scale::from_args();
    let (ctx, instances) = (scale.pick(3000, 16_000), scale.pick(12, 40));
    let rows = table5::measure(ctx, instances);

    let mut header = vec!["Method", "Setting", "attended"];
    if let Some(r) = rows.first() {
        header.extend(r.scores.iter().map(|(task, _)| task.as_str()));
    }
    header.push("Avg.");
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| h.len().max(if i < 2 { 24 } else { 7 }))
        .collect();
    println!("\nTable 5: generation quality on the InfiniteBench-analogue suite (ctx={ctx}, {instances} instances/task)\n");
    print_header(&header, &widths);
    for r in &rows {
        let mut cells = vec![
            r.method.clone(),
            r.setting.clone(),
            format!("{:.0}", r.mean_attended),
        ];
        cells.extend(r.scores.iter().map(|(_, acc)| format!("{acc:.1}")));
        cells.push(format!("{:.1}", r.average));
        print_row(&cells, &widths);
    }
    finish(table5::check(&rows));
}
