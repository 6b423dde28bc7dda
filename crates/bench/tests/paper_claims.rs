//! Every paper claim the reproduction binaries print, asserted in tier-1.
//!
//! For each claim, one test runs the `alaya_bench` module's `measure` at
//! small, deterministic sizes and requires its `check` to pass; named
//! negative tests feed `check` rows broken the way a regression would break
//! them and require it to fail with its own message. The negative tests
//! start from hand-written rows taken from a quick-scale run, which must
//! pass before they are broken, so they stay instant and independent of
//! the measurements.

use alaya_bench::{fig11, fig12, fig5, fig6, fig9, table3, table5, Verdict};

/// Passes the claim's headline through to `--nocapture` output.
fn holds(verdict: Verdict) {
    match verdict {
        Ok(headline) => println!("{headline}"),
        Err(why) => panic!("claim failed: {why}"),
    }
}

/// `example` passes `check`; after `break_rows` it fails with `message`.
fn breaks<T>(
    check: fn(&[T]) -> Verdict,
    mut example: Vec<T>,
    break_rows: impl FnOnce(&mut Vec<T>),
    message: &str,
) {
    holds(check(&example));
    break_rows(&mut example);
    match check(&example) {
        Ok(headline) => panic!("broken rows passed the check: {headline}"),
        Err(why) => assert!(
            why.contains(message),
            "failed with {why:?}, expected {message:?}"
        ),
    }
}

// --- Figure 5 ------------------------------------------------------------

#[test]
fn fig5_critical_token_counts_vary_across_heads_and_one_beta_tracks_them() {
    holds(fig5::check(&fig5::measure(4000, 4)));
}

fn head(recovery90_tokens: usize, dipr_tokens: usize) -> fig5::HeadPoint {
    fig5::HeadPoint {
        layer: 0,
        head: 0,
        profile_n_critical: 0,
        recovery90_tokens,
        dipr_tokens,
    }
}

fn fig5_example() -> Vec<fig5::HeadPoint> {
    vec![head(46, 63), head(1025, 1424), head(9417, 14886)]
}

#[test]
fn fig5_fixed_k_in_place_of_dipr_fails() {
    let fixed_k =
        |rows: &mut Vec<fig5::HeadPoint>| rows.iter_mut().for_each(|p| p.dipr_tokens = 100);
    breaks(
        fig5::check,
        fig5_example(),
        fixed_k,
        "one fixed beta does not track",
    );
}

#[test]
fn fig5_uniform_heads_fail() {
    let uniform =
        |rows: &mut Vec<fig5::HeadPoint>| rows.iter_mut().for_each(|p| p.recovery90_tokens = 100);
    breaks(
        fig5::check,
        fig5_example(),
        uniform,
        "one fixed k would fit every head",
    );
}

// --- Figure 6 ------------------------------------------------------------

#[test]
fn fig6_dipr_reaches_top_accuracy_with_fewer_tokens_than_topk() {
    holds(fig6::check(&fig6::measure(1500, 12)));
}

fn sweep_point(task: &str, method: &str, mean_tokens: f64, accuracy: f64) -> fig6::SweepPoint {
    fig6::SweepPoint {
        task: task.into(),
        method: method.into(),
        param: 0.0,
        mean_tokens,
        accuracy,
    }
}

fn fig6_example() -> Vec<fig6::SweepPoint> {
    vec![
        sweep_point("Passage R.", "topk", 400.0, 62.5),
        sweep_point("Passage R.", "topk", 800.0, 100.0),
        sweep_point("Passage R.", "dipr", 321.8, 4.2),
        sweep_point("Passage R.", "dipr", 466.8, 100.0),
        sweep_point("LCC", "topk", 100.0, 58.3),
        sweep_point("LCC", "topk", 200.0, 100.0),
        sweep_point("LCC", "dipr", 95.1, 25.0),
        sweep_point("LCC", "dipr", 134.4, 100.0),
    ]
}

#[test]
fn fig6_dipr_fed_topk_selections_fails() {
    let dipr_is_topk = |rows: &mut Vec<fig6::SweepPoint>| {
        rows.retain(|p| p.method == "topk");
        let copies: Vec<_> = rows
            .iter()
            .map(|p| sweep_point(&p.task, "dipr", p.mean_tokens, p.accuracy))
            .collect();
        rows.extend(copies);
    };
    breaks(
        fig6::check,
        fig6_example(),
        dipr_is_topk,
        "DIPR is not cheaper",
    );
}

// --- Figure 9 ------------------------------------------------------------

#[test]
fn fig9_diprs_is_on_the_quality_memory_pareto_front() {
    holds(fig9::check(&fig9::measure(1200, 4)));
}

fn mem_point(
    task: &str,
    method: &str,
    cache_pct: Option<f64>,
    gb: f64,
    accuracy: f64,
) -> fig9::MemPoint {
    fig9::MemPoint {
        task: task.into(),
        method: method.into(),
        cache_pct,
        gpu_bytes: (gb * 1e9) as u64,
        accuracy,
    }
}

fn fig9_example() -> Vec<fig9::MemPoint> {
    fig9::TASKS
        .iter()
        .flat_map(|kind| {
            let task = kind.name();
            [
                mem_point(task, "InfLLM[16+64]", Some(50.0), 23.55, 100.0),
                mem_point(task, "StreamingLLM[16+60]", Some(2.0), 15.36, 58.3),
                mem_point(task, "Top100", None, 15.09, 16.7),
                mem_point(task, "DIPRS(beta=23)", None, 15.09, 100.0),
            ]
        })
        .collect()
}

#[test]
fn fig9_diprs_below_top100_at_equal_memory_fails() {
    let weak_diprs = |rows: &mut Vec<fig9::MemPoint>| {
        for p in rows.iter_mut().filter(|p| p.method.starts_with("DIPRS")) {
            p.accuracy = 10.0;
        }
    };
    breaks(
        fig9::check,
        fig9_example(),
        weak_diprs,
        "DIPRS is not on the Pareto front",
    );
}

#[test]
fn fig9_cache_sweep_charged_only_the_window_fails() {
    let cache_uncharged = |rows: &mut Vec<fig9::MemPoint>| {
        for p in rows.iter_mut().filter(|p| p.method.starts_with("InfLLM")) {
            p.gpu_bytes = 15_090_000_000;
        }
    };
    breaks(
        fig9::check,
        fig9_example(),
        cache_uncharged,
        "matches DIPRS's accuracy",
    );
}

// --- Figure 11 -----------------------------------------------------------

#[test]
fn fig11_gqa_sharing_cuts_index_count_and_bytes_by_the_group_size() {
    holds(fig11::check(&fig11::measure(&[500])));
}

fn fig11_example() -> Vec<fig11::BuildRow> {
    let build = |shared, bytes, n_indexes| fig11::BuildRow {
        context_len: 1000,
        shared,
        seconds: 0.0,
        bytes,
        n_indexes,
    };
    vec![build(false, 718_300, 8), build(true, 179_500, 2)]
}

#[test]
fn fig11_unshared_build_in_place_of_shared_fails() {
    let unshared = |rows: &mut Vec<fig11::BuildRow>| {
        rows[1] = fig11::BuildRow {
            shared: true,
            ..rows[0].clone()
        }
    };
    breaks(fig11::check, fig11_example(), unshared, "indexes, expected");
}

#[test]
fn fig11_shared_bytes_off_the_group_size_fail() {
    let bloated = |rows: &mut Vec<fig11::BuildRow>| rows[1].bytes *= 2;
    breaks(fig11::check, fig11_example(), bloated, "not the group size");
}

// --- Figure 12 -----------------------------------------------------------

#[test]
fn fig12_two_hop_filtered_recall_holds_under_partial_reuse() {
    holds(fig12::check(&fig12::measure(400, 32)));
}

fn fig12_example() -> Vec<fig12::FilterRow> {
    let row = |reuse_ratio_pct, recall, naive_recall| fig12::FilterRow {
        index_size: 0,
        reuse_ratio_pct,
        recall,
        naive_recall,
        latency_s: 0.0,
    };
    vec![
        row(100.0, 0.912, 0.912),
        row(60.0, 0.960, 0.788),
        row(20.0, 0.919, 0.0),
    ]
}

#[test]
fn fig12_without_two_hop_expansion_fails() {
    let naive =
        |rows: &mut Vec<fig12::FilterRow>| rows.iter_mut().for_each(|r| r.recall = r.naive_recall);
    breaks(
        fig12::check,
        fig12_example(),
        naive,
        "the 2-hop expansion buys nothing",
    );
}

#[test]
fn fig12_recall_below_the_floor_fails() {
    let lossy = |rows: &mut Vec<fig12::FilterRow>| {
        for r in rows.iter_mut() {
            r.recall -= 0.2;
            r.naive_recall -= 0.2;
        }
    };
    breaks(fig12::check, fig12_example(), lossy, "is below 0.9");
}

// --- Table 3 -------------------------------------------------------------

#[test]
fn table3_required_k_differs_per_task() {
    holds(table3::check(&table3::measure(2500, 8)));
}

fn table3_example() -> Vec<table3::TaskRow> {
    let row = |task: &str, required_k| table3::TaskRow {
        task: task.into(),
        required_k,
        proportion_pct: 0.0,
        full_attention_correct: 8,
        instances: 8,
        reference_m: 0,
    };
    vec![row("Qasper", 1000), row("QMSum", 150), row("TriviaQA", 20)]
}

#[test]
fn table3_full_attention_off_the_ceiling_fails_the_precondition() {
    let off_ceiling = |rows: &mut Vec<table3::TaskRow>| rows[0].full_attention_correct = 4;
    breaks(
        table3::check,
        table3_example(),
        off_ceiling,
        "precondition: full attention misses",
    );
}

#[test]
fn table3_one_k_for_every_task_fails() {
    let one_k = |rows: &mut Vec<table3::TaskRow>| rows.iter_mut().for_each(|r| r.required_k = 100);
    breaks(
        table3::check,
        table3_example(),
        one_k,
        "one static k would fit every task",
    );
}

// --- Table 5 -------------------------------------------------------------

#[test]
fn table5_diprs_matches_full_attention_and_beats_fixed_budgets() {
    holds(table5::check(&table5::measure(800, 4)));
}

fn table5_example() -> Vec<table5::MethodRow> {
    let row = |method: &str, average| table5::MethodRow {
        method: method.into(),
        setting: String::new(),
        scores: Vec::new(),
        average,
        mean_attended: 0.0,
    };
    vec![
        row("Full Attention", 99.0),
        row("InfLLM[16+128]", 70.8),
        row("StreamingLLM[16+256]", 19.8),
        row("Top100", 72.9),
        row("Top2000", 99.0),
        row("DIPRS(beta=23)", 99.0),
    ]
}

/// The row whose method name starts with `prefix`.
fn method<'a>(rows: &'a mut [table5::MethodRow], prefix: &str) -> &'a mut table5::MethodRow {
    rows.iter_mut()
        .find(|r| r.method.starts_with(prefix))
        .expect("a row per method")
}

#[test]
fn table5_diprs_below_full_attention_fails() {
    let weak_diprs = |rows: &mut Vec<table5::MethodRow>| method(rows, "DIPRS").average = 97.0;
    breaks(
        table5::check,
        table5_example(),
        weak_diprs,
        "point below full attention",
    );
}

#[test]
fn table5_top100_as_good_as_diprs_fails() {
    let strong_top100 = |rows: &mut Vec<table5::MethodRow>| method(rows, "Top100").average = 99.0;
    breaks(
        table5::check,
        table5_example(),
        strong_top100,
        "not above Top100",
    );
}
