//! The deny-by-default invariants. Each rule walks the blanked source
//! model from [`crate::scan`] and yields findings; anything it flags must
//! either be fixed or carry a justified entry in `alaya-lint.allow`.

use crate::scan::SourceFile;

/// One rule violation.
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (stable; the allowlist keys on it).
    pub rule: &'static str,
    /// Human message.
    pub message: String,
    /// The offending source line, as written (trimmed) — allowlist
    /// entries match on a substring of this, so they pin to the code, not
    /// to a line number.
    pub excerpt: String,
}

/// Runs every rule over `file`.
pub fn check(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    unsafe_safety_comment(file, &mut out);
    thread_spawn_outside_pool(file, &mut out);
    no_unwrap_hot_path(file, &mut out);
    guard_across_pool_call(file, &mut out);
    time_in_kernel(file, &mut out);
    time_outside_clock(file, &mut out);
    no_print_in_lib(file, &mut out);
    out
}

fn finding(file: &SourceFile, i: usize, rule: &'static str, message: String) -> Finding {
    Finding {
        file: file.rel_path.clone(),
        line: i + 1,
        rule,
        message,
        excerpt: file.lines[i].raw.trim().to_string(),
    }
}

/// Does `code` contain `word` as a standalone token (not part of a longer
/// identifier)?
fn has_word(code: &str, word: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0
            || !code[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = code[at + word.len()..].chars().next();
        let after_ok = !after.is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = at + word.len();
    }
    false
}

/// How many lines above an `unsafe` block the `// SAFETY:` comment may sit.
const SAFETY_LOOKBACK: usize = 10;

/// Every `unsafe` block or fn must be introduced by a `SAFETY:` comment:
/// either within the preceding few lines, or anywhere in the contiguous
/// run of comment-only lines sitting directly above the `unsafe` line
/// (so a long justification does not outgrow the window).
fn unsafe_safety_comment(file: &SourceFile, out: &mut Vec<Finding>) {
    for (i, line) in file.lines.iter().enumerate() {
        if !has_word(&line.code, "unsafe") {
            continue;
        }
        let lo = i.saturating_sub(SAFETY_LOOKBACK);
        let mut documented = file.lines[lo..=i]
            .iter()
            .any(|l| l.comment.contains("SAFETY:"));
        let mut j = i;
        while !documented && j > 0 {
            j -= 1;
            let above = &file.lines[j];
            if !above.code.trim().is_empty() {
                break;
            }
            documented = above.comment.contains("SAFETY:");
        }
        if !documented {
            out.push(finding(
                file,
                i,
                "unsafe-safety-comment",
                format!(
                    "`unsafe` without a `// SAFETY:` comment within the {SAFETY_LOOKBACK} preceding lines"
                ),
            ));
        }
    }
}

/// All thread creation goes through the device pool; ad-hoc threads dodge
/// the pool's sizing, naming and lock-tracing discipline.
fn thread_spawn_outside_pool(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.rel_path.starts_with("crates/") || file.rel_path == "crates/device/src/pool.rs" {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if line.code.contains("thread::spawn") || line.code.contains("thread::Builder") {
            out.push(finding(
                file,
                i,
                "thread-spawn-outside-pool",
                "raw thread creation outside alaya_device::pool".to_string(),
            ));
        }
    }
}

/// Crates whose non-test code must not panic on fallible paths: the
/// serving stack answers requests with typed errors; a stray `.unwrap()`
/// aborts a co-batched tenant's request or a whole worker. The attention
/// executor and the query layer are what every served head runs.
const NO_PANIC_CRATES: [&str; 5] = [
    "crates/serve/src/",
    "crates/core/src/",
    "crates/device/src/",
    "crates/attention/src/",
    "crates/query/src/",
];

fn no_unwrap_hot_path(file: &SourceFile, out: &mut Vec<Finding>) {
    if !NO_PANIC_CRATES.iter().any(|p| file.rel_path.starts_with(p)) {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (pat, what) in [
            (".unwrap()", ".unwrap()"),
            (".expect(", ".expect(..)"),
            ("panic!(", "panic!"),
        ] {
            if line.code.contains(pat) {
                out.push(finding(
                    file,
                    i,
                    "no-unwrap-hot-path",
                    format!("{what} in non-test serving-path code"),
                ));
            }
        }
    }
}

/// Call fragments that hand work to the pool or run attention; holding a
/// lock guard across them risks deadlock (pool workers may need the same
/// lock) and serializes the batch.
const POOL_CALLS: [&str; 7] = [
    "pool.execute(",
    "pool.scope(",
    "pool.map(",
    "pool.map_bounded(",
    "global().execute(",
    "global().map_bounded(",
    ".attention(",
];

/// Heuristic, lexical: a `let` binding whose initializer takes a lock (or
/// whose declared type names a guard) must not stay live across a pool
/// submission or attention call. Scope is brace-matched from the binding;
/// an explicit `drop(name)` ends it early.
fn guard_across_pool_call(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.rel_path.starts_with("crates/") || !file.rel_path.contains("/src/") {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let Some(let_pos) = code.find("let ") else {
            continue;
        };
        let rest = &code[let_pos + 4..];
        let takes_lock = [".lock()", ".read()", ".write()"]
            .iter()
            .any(|p| rest.contains(p));
        let guard_type = rest.contains("Guard");
        if !takes_lock && !guard_type {
            continue;
        }
        let name = rest
            .trim_start()
            .trim_start_matches("mut ")
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .next()
            .unwrap_or("")
            .to_string();
        if name.is_empty() || name == "_" {
            continue;
        }
        // Walk to the end of the binding's scope (brace depth below the
        // declaration level) or to `drop(name)`.
        let mut depth: i32 = 0;
        let drop_marker = format!("drop({name})");
        for (j, later) in file.lines.iter().enumerate().skip(i) {
            let scan_from = if j == i { let_pos } else { 0 };
            if j > i && later.code.contains(&drop_marker) {
                break;
            }
            if POOL_CALLS.iter().any(|p| later.code.contains(p)) {
                out.push(finding(
                    file,
                    i,
                    "guard-across-pool-call",
                    format!(
                        "lock guard `{name}` is live across a pool/attention call at line {}",
                        j + 1
                    ),
                ));
                break;
            }
            for c in later.code[scan_from..].chars() {
                match c {
                    '{' => depth += 1,
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if depth < 0 {
                break;
            }
        }
    }
}

/// Kernel crates must stay clock-free: timing belongs to the harnesses
/// (workloads, bench), not inside the math the paper measures.
const KERNEL_CRATES: [&str; 2] = ["crates/vector/src/", "crates/attention/src/"];

fn time_in_kernel(file: &SourceFile, out: &mut Vec<Finding>) {
    if !KERNEL_CRATES.iter().any(|p| file.rel_path.starts_with(p)) {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in ["Instant::now", "SystemTime::now"] {
            if line.code.contains(pat) {
                out.push(finding(
                    file,
                    i,
                    "time-in-kernel",
                    format!("{pat} inside a kernel crate"),
                ));
            }
        }
    }
}

/// Crates whose scheduling/deadline logic must read time through the
/// injectable `Clock` trait, so chaos tests can drive it with a
/// `ManualClock`. A raw clock read anywhere else in these crates is
/// untestable-by-construction time.
const CLOCKED_CRATES: [&str; 2] = ["crates/serve/src/", "crates/device/src/"];

/// The one module allowed to read the real clock: `SystemClock` lives
/// here and everything else goes through the trait.
const CLOCK_MODULE: &str = "crates/device/src/clock.rs";

fn time_outside_clock(file: &SourceFile, out: &mut Vec<Finding>) {
    if !CLOCKED_CRATES.iter().any(|p| file.rel_path.starts_with(p)) || file.rel_path == CLOCK_MODULE
    {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for pat in ["Instant::now", "SystemTime::now"] {
            if line.code.contains(pat) {
                out.push(finding(
                    file,
                    i,
                    "time-outside-clock",
                    format!("{pat} outside {CLOCK_MODULE}: read time via the Clock trait"),
                ));
            }
        }
    }
}

/// Library crates whose non-test code must not write to stdout/stderr:
/// the serving stack reports through `alaya-telemetry` (counters, spans,
/// the flight recorder), and a stray `println!` both corrupts any
/// machine-readable output the caller is producing and hides state from
/// the recorder's post-mortem dumps. Binaries (bench, lint) are exempt —
/// printing is their job.
const NO_PRINT_CRATES: [&str; 5] = [
    "crates/serve/src/",
    "crates/core/src/",
    "crates/device/src/",
    "crates/storage/src/",
    "crates/telemetry/src/",
];

fn no_print_in_lib(file: &SourceFile, out: &mut Vec<Finding>) {
    if !NO_PRINT_CRATES.iter().any(|p| file.rel_path.starts_with(p)) {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for name in ["println", "eprintln", "print", "eprint", "dbg"] {
            // `has_word` keeps `println!` from also matching inside
            // `eprintln!`; requiring the `!` skips plain identifiers.
            if has_word(&line.code, name) && line.code.contains(&format!("{name}!")) {
                out.push(finding(
                    file,
                    i,
                    "no-print-in-lib",
                    format!("{name}! in non-test library code: report via telemetry instead"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::analyze;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        check(&analyze(path, src))
    }

    #[test]
    fn undocumented_unsafe_is_flagged_and_safety_comment_clears_it() {
        let bad = findings("crates/x/src/a.rs", "fn f() { unsafe { g(); } }\n");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "unsafe-safety-comment");
        let good = findings(
            "crates/x/src/a.rs",
            "// SAFETY: g has no preconditions.\nfn f() { unsafe { g(); } }\n",
        );
        assert!(good.is_empty());
        // `unsafe` in a string or comment is not a block.
        let masked = findings(
            "crates/x/src/a.rs",
            "let s = \"unsafe\"; // unsafe mentioned\n",
        );
        assert!(masked.is_empty());
    }

    #[test]
    fn thread_spawn_is_flagged_outside_pool_and_tests() {
        let bad = findings("crates/x/src/a.rs", "let h = std::thread::spawn(|| 1);\n");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "thread-spawn-outside-pool");
        let pool = findings(
            "crates/device/src/pool.rs",
            "let h = std::thread::spawn(|| 1);\n",
        );
        assert!(pool.iter().all(|f| f.rule != "thread-spawn-outside-pool"));
        let test = findings(
            "crates/x/src/a.rs",
            "#[cfg(test)]\nmod tests {\n fn t() { std::thread::spawn(|| 1); }\n}\n",
        );
        assert!(test.is_empty());
    }

    #[test]
    fn unwrap_rule_is_scoped_to_the_serving_stack() {
        for served in ["crates/serve/src/a.rs", "crates/attention/src/a.rs"] {
            let bad = findings(served, "x.unwrap();\ny.expect(\"m\");\n");
            assert_eq!(bad.len(), 2);
            assert!(bad.iter().all(|f| f.rule == "no-unwrap-hot-path"));
        }
        let elsewhere = findings("crates/workloads/src/a.rs", "x.unwrap();\n");
        assert!(elsewhere.is_empty());
    }

    #[test]
    fn guard_across_pool_call_is_brace_and_drop_aware() {
        let bad = findings(
            "crates/x/src/a.rs",
            "fn f() {\n let g = m.lock();\n pool.scope(|s| {});\n}\n",
        );
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "guard-across-pool-call");
        // Guard scoped to an inner block that closes first: fine.
        let scoped = findings(
            "crates/x/src/a.rs",
            "fn f() {\n { let g = m.lock(); use_it(&g); }\n pool.scope(|s| {});\n}\n",
        );
        assert!(scoped.is_empty());
        // Explicit drop before the call: fine.
        let dropped = findings(
            "crates/x/src/a.rs",
            "fn f() {\n let g = m.lock();\n drop(g);\n pool.scope(|s| {});\n}\n",
        );
        assert!(dropped.is_empty());
        // Declared guard type without a visible .lock() also counts.
        let typed = findings(
            "crates/x/src/a.rs",
            "fn f() {\n let g: MutexGuard<'_, T> = slot.lock_it();\n pool.execute(|| {});\n}\n",
        );
        assert_eq!(typed.len(), 1);
    }

    #[test]
    fn print_macros_are_flagged_in_library_code_only() {
        let bad = findings(
            "crates/serve/src/a.rs",
            "println!(\"x\");\neprintln!(\"y\");\ndbg!(z);\n",
        );
        assert_eq!(bad.len(), 3);
        assert!(bad.iter().all(|f| f.rule == "no-print-in-lib"));
        // `eprintln!` is one finding, not a nested `println!` match too.
        let eprint = findings("crates/core/src/a.rs", "eprintln!(\"y\");\n");
        assert_eq!(eprint.len(), 1);
        assert!(eprint[0].message.starts_with("eprintln!"));
        // Test code, binaries, and harness crates may print freely.
        let test = findings(
            "crates/storage/src/a.rs",
            "#[cfg(test)]\nmod tests {\n fn t() { println!(\"dbg\"); }\n}\n",
        );
        assert!(test.is_empty());
        let bench = findings("crates/bench/src/bin/b.rs", "println!(\"row\");\n");
        assert!(bench.is_empty());
        // A comment or string mentioning the macro is not a call.
        let masked = findings(
            "crates/device/src/a.rs",
            "// println! is banned here\nlet s = \"println!\";\n",
        );
        assert!(masked.is_empty());
    }

    #[test]
    fn kernel_crates_must_not_read_clocks() {
        let bad = findings("crates/vector/src/a.rs", "let t = Instant::now();\n");
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "time-in-kernel");
        let harness = findings("crates/workloads/src/a.rs", "let t = Instant::now();\n");
        assert!(harness.is_empty());
    }

    #[test]
    fn serve_and_device_read_time_only_through_the_clock_module() {
        for path in ["crates/serve/src/sched.rs", "crates/device/src/pool.rs"] {
            let bad = findings(path, "let t = Instant::now();\n");
            assert!(
                bad.iter().any(|f| f.rule == "time-outside-clock"),
                "{path} must be clock-disciplined"
            );
        }
        let sys = findings("crates/serve/src/a.rs", "let t = SystemTime::now();\n");
        assert!(sys.iter().any(|f| f.rule == "time-outside-clock"));
        // The clock module itself, test code, and other crates are exempt.
        let clock = findings("crates/device/src/clock.rs", "let t = Instant::now();\n");
        assert!(clock.is_empty());
        let test = findings(
            "crates/serve/src/a.rs",
            "#[cfg(test)]\nmod tests {\n fn t() { let t = Instant::now(); }\n}\n",
        );
        assert!(test.is_empty());
        let harness = findings("crates/bench/src/a.rs", "let t = Instant::now();\n");
        assert!(harness.is_empty());
    }
}
