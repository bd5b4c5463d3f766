//! The determinism/concurrency rule set and the per-file rule engine.
//!
//! Rules are line-oriented and path-scoped; each can be suppressed by an
//! in-source waiver `// risa-lint: allow(rule, …) — reason` on the same
//! line or the line directly above. See the crate docs for the contract
//! each rule encodes.

use crate::lexer::{clean_source, is_ident_char};
use crate::{Finding, Severity};

/// Every rule id, for waiver validation and docs.
pub const RULE_IDS: [&str; 7] = [
    "wall_clock",
    "hash_state",
    "rng_seed",
    "thread_primitive",
    "env_read",
    "bad_waiver",
    "unused_waiver",
];

/// How many lines below a comment-only waiver the waived code line may
/// sit (doc comments and blank lines in between are skipped).
const WAIVER_REACH: usize = 6;

/// Needle: an exact token (boundary-checked substring) or an identifier
/// prefix (`Atomic` → `AtomicUsize`, `AtomicBool`, …).
enum Needle {
    Exact(&'static str),
    Prefix(&'static str),
}

/// Find a boundary-checked occurrence of `needle` in `code`.
fn hit(code: &str, needle: &Needle) -> Option<&'static str> {
    let (pat, prefix) = match needle {
        Needle::Exact(p) => (*p, false),
        Needle::Prefix(p) => (*p, true),
    };
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find(pat) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_char(bytes[at - 1] as char);
        let end = at + pat.len();
        let after_ok = if prefix {
            // A prefix needle must be continued by an identifier char
            // (`Atomic` alone is not a primitive).
            end < bytes.len() && is_ident_char(bytes[end] as char)
        } else {
            let last = pat.as_bytes()[pat.len() - 1] as char;
            !is_ident_char(last) || end >= bytes.len() || !is_ident_char(bytes[end] as char)
        };
        if before_ok && after_ok {
            return Some(pat);
        }
        start = at + pat.len().max(1);
    }
    None
}

/// True when any path component is `tests` or `benches` — whole-file
/// test/bench code, exempt from the engine-code rules.
fn is_test_path(path: &str) -> bool {
    path.split('/').any(|c| c == "tests" || c == "benches")
}

fn in_vendor_rayon(path: &str) -> bool {
    path.starts_with("vendor/rayon/")
}

/// Crates whose *state* must be hash-free (iteration order can reach a
/// report): the engine, the simulator driver, the schedulers, and the
/// workload generators.
fn in_hash_scope(path: &str) -> bool {
    [
        "crates/des/src/",
        "crates/sim/src/",
        "crates/core/src/",
        "crates/workload/src/",
    ]
    .iter()
    .any(|p| path.starts_with(p))
}

/// Crates where environment reads are forbidden (nothing env-dependent
/// may flow into a `RunReport`): every library crate plus the facade.
fn in_env_scope(path: &str) -> bool {
    if path.starts_with("src/") {
        return true;
    }
    ["bench", "cli", "lint"]
        .iter()
        .all(|exempt| !path.starts_with(&format!("crates/{exempt}/")))
        && path.starts_with("crates/")
}

/// Timing code that legitimately reads the wall clock.
fn wall_clock_exempt(path: &str) -> bool {
    path.starts_with("crates/bench/") || path.starts_with("crates/cli/")
}

/// Files that *are* the sanctioned seed-derivation helpers.
fn rng_exempt(path: &str) -> bool {
    path == "crates/workload/src/shard.rs" || path == "crates/sim/src/faults.rs"
}

/// A parsed `risa-lint: allow(...)` waiver.
struct Waiver {
    line: usize,
    rules: Vec<String>,
    reason: String,
    /// Line the waiver suppresses findings on.
    target: Option<usize>,
    used: bool,
    malformed: Option<String>,
}

/// Extract a waiver from one line's comment text, if present.
fn parse_waiver(line: usize, comment: &str) -> Option<Waiver> {
    let marker = "risa-lint:";
    let at = comment.find(marker)?;
    // Quoted examples in docs are not waivers: skip when the marker sits
    // inside backticks or behind a nested `//` (a commented-out line or a
    // fenced code block inside a doc comment).
    let before = &comment[..at];
    if before.contains("//") || before.trim_end().ends_with('`') {
        return None;
    }
    let rest = comment[at + marker.len()..].trim_start();
    let mut w = Waiver {
        line,
        rules: Vec::new(),
        reason: String::new(),
        target: None,
        used: false,
        malformed: None,
    };
    let Some(args) = rest.strip_prefix("allow(") else {
        w.malformed = Some("expected `allow(rule, …)` after `risa-lint:`".into());
        return Some(w);
    };
    let Some(close) = args.find(')') else {
        w.malformed = Some("unclosed `allow(`".into());
        return Some(w);
    };
    for rule in args[..close].split(',') {
        let rule = rule.trim().to_string();
        if rule.is_empty() {
            continue;
        }
        if !RULE_IDS.contains(&rule.as_str()) {
            w.malformed = Some(format!("unknown rule `{rule}` in waiver"));
            return Some(w);
        }
        w.rules.push(rule);
    }
    if w.rules.is_empty() {
        w.malformed = Some("waiver allows no rules".into());
        return Some(w);
    }
    // Reason: everything after the close paren, minus a leading dash/colon.
    let reason = args[close + 1..]
        .trim_start()
        .trim_start_matches(['—', '–', '-', ':'])
        .trim();
    if reason.is_empty() {
        w.malformed =
            Some("waiver missing a reason: write `risa-lint: allow(rule) — <why>`".into());
        return Some(w);
    }
    w.reason = reason.to_string();
    Some(w)
}

/// Lint one file's source under its workspace-relative `path` (forward
/// slashes). Returns every finding, including waived ones (with their
/// reason attached); callers filter on [`Finding::is_active`].
pub fn lint_source(path: &str, source: &str) -> Vec<Finding> {
    let lines = clean_source(source);
    let test_file = is_test_path(path);

    // Pass 1: collect waivers and resolve their targets.
    let mut waivers: Vec<Waiver> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if let Some(mut w) = parse_waiver(idx, &line.comment) {
            if w.malformed.is_none() {
                w.target = if !line.code.trim().is_empty() {
                    Some(idx)
                } else {
                    lines
                        .iter()
                        .enumerate()
                        .skip(idx + 1)
                        .take(WAIVER_REACH)
                        .find(|(_, l)| !l.code.trim().is_empty())
                        .map(|(j, _)| j)
                };
            }
            waivers.push(w);
        }
    }

    // Pass 2: run the rules.
    let mut findings: Vec<Finding> = Vec::new();
    let mut raw: Vec<(usize, &'static str, String)> = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.as_str();
        if code.trim().is_empty() {
            continue;
        }
        if test_file || line.in_test {
            continue; // the rules exempt test code
        }

        // D1: wall-clock reads.
        if !wall_clock_exempt(path) {
            for n in [
                Needle::Exact("Instant::now"),
                Needle::Exact("SystemTime::now"),
            ] {
                if let Some(tok) = hit(code, &n) {
                    raw.push((
                        idx,
                        "wall_clock",
                        format!(
                            "wall-clock read (`{tok}`) outside sanctioned timing code \
                             (SchedTimer / risa-bench / risa-cli); engine code must derive \
                             time from SimTime only"
                        ),
                    ));
                }
            }
        }

        // D2: hash-ordered collections in engine state.
        if in_hash_scope(path) {
            for n in [Needle::Exact("HashMap"), Needle::Exact("HashSet")] {
                if let Some(tok) = hit(code, &n) {
                    raw.push((
                        idx,
                        "hash_state",
                        format!(
                            "`{tok}` in engine code: hash iteration order is nondeterministic \
                             and may reach a report path — use BTreeMap/BTreeSet, or waive \
                             with a reason proving no ordered iteration escapes"
                        ),
                    ));
                }
            }
        }

        // D3: ad-hoc RNG seeding.
        if !rng_exempt(path) && !in_vendor_rayon(path) {
            for n in [
                Needle::Exact("seed_from_u64"),
                Needle::Exact("from_seed"),
                Needle::Exact("from_entropy"),
                Needle::Exact("thread_rng"),
            ] {
                if let Some(tok) = hit(code, &n) {
                    raw.push((
                        idx,
                        "rng_seed",
                        format!(
                            "ad-hoc RNG construction (`{tok}`): seeds must come from the \
                             SplitMix derivation helpers (risa_workload::shard::stream_seed \
                             or the fault-chain chain_seed)"
                        ),
                    ));
                }
            }
        }

        // D4: concurrency primitives outside the vendored pool.
        if !in_vendor_rayon(path) {
            for n in [
                Needle::Exact("thread::spawn"),
                Needle::Exact("Mutex"),
                Needle::Exact("RwLock"),
                Needle::Exact("Condvar"),
                Needle::Exact("mpsc"),
                Needle::Prefix("Atomic"),
            ] {
                if let Some(tok) = hit(code, &n) {
                    raw.push((
                        idx,
                        "thread_primitive",
                        format!(
                            "concurrency primitive (`{tok}`) outside vendor/rayon: all \
                             parallelism must go through the pool so thread count can \
                             never change a result"
                        ),
                    ));
                }
            }
        }

        // D6: environment reads in engine crates.
        if in_env_scope(path) {
            for n in [
                Needle::Exact("env::var"),
                Needle::Exact("var_os"),
                Needle::Exact("env!("),
                Needle::Exact("option_env!("),
            ] {
                if let Some(tok) = hit(code, &n) {
                    raw.push((
                        idx,
                        "env_read",
                        format!(
                            "environment read (`{tok}`) in engine code: env-dependent values \
                             must never flow into RunReport fields — waive with a reason \
                             naming the config surface it selects"
                        ),
                    ));
                }
            }
        }
    }

    // Pass 3: apply waivers.
    for (line, rule, message) in raw {
        let mut reason = None;
        for w in waivers.iter_mut() {
            if w.malformed.is_none() && w.target == Some(line) && w.rules.iter().any(|r| r == rule)
            {
                reason = Some(w.reason.clone());
                w.used = true;
                break;
            }
        }
        findings.push(Finding {
            file: path.to_string(),
            line: line + 1,
            rule,
            message,
            severity: Severity::Error,
            waiver_reason: reason,
        });
    }

    // Pass 4: waiver hygiene.
    for w in &waivers {
        if let Some(why) = &w.malformed {
            findings.push(Finding {
                file: path.to_string(),
                line: w.line + 1,
                rule: "bad_waiver",
                message: why.clone(),
                severity: Severity::Error,
                waiver_reason: None,
            });
        } else if !w.used {
            findings.push(Finding {
                file: path.to_string(),
                line: w.line + 1,
                rule: "unused_waiver",
                message: format!(
                    "waiver for `{}` suppresses nothing on its target line",
                    w.rules.join(", ")
                ),
                severity: Severity::Warning,
                waiver_reason: None,
            });
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active(findings: &[Finding]) -> Vec<(&'static str, usize)> {
        findings
            .iter()
            .filter(|f| f.is_active())
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn boundary_checked_needles() {
        // `MyHashMapLike` must not fire; `HashMap` must (one finding per
        // needle per line).
        let f = lint_source(
            "crates/sim/src/x.rs",
            "struct MyHashMapLike;\nlet m: HashMap<u8, u8> = HashMap::new();\n",
        );
        assert_eq!(active(&f), vec![("hash_state", 2)]);
    }

    #[test]
    fn atomic_prefix_needs_continuation() {
        let f = lint_source("crates/sim/src/x.rs", "let a = AtomicUsize::new(0);\n");
        assert_eq!(active(&f), vec![("thread_primitive", 1)]);
        let f = lint_source("crates/sim/src/x.rs", "// Atomic\nlet atomic_ops = 3;\n");
        assert!(active(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn same_line_waiver_consumes_and_is_used() {
        let src = "let m = HashMap::new(); // risa-lint: allow(hash_state) — keyed only\n";
        let f = lint_source("crates/sim/src/x.rs", src);
        assert!(active(&f).is_empty(), "{f:?}");
        let waived: Vec<_> = f.iter().filter(|x| !x.is_active()).collect();
        assert_eq!(waived.len(), 1);
        assert_eq!(waived[0].waiver_reason.as_deref(), Some("keyed only"));
    }

    #[test]
    fn waiver_above_reaches_next_code_line() {
        let src = "// risa-lint: allow(wall_clock) - sanctioned timer\n\
                   /// doc comment\n\
                   let t = Instant::now();\n";
        let f = lint_source("crates/sim/src/x.rs", src);
        assert!(active(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn waiver_without_reason_is_an_error() {
        let src = "let m = HashMap::new(); // risa-lint: allow(hash_state)\n";
        let f = lint_source("crates/sim/src/x.rs", src);
        let rules = active(&f);
        assert!(rules.contains(&("bad_waiver", 1)), "{rules:?}");
        assert!(
            rules.contains(&("hash_state", 1)),
            "malformed waiver must not suppress"
        );
    }

    #[test]
    fn unknown_rule_in_waiver_is_an_error() {
        let src = "let x = 1; // risa-lint: allow(hash_stat) — typo\n";
        let f = lint_source("crates/sim/src/x.rs", src);
        assert_eq!(active(&f), vec![("bad_waiver", 1)]);
    }

    #[test]
    fn unused_waiver_is_a_warning() {
        let src = "// risa-lint: allow(hash_state) — nothing here\nlet x = 1;\n";
        let f = lint_source("crates/sim/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "unused_waiver");
        assert_eq!(f[0].severity, Severity::Warning);
    }

    #[test]
    fn scopes_exempt_the_right_paths() {
        let clock = "let t = Instant::now();\n";
        assert!(active(&lint_source("crates/bench/benches/x.rs", clock)).is_empty());
        assert!(active(&lint_source("crates/cli/src/x.rs", clock)).is_empty());
        assert!(!active(&lint_source("crates/des/src/x.rs", clock)).is_empty());

        let hash = "let m = HashMap::new();\n";
        assert!(active(&lint_source("crates/metrics/src/x.rs", hash)).is_empty());
        assert!(!active(&lint_source("crates/workload/src/x.rs", hash)).is_empty());

        let seed = "let r = StdRng::seed_from_u64(42);\n";
        assert!(active(&lint_source("crates/workload/src/shard.rs", seed)).is_empty());
        assert!(!active(&lint_source("crates/workload/src/x.rs", seed)).is_empty());
    }

    #[test]
    fn test_code_is_exempt_from_engine_rules() {
        let src =
            "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let m = HashMap::new(); }\n}\n";
        assert!(active(&lint_source("crates/sim/src/x.rs", src)).is_empty());
        // Whole-file exemption for tests/ and benches/ paths.
        let clock = "let t = Instant::now();\n";
        assert!(active(&lint_source("crates/sim/tests/x.rs", clock)).is_empty());
        assert!(active(&lint_source("vendor/rayon/tests/x.rs", clock)).is_empty());
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "let s = \"Instant::now HashMap Mutex\"; // Instant::now\n/* seed_from_u64 */ let x = 1;\n";
        assert!(active(&lint_source("crates/sim/src/x.rs", src)).is_empty());
    }

    #[test]
    fn env_reads_flagged_in_engine_crates_only() {
        let src = "let v = std::env::var(\"RISA_FAULTS\");\n";
        assert_eq!(
            active(&lint_source("crates/des/src/x.rs", src)),
            vec![("env_read", 1)]
        );
        assert!(active(&lint_source("crates/cli/src/x.rs", src)).is_empty());
        assert!(active(&lint_source("crates/lint/src/x.rs", src)).is_empty());
    }
}
