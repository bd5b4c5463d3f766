//! `risa-lint` — the workspace's determinism/concurrency static-analysis
//! pass: the correctness **control plane** for invariants that the
//! differential test batteries can only check dynamically.
//!
//! Every guarantee this reproduction trades on — byte-identical reports at
//! any thread count, FEL backend, arrival mode, or fault scenario — rests
//! on a handful of source-level invariants that used to live as prose in
//! README/ROADMAP. This crate encodes them as named, individually
//! suppressable rules and walks every workspace source file:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `wall_clock` | no `Instant::now`/`SystemTime::now` outside `SchedTimer`, `risa-bench`, `risa-cli` |
//! | `hash_state` | no `HashMap`/`HashSet` in engine-crate state or report paths |
//! | `rng_seed` | RNG seeds only via `stream_seed`/`chain_seed` derivation |
//! | `thread_primitive` | no threads/locks/atomics outside `vendor/rayon` |
//! | `env_read` | no environment reads in engine crates (nothing env-dependent may reach `RunReport`) |
//!
//! A finding is suppressed with an in-source **waiver** that must carry a
//! reason:
//!
//! ```text
//! // risa-lint: allow(hash_state) — keyed access only, never iterated onto a report
//! ```
//!
//! on the offending line or the line directly above it. A waiver without a
//! reason is itself an error (`bad_waiver`); a waiver that suppresses
//! nothing is a warning (`unused_waiver`, promoted to an error by
//! `--deny-warnings`).
//!
//! The analysis is deliberately a hand-rolled lexer plus a line-oriented
//! rule engine — no rustc plugin, no external dependency — consistent with
//! the workspace's vendored-stand-in policy. The lexer strips comments and
//! string/char-literal contents (so `"HashMap"` in a message never fires)
//! and tracks `#[cfg(test)]` regions by brace depth (test code may use
//! threads, clocks and ad-hoc seeds; the contract covers shipped engine
//! code). Files under `tests/` or `benches/` directories are test code
//! wholesale.
//!
//! Entry points: [`lint_source`] (one file, logical path), [`lint_workspace`]
//! (walk the tree), [`render_text`]/[`render_json`] (reports), and the
//! `risa-lint` binary / `risa-cli lint` subcommand with stable exit codes
//! (0 clean, 1 findings, 2 internal error).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

mod lexer;
mod rules;
mod walk;

pub use lexer::{clean_source, Line};
pub use rules::{lint_source, RULE_IDS};
pub use walk::{find_workspace_root, lint_workspace, workspace_files};

/// How bad a finding is. Errors always fail the run (exit 1); warnings
/// fail it only under `--deny-warnings`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Contract violation: fails the lint.
    Error,
    /// Hygiene problem (e.g. an unused waiver).
    Warning,
}

/// One lint finding, waived or not.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (see [`RULE_IDS`]).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
    /// Error or warning.
    pub severity: Severity,
    /// `Some(reason)` when an in-source waiver suppressed this finding;
    /// waived findings never affect the exit code.
    pub waiver_reason: Option<String>,
}

impl Finding {
    /// True when this finding counts against the exit code.
    pub fn is_active(&self) -> bool {
        self.waiver_reason.is_none()
    }
}

/// Exit code for a finding set: 0 clean, 1 active errors (or active
/// warnings under `deny_warnings`). Internal errors (exit 2) are handled
/// by the callers, not here.
pub fn exit_code(findings: &[Finding], deny_warnings: bool) -> u8 {
    let fails = findings
        .iter()
        .any(|f| f.is_active() && (f.severity == Severity::Error || deny_warnings));
    u8::from(fails)
}

/// Plain-text report: one `file:line: [rule] message` per active finding
/// (and, with `show_waived`, one `waived` line per suppressed one),
/// followed by a summary line.
pub fn render_text(findings: &[Finding], show_waived: bool) -> String {
    let mut out = String::new();
    let mut active = 0usize;
    let mut waived = 0usize;
    for f in findings {
        match &f.waiver_reason {
            None => {
                active += 1;
                let sev = match f.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                };
                let _ = writeln!(
                    out,
                    "{}:{}: {sev}[{}] {}",
                    f.file, f.line, f.rule, f.message
                );
            }
            Some(reason) => {
                waived += 1;
                if show_waived {
                    let _ = writeln!(
                        out,
                        "{}:{}: waived[{}] {} (reason: {reason})",
                        f.file, f.line, f.rule, f.message
                    );
                }
            }
        }
    }
    let _ = writeln!(out, "risa-lint: {active} finding(s), {waived} waived");
    out
}

/// Machine-readable report: `{"schema":"risa-lint/v1","findings":[…],
/// "waived":[…]}` where every entry carries `file`, `line`, `rule`,
/// `severity`, `message` and (waived only) `waiver_reason`.
pub fn render_json(findings: &[Finding]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out
    }
    fn entry(f: &Finding) -> String {
        let sev = match f.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        let mut s = format!(
            "{{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"severity\": \"{sev}\", \"message\": \"{}\"",
            esc(&f.file),
            f.line,
            esc(f.rule),
            esc(&f.message)
        );
        if let Some(reason) = &f.waiver_reason {
            let _ = write!(s, ", \"waiver_reason\": \"{}\"", esc(reason));
        }
        s.push('}');
        s
    }
    let active: Vec<String> = findings
        .iter()
        .filter(|f| f.is_active())
        .map(entry)
        .collect();
    let waived: Vec<String> = findings
        .iter()
        .filter(|f| !f.is_active())
        .map(entry)
        .collect();
    format!(
        "{{\n  \"schema\": \"risa-lint/v1\",\n  \"findings\": [{}],\n  \"waived\": [{}]\n}}\n",
        if active.is_empty() {
            String::new()
        } else {
            format!("\n    {}\n  ", active.join(",\n    "))
        },
        if waived.is_empty() {
            String::new()
        } else {
            format!("\n    {}\n  ", waived.join(",\n    "))
        },
    )
}

/// Group findings per file for the workspace walk: deterministic
/// (BTreeMap) ordering regardless of directory enumeration order.
pub fn sort_findings(findings: &mut Vec<Finding>) {
    let mut grouped: BTreeMap<(String, usize, &'static str), Vec<Finding>> = BTreeMap::new();
    for f in findings.drain(..) {
        grouped
            .entry((f.file.clone(), f.line, f.rule))
            .or_default()
            .push(f);
    }
    *findings = grouped.into_values().flatten().collect();
}

/// Normalize a path for reports: workspace-relative, forward slashes.
pub fn logical_path(root: &Path, file: &Path) -> String {
    let rel: PathBuf = file.strip_prefix(root).unwrap_or(file).to_path_buf();
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
