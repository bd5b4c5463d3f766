//! Fixture battery: every file under `tests/fixtures/` carries a
//! `//@ path: <logical path>` header (so path-scoped rules see the path
//! the fixture impersonates) and rustc-UI-style expectation markers on
//! the lines the lint must flag:
//!
//! ```text
//! let t = Instant::now(); //~ ERROR wall_clock
//! //~^ ERROR bad_waiver      (one line up)
//! //~^^ WARN unused_waiver   (two lines up)
//! ```
//!
//! The harness runs [`risa_lint::lint_source`] on each fixture and
//! requires the *active* findings to match the markers exactly — no
//! missing findings, no extras — which checks one true positive and one
//! true negative per rule, waiver parsing, and the lexer edge cases.

use risa_lint::{lint_source, Severity};
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// `(line, rule, severity)` triples expected by a fixture's markers.
fn expectations(source: &str) -> BTreeSet<(usize, String, &'static str)> {
    let mut out = BTreeSet::new();
    for (idx, line) in source.lines().enumerate() {
        let Some(at) = line.find("//~") else { continue };
        let rest = &line[at + 3..];
        let carets = rest.chars().take_while(|&c| c == '^').count();
        let rest = rest[carets..].trim_start();
        let (sev, rule) = if let Some(r) = rest.strip_prefix("ERROR ") {
            ("error", r)
        } else if let Some(r) = rest.strip_prefix("WARN ") {
            ("warning", r)
        } else {
            panic!("bad expectation marker: {line}");
        };
        out.insert((idx + 1 - carets, rule.trim().to_string(), sev));
    }
    out
}

/// The fixture's impersonated workspace path.
fn logical_path(source: &str) -> String {
    source
        .lines()
        .find_map(|l| l.strip_prefix("//@ path:"))
        .expect("fixture missing `//@ path:` header")
        .trim()
        .to_string()
}

#[test]
fn fixtures_match_their_markers() {
    let dir = fixtures_dir();
    let mut names: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .collect();
    names.sort();
    assert!(
        names.len() >= 13,
        "expected the full fixture battery, got {names:?}"
    );

    for path in names {
        let source = fs::read_to_string(&path).expect("read fixture");
        let expected = expectations(&source);
        let actual: BTreeSet<(usize, String, &'static str)> =
            lint_source(&logical_path(&source), &source)
                .into_iter()
                .filter(|f| f.is_active())
                .map(|f| {
                    let sev = match f.severity {
                        Severity::Error => "error",
                        Severity::Warning => "warning",
                    };
                    (f.line, f.rule.to_string(), sev)
                })
                .collect();
        assert_eq!(
            actual,
            expected,
            "fixture {} disagrees with its markers",
            path.display()
        );
    }
}

#[test]
fn waived_findings_carry_their_reason() {
    let source = fs::read_to_string(fixtures_dir().join("waivers.rs")).unwrap();
    let findings = lint_source(&logical_path(&source), &source);
    let waived: Vec<_> = findings.iter().filter(|f| !f.is_active()).collect();
    assert_eq!(waived.len(), 2, "{waived:?}");
    assert!(
        waived
            .iter()
            .all(|f| f.rule == "hash_state"
                && f.waiver_reason.as_deref().unwrap().contains("fixture"))
    );
}

#[test]
fn json_report_has_the_v1_schema() {
    let source = fs::read_to_string(fixtures_dir().join("waivers.rs")).unwrap();
    let findings = lint_source(&logical_path(&source), &source);
    let json = risa_lint::render_json(&findings);
    for needle in [
        "\"schema\": \"risa-lint/v1\"",
        "\"findings\": [",
        "\"waived\": [",
        "\"rule\": \"bad_waiver\"",
        "\"rule\": \"unused_waiver\"",
        "\"severity\": \"warning\"",
        "\"waiver_reason\": \"fixture: keyed access only\"",
        "\"file\": \"crates/sim/src/fixture.rs\"",
        "\"line\": 3",
    ] {
        assert!(json.contains(needle), "missing {needle} in:\n{json}");
    }
}
