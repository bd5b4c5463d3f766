//! A hand-rolled Rust surface lexer.
//!
//! Splits a source file into per-line views where:
//!
//! * **`code`** is the line with comment text and string/char-literal
//!   *contents* blanked to spaces (delimiters kept), so rule needles like
//!   `HashMap` never fire inside a message or a doc string;
//! * **`comment`** is the concatenated comment text of the line (line
//!   comments, doc comments, and any block-comment text crossing it) —
//!   where `risa-lint: allow(...)` waivers live;
//! * **`in_test`** marks `#[cfg(test)]` regions, tracked by brace depth,
//!   so test-only code is exempt from the engine-code rules.
//!
//! The lexer understands nested block comments, ordinary/byte/raw string
//! literals (`"…"`, `b"…"`, `r#"…"#`), char literals vs. lifetimes, and
//! escapes. It is a *surface* lexer: it does not parse items, which is
//! exactly enough for line-oriented rules and keeps the tool dependency-
//! free per the vendored-stand-in policy.

/// One lexed source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// Code with comments and literal contents blanked.
    pub code: String,
    /// Comment text carried by this line.
    pub comment: String,
    /// True inside a `#[cfg(test)]` region (or a test-path file; the
    /// caller ORs that in).
    pub in_test: bool,
}

/// Lexer mode, carried across lines.
enum Mode {
    Normal,
    LineComment,
    /// Nested block comments: depth.
    BlockComment(u32),
    /// Ordinary or byte string.
    Str,
    /// Raw string with `n` hashes (`r##"…"##`).
    RawStr(u32),
}

/// Lex `source` into per-line code/comment views and mark
/// `#[cfg(test)]` regions.
pub fn clean_source(source: &str) -> Vec<Line> {
    let chars: Vec<char> = source.chars().collect();
    let mut lines: Vec<Line> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut mode = Mode::Normal;
    let mut i = 0;

    macro_rules! flush_line {
        () => {
            lines.push(Line {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                in_test: false,
            });
            // A line comment never crosses a newline.
            if matches!(mode, Mode::LineComment) {
                mode = Mode::Normal;
            }
        };
    }

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            flush_line!();
            i += 1;
            continue;
        }
        match mode {
            Mode::Normal => {
                let next = chars.get(i + 1).copied();
                match c {
                    '/' if next == Some('/') => {
                        mode = Mode::LineComment;
                        i += 2;
                    }
                    '/' if next == Some('*') => {
                        mode = Mode::BlockComment(1);
                        code.push(' ');
                        code.push(' ');
                        i += 2;
                    }
                    '"' => {
                        mode = Mode::Str;
                        code.push('"');
                        i += 1;
                    }
                    'r' | 'b' => {
                        // Possible raw/byte string prefixes: r", r#", br", b".
                        let (hashes, quote_at) = raw_prefix(&chars, i);
                        if let Some(q) = quote_at {
                            for _ in i..=q {
                                code.push(' ');
                            }
                            code.push('"');
                            if hashes == 0 && chars[q] == '"' && c == 'b' && q == i + 1 {
                                mode = Mode::Str; // plain byte string b"…"
                            } else if hashes == 0 {
                                // r"…" has no hashes but no escapes either.
                                mode = Mode::RawStr(0);
                            } else {
                                mode = Mode::RawStr(hashes);
                            }
                            i = q + 1;
                        } else {
                            code.push(c);
                            i += 1;
                        }
                    }
                    '\'' => {
                        // Char literal vs lifetime. `'\…'` or `'x'` is a
                        // literal; `'ident` (no closing quote right after
                        // one char) is a lifetime.
                        if next == Some('\\') {
                            code.push('\'');
                            code.push(' ');
                            i += 2;
                            // Skip escape body until closing quote.
                            while i < chars.len() && chars[i] != '\'' && chars[i] != '\n' {
                                code.push(' ');
                                i += 1;
                            }
                            if chars.get(i) == Some(&'\'') {
                                code.push('\'');
                                i += 1;
                            }
                        } else if chars.get(i + 2) == Some(&'\'') && next != Some('\'') {
                            code.push('\'');
                            code.push(' ');
                            code.push('\'');
                            i += 3;
                        } else {
                            // Lifetime: keep the tick, keep the identifier
                            // (it is code, not literal content).
                            code.push('\'');
                            i += 1;
                        }
                    }
                    c => {
                        code.push(c);
                        i += 1;
                    }
                }
            }
            Mode::LineComment => {
                comment.push(c);
                i += 1;
            }
            Mode::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    mode = if depth == 1 {
                        Mode::Normal
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    comment.push(' ');
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                let next = chars.get(i + 1).copied();
                if c == '\\' && next.is_some() {
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                } else if c == '"' {
                    code.push('"');
                    mode = Mode::Normal;
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    code.push('"');
                    for _ in 0..hashes {
                        code.push(' ');
                    }
                    i += 1 + hashes as usize;
                    mode = Mode::Normal;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
        }
    }
    // Final line without trailing newline.
    if !code.is_empty() || !comment.is_empty() || lines.is_empty() {
        lines.push(Line {
            code,
            comment,
            in_test: false,
        });
    }

    mark_test_regions(&mut lines);
    lines
}

/// If `chars[start]` begins a raw/byte string prefix (`r`, `br`, `b`,
/// with optional hashes), return `(hashes, index_of_opening_quote)`.
fn raw_prefix(chars: &[char], start: usize) -> (u32, Option<usize>) {
    let mut j = start;
    // Must not be the tail of an identifier (e.g. `var` ending in `r`).
    if start > 0 && is_ident_char(chars[start - 1]) {
        return (0, None);
    }
    if chars[j] == 'b' {
        j += 1;
        if chars.get(j) == Some(&'"') {
            return (0, Some(j));
        }
        if chars.get(j) != Some(&'r') {
            return (0, None);
        }
    }
    if chars.get(j) != Some(&'r') {
        return (0, None);
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        (hashes, Some(j))
    } else {
        (0, None)
    }
}

/// Does the `"` at `i` close a raw string with `hashes` trailing hashes?
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Identifier-ish character (used for token boundaries).
pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Mark `#[cfg(test)]` regions: from the attribute to the close of the
/// brace block it gates (a `mod tests { … }` in practice). Tracked by
/// brace depth over the *code* view, so braces in strings or comments
/// cannot confuse it.
fn mark_test_regions(lines: &mut [Line]) {
    let mut depth: i64 = 0;
    // Depth the innermost active test region must drop below to end;
    // stack, to be safe under nested test mods.
    let mut region_stack: Vec<i64> = Vec::new();
    // Saw `#[cfg(test)]`, waiting for its block to open.
    let mut pending = false;

    for line in lines.iter_mut() {
        if line.code.replace(' ', "").contains("#[cfg(test)]") {
            pending = true;
        }
        if pending || !region_stack.is_empty() {
            line.in_test = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending {
                        region_stack.push(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if let Some(&open) = region_stack.last() {
                        if depth <= open {
                            region_stack.pop();
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = r#"let x = "HashMap::new()"; // Instant::now in comment
/* block HashMap */ let y = 1;"#;
        let lines = clean_source(src);
        assert_eq!(lines.len(), 2);
        assert!(!lines[0].code.contains("HashMap"));
        assert!(lines[0].comment.contains("Instant::now"));
        assert!(!lines[1].code.contains("HashMap"));
        assert!(lines[1].code.contains("let y = 1;"));
        assert!(lines[1].comment.contains("block HashMap"));
    }

    #[test]
    fn raw_strings_and_nesting() {
        let src = "let s = r#\"Mutex \"quoted\" HashSet\"#; let t = 2;\n/* a /* nested */ still comment */ let u = 3;";
        let lines = clean_source(src);
        assert!(!lines[0].code.contains("Mutex"));
        assert!(lines[0].code.contains("let t = 2;"));
        assert!(!lines[1].code.contains("still comment"));
        assert!(lines[1].code.contains("let u = 3;"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let src = "fn f<'a>(x: &'a str) { let c = '{'; let d = '\\n'; }";
        let lines = clean_source(src);
        // The brace inside the char literal must not count for depth; the
        // lifetime must survive as code.
        assert!(lines[0].code.contains("'a"));
        assert!(!lines[0].code.replace(['{', '}'], "").contains('{'));
    }

    #[test]
    fn multiline_strings_carry_over() {
        let src = "let s = \"line one HashMap\n  line two HashSet\"; let z = 9;";
        let lines = clean_source(src);
        assert!(!lines[0].code.contains("HashMap"));
        assert!(!lines[1].code.contains("HashSet"));
        assert!(lines[1].code.contains("let z = 9;"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}";
        let lines = clean_source(src);
        assert!(!lines[0].in_test);
        assert!(lines[1].in_test, "attribute line");
        assert!(lines[2].in_test);
        assert!(lines[3].in_test);
        assert!(lines[4].in_test, "closing brace line");
        assert!(!lines[5].in_test, "code after the region");
    }

    #[test]
    fn byte_and_plain_raw_strings() {
        let src = "let a = b\"Condvar\"; let b = r\"AtomicUsize\"; let k = 1;";
        let lines = clean_source(src);
        assert!(!lines[0].code.contains("Condvar"));
        assert!(!lines[0].code.contains("AtomicUsize"));
        assert!(lines[0].code.contains("let k = 1;"));
    }
}
