//! The workspace invariant `nodb-lint` enforces, as a token-level rule over
//! [`crate::lexer`] output: cooperative cancellation in scan loops. The rule
//! documents the invariant, why it exists, and its waiver comment.

use crate::lexer::{lex, Comment, Lexed, Tok, TokKind};

/// Which rule produced a finding. The string forms are stable: fixtures,
/// waiver comments, and CI grep on them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuleId {
    /// Scan/batch loops in `lint:cancellable` modules must poll the query
    /// context or drive an interrupt-flagged `BlockSource`.
    Cancellation,
}

impl RuleId {
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::Cancellation => "cancellation",
        }
    }
}

/// One finding: a rule violation at a line of a file.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: RuleId,
    pub path: String,
    pub line: u32,
    pub message: String,
}

impl Finding {
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.as_str(),
            self.message
        )
    }
}

/// Everything the rules know about one file.
pub struct SourceFile {
    pub path: String,
    lexed: Lexed,
    /// 1-based inclusive line ranges covered by `#[cfg(test)]` / `#[test]` /
    /// `#[bench]` items — the rule skips loops inside them.
    excluded: Vec<(u32, u32)>,
    /// A `#![doc = "…"]` attribute near the top mentions `lint:cancellable`
    /// (string contents are dropped by the lexer, so this is captured from
    /// the raw source at parse time).
    doc_attr_marker: bool,
}

impl SourceFile {
    pub fn parse(path: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let excluded = test_excluded_ranges(&lexed.toks);
        let doc_attr_marker = src.lines().take(200).any(|l| {
            let t = l.trim_start();
            t.starts_with("#![doc") && t.contains("lint:cancellable")
        });
        SourceFile {
            path: path.to_string(),
            lexed,
            excluded,
            doc_attr_marker,
        }
    }

    fn toks(&self) -> &[Tok] {
        &self.lexed.toks
    }

    fn comments(&self) -> &[Comment] {
        &self.lexed.comments
    }

    fn in_test_code(&self, line: u32) -> bool {
        self.excluded.iter().any(|&(s, e)| line >= s && line <= e)
    }

    /// A waiver comment (`// lint: <key> <reason>`) on `line` or the line
    /// directly above it. Waivers live in comments, never in code, so string
    /// literals mentioning the key (this crate's own source) cannot waive.
    fn waived(&self, key: &str, line: u32) -> bool {
        self.comment_contains(key, line.saturating_sub(1), line)
    }

    fn comment_contains(&self, needle: &str, from_line: u32, to_line: u32) -> bool {
        let tag = format!("lint: {needle}");
        self.comments()
            .iter()
            .any(|c| c.line >= from_line && c.line <= to_line && c.text.contains(&tag))
    }

    /// Is this module annotated as cancellation-mandatory? Matches the
    /// `#![doc = " lint:cancellable …"]` form (a string literal inside the
    /// first inner attributes) or a `//! … lint:cancellable` doc line.
    fn cancellable(&self) -> bool {
        const MARKER: &str = "lint:cancellable";
        self.doc_attr_marker
            || self
                .comments()
                .iter()
                .any(|c| c.inner && c.text.contains(MARKER))
    }
}

/// Run every rule over one file.
pub fn lint_file(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    rule_cancellation(file, &mut out);
    out
}

// ---------------------------------------------------------------------------
// Rule: cancellation
// ---------------------------------------------------------------------------

/// Method/function names whose presence makes a loop a *scan loop*: it
/// advances through rows, batches, or I/O blocks and can therefore run for
/// an unbounded stretch of a large file.
const ADVANCE: &[&str] = &[
    "next_line",
    "fill_batch",
    "next_batch",
    "refill",
    "recv",
    "try_recv",
];

/// Names that prove the loop honors PR 6's cancellation contract: either an
/// explicit `QueryCtx` poll (`check`/`check_io`), or it drives an interrupt
/// flag (`set_interrupt`/`stop_flag`/…). `refill` appears here *and* in
/// [`ADVANCE`] on purpose: every `BlockSource::refill` implementation polls
/// the installed interrupt flag, so a loop advancing via `refill` is
/// cancellable by construction.
const POLL: &[&str] = &[
    "check",
    "check_io",
    "set_interrupt",
    "stop_flag",
    "interrupt",
    "interrupted",
    "interrupted_error",
    "cancel",
    "cancelled",
    "is_cancelled",
    "refill",
];

/// In modules annotated `lint:cancellable`, every scan/batch loop must
/// contain a cancellation poll; a stuck or hour-long query must stop within
/// one batch of rows of its deadline no matter which loop it is in.
/// Waive with `// lint: cancel-ok <reason>` inside the loop or on the loop
/// header line.
fn rule_cancellation(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.cancellable() {
        return;
    }
    let toks = file.toks();
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        let is_loop_kw = t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "loop" | "while" | "for")
            && loop_starts_here(toks, i);
        if !is_loop_kw || file.in_test_code(t.line) {
            i += 1;
            continue;
        }
        let Some((body_start, body_end)) = loop_body(toks, i) else {
            i += 1;
            continue;
        };
        // Header included: `while let Some(l) = scanner.next_line() { … }`
        // advances in the condition, not the body.
        let body = &toks[i..=body_end];
        let has = |names: &[&str]| {
            body.iter()
                .any(|b| b.kind == TokKind::Ident && names.contains(&b.text.as_str()))
        };
        if has(ADVANCE) && !has(POLL) {
            let body_lines = (toks[body_start].line, toks[body_end].line);
            let waived = file.waived("cancel-ok", t.line)
                || file.comment_contains("cancel-ok", body_lines.0, body_lines.1);
            if !waived {
                out.push(Finding {
                    rule: RuleId::Cancellation,
                    path: file.path.clone(),
                    line: t.line,
                    message: "scan loop in a `lint:cancellable` module advances rows/blocks \
                              without a cancellation poll (`ctx.check()`, an interrupt-flagged \
                              `refill`, …); add one or waive: `// lint: cancel-ok <reason>`"
                        .to_string(),
                });
            }
        }
        i += 1;
    }
}

/// Is the `loop`/`while`/`for` ident at `i` actually a loop header?
/// Filters out `impl Trait for Type` and `for<'a>` bounds: a real `for` loop
/// has an `in` before its body brace.
fn loop_starts_here(toks: &[Tok], i: usize) -> bool {
    if toks[i].text != "for" {
        return true;
    }
    if toks.get(i + 1).is_some_and(|t| t.text == "<") {
        return false; // for<'a> higher-ranked bound
    }
    let mut depth = 0i32;
    for t in &toks[i + 1..] {
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => return false, // body reached without `in`
            "in" if depth == 0 && t.kind == TokKind::Ident => return true,
            ";" if depth == 0 => return false,
            _ => {}
        }
    }
    false
}

/// Token range (inclusive) of the loop body braces' contents: finds the
/// first `{` at paren/bracket depth 0 after the keyword, then brace-matches.
fn loop_body(toks: &[Tok], kw: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut j = kw + 1;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth == 0 => break,
            ";" if depth == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    let open = j;
    let mut braces = 0i32;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => braces += 1,
            "}" => {
                braces -= 1;
                if braces == 0 {
                    return Some((open, j));
                }
            }
            _ => {}
        }
        j += 1;
    }
    Some((open, toks.len() - 1))
}

// ---------------------------------------------------------------------------
// Test-code exclusion
// ---------------------------------------------------------------------------

/// Line ranges covered by `#[cfg(test)]` / `#[test]` / `#[bench]` items.
/// Attribute shape: `#` `[` … `]`, test-ish if the first path ident is
/// `test`/`bench` or it is a `cfg(…)` mentioning `test`; the item body is
/// the brace-matched block after any further attributes (or through `;` for
/// bodyless items).
fn test_excluded_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !(toks[i].text == "#" && toks.get(i + 1).is_some_and(|t| t.text == "[")) {
            i += 1;
            continue;
        }
        let Some((attr_end, testish)) = attr_span(toks, i) else {
            i += 1;
            continue;
        };
        if !testish {
            i = attr_end + 1;
            continue;
        }
        let start_line = toks[i].line;
        // Skip any further attributes on the same item.
        let mut j = attr_end + 1;
        while toks.get(j).is_some_and(|t| t.text == "#")
            && toks.get(j + 1).is_some_and(|t| t.text == "[")
        {
            match attr_span(toks, j) {
                Some((e, _)) => j = e + 1,
                None => break,
            }
        }
        // Find the item body: first `{` at depth 0 (brace-match it), or a
        // `;` at depth 0 for bodyless items.
        let mut depth = 0i32;
        let mut end_line = start_line;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth == 0 => {
                    end_line = toks[j].line;
                    break;
                }
                "{" if depth == 0 => {
                    let mut braces = 0i32;
                    while j < toks.len() {
                        match toks[j].text.as_str() {
                            "{" => braces += 1,
                            "}" => {
                                braces -= 1;
                                if braces == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    end_line = toks.get(j).map_or(start_line, |t| t.line);
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        out.push((start_line, end_line));
        i = j + 1;
    }
    out
}

/// `(index of closing `]`, is-test-attribute)` for the attribute starting at
/// `#` token `i`.
fn attr_span(toks: &[Tok], i: usize) -> Option<(usize, bool)> {
    let mut j = i + 1; // at '['
    let mut depth = 0i32;
    let mut first_ident: Option<&str> = None;
    let mut mentions_test = false;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    let testish = match first_ident {
                        Some("test") | Some("bench") => true,
                        Some("cfg") => mentions_test,
                        _ => false,
                    };
                    return Some((j, testish));
                }
            }
            _ => {
                if t.kind == TokKind::Ident {
                    if first_ident.is_none() {
                        first_ident = Some(&t.text);
                    }
                    if t.text == "test" {
                        mentions_test = true;
                    }
                }
            }
        }
        j += 1;
    }
    None
}
