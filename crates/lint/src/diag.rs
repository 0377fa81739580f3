//! Diagnostics, severities, suppressions, and output rendering (text and
//! machine-readable JSON — hand-rolled, so the analyzer stays
//! dependency-free).

use std::fmt;

use crate::lexer::Comment;

/// How much a rule's finding matters. Only [`Severity::Error`] findings
/// affect the process exit code; warnings are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: printed, never fails the run.
    Warn,
    /// Invariant violation: fails the run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warn => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding: rule, severity, location, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired (e.g. `hot-path-alloc`).
    pub rule: &'static str,
    /// The rule's severity.
    pub severity: Severity,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-indexed line.
    pub line: usize,
    /// Human-readable explanation with the offending construct.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}]: {}",
            self.file, self.line, self.severity, self.rule, self.message
        )
    }
}

/// An inline `// lint:allow(rule): justification` (line scope: its own
/// line and the next) or `// lint:allow-file(rule): justification`
/// (whole-file scope), parsed out of the comment stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suppression {
    /// The rule being allowed.
    pub rule: String,
    /// 1-indexed line the comment starts on.
    pub line: usize,
    /// Whole-file scope (`lint:allow-file`) vs. line scope (`lint:allow`).
    pub file_scoped: bool,
    /// The justification text after the marker; suppressions without one
    /// are themselves a lint error (`suppression-hygiene`).
    pub justification: String,
}

/// Extracts every suppression from a file's comment stream. A single
/// comment may carry several markers. Doc comments are skipped — they are
/// rendered documentation, which may mention the syntax without waiving
/// anything.
pub(crate) fn parse_suppressions(comments: &[Comment]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments.iter().filter(|c| !c.doc) {
        let mut rest: &str = &c.text;
        while let Some(idx) = rest.find("lint:allow") {
            let after = &rest[idx + "lint:allow".len()..];
            let (file_scoped, after) = match after.strip_prefix("-file") {
                Some(a) => (true, a),
                None => (false, after),
            };
            let Some(open) = after.strip_prefix('(') else {
                rest = &rest[idx + "lint:allow".len()..];
                continue;
            };
            let Some(close) = open.find(')') else {
                rest = &rest[idx + "lint:allow".len()..];
                continue;
            };
            let rule = open[..close].trim().to_string();
            let tail = &open[close + 1..];
            // Justification: everything after an optional ':' separator,
            // up to the next marker if the comment carries several.
            let tail_end = tail.find("lint:allow").unwrap_or(tail.len());
            let justification = tail[..tail_end]
                .trim_start_matches(&[':', ' ', '-'][..])
                .trim()
                .to_string();
            out.push(Suppression {
                rule,
                line: c.line,
                file_scoped,
                justification,
            });
            rest = &open[close + 1..];
        }
    }
    out
}

/// Whether one suppression covers `diag`: the rule matches and the
/// suppression is either file-scoped or sits on the diagnostic's line or
/// the line above it.
pub(crate) fn suppression_covers(s: &Suppression, diag: &Diagnostic) -> bool {
    s.rule == diag.rule && (s.file_scoped || s.line == diag.line || s.line + 1 == diag.line)
}

/// Escapes `s` for inclusion in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comment(text: &str, line: usize) -> Comment {
        Comment {
            text: text.into(),
            line,
            doc: false,
        }
    }

    #[test]
    fn doc_comments_never_carry_suppressions() {
        let sups = parse_suppressions(&[Comment {
            text: "/ documented example: lint:allow(hot-path-alloc): why".into(),
            line: 1,
            doc: true,
        }]);
        assert!(sups.is_empty());
    }

    #[test]
    fn parses_line_and_file_scoped_allows() {
        let sups = parse_suppressions(&[
            comment(" lint:allow(hot-path-alloc): one-off warm-up", 7),
            comment(" lint:allow-file(panic-policy): fixed-arity triples", 1),
        ]);
        assert_eq!(sups.len(), 2);
        assert_eq!(sups[0].rule, "hot-path-alloc");
        assert!(!sups[0].file_scoped);
        assert_eq!(sups[0].justification, "one-off warm-up");
        assert!(sups[1].file_scoped);
    }

    #[test]
    fn empty_justification_detected() {
        let sups = parse_suppressions(&[comment(" lint:allow(transitive-alloc)", 3)]);
        assert_eq!(sups.len(), 1);
        assert!(sups[0].justification.is_empty());
    }

    #[test]
    fn suppression_scope_is_line_or_next() {
        let d = Diagnostic {
            rule: "hot-path-alloc",
            severity: Severity::Error,
            file: "x.rs".into(),
            line: 8,
            message: String::new(),
        };
        let same = parse_suppressions(&[comment(" lint:allow(hot-path-alloc): why", 8)]);
        let above = parse_suppressions(&[comment(" lint:allow(hot-path-alloc): why", 7)]);
        let far = parse_suppressions(&[comment(" lint:allow(hot-path-alloc): why", 5)]);
        assert!(suppression_covers(&same[0], &d));
        assert!(suppression_covers(&above[0], &d));
        assert!(!suppression_covers(&far[0], &d));
    }
}
