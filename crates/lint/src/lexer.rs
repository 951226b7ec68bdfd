//! Phase-1 tokenizer: one pass over a source file that produces both a
//! **stripped line view** (comments and string/char literal contents
//! blanked, structure preserved — what the line-shape rules match
//! against) and a **token stream** (identifiers, string literals with
//! their contents, punctuation, each with a line/column span — what the
//! fact extractor consumes).
//!
//! The line view is bit-compatible with the original single-file
//! scanner this engine replaced; `tests/tokenizer_equiv.rs` pins that
//! equivalence over the whole workspace corpus, which is what lets the
//! eight ported rule families guarantee a zero finding-diff.
//!
//! The lexer also carries the two comment-channel protocols:
//! `lint:allow(<rule>)` suppression markers (collected per line) and
//! the file-level `lint:hot-path` marker.

/// What kind of token a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `count`, `CAMPAIGN_CHIPS_DONE`).
    Ident,
    /// A string literal; `text` holds the raw contents (escapes kept
    /// verbatim, quotes and raw-string hashes stripped).
    Str,
    /// A single punctuation character (`(`, `.`, `:`, `=`, ...).
    Punct,
}

/// One token with its span (0-based line, 0-based char column of the
/// token start).
#[derive(Debug, Clone)]
pub struct Token {
    /// The token kind.
    pub kind: TokenKind,
    /// Identifier text, string contents, or the punctuation character.
    pub text: String,
    /// 0-based source line of the token start.
    pub line: usize,
    /// 0-based char column of the token start.
    pub col: usize,
}

/// Per-line metadata of the stripped view.
#[derive(Debug, Clone)]
pub struct Line {
    /// The line with comments and literal *contents* blanked; line
    /// length and column positions of code are preserved.
    pub code: String,
    /// Rule names suppressed on this line via `lint:allow(...)`.
    pub allows: Vec<String>,
    /// True when the line holds no code at all (comment or blank).
    pub comment_only: bool,
    /// True inside a `#[cfg(test)]` item's brace region.
    pub in_test: bool,
}

/// A lexed source file: line view + token stream + file markers.
#[derive(Debug)]
pub struct LexedFile {
    /// Per-line stripped view and metadata.
    pub lines: Vec<Line>,
    /// The token stream, in source order.
    pub tokens: Vec<Token>,
    /// True when any comment contains `lint:hot-path`.
    pub hot_path: bool,
}

impl LexedFile {
    /// True when 0-based `line` sits inside a `#[cfg(test)]` region.
    pub fn in_test(&self, line: usize) -> bool {
        self.lines.get(line).is_some_and(|l| l.in_test)
    }

    /// Iterates the stripped code lines (what the shape rules match).
    pub fn code_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.lines.iter().enumerate().map(|(i, l)| (i, l.code.as_str()))
    }

    /// True when `rule_name` is suppressed at 0-based `line`: an allow
    /// marker on the line itself or in the contiguous comment block
    /// directly above it. Returns the 0-based line of the marker that
    /// matched, so suppression usage can be credited (dead-suppression).
    pub fn allow_marker_for(&self, line: usize, rule_name: &str) -> Option<usize> {
        let hit = |l: usize| self.lines[l].allows.iter().any(|a| a == rule_name);
        if line < self.lines.len() && hit(line) {
            return Some(line);
        }
        let mut l = line.min(self.lines.len().saturating_sub(1));
        while l > 0 && self.lines[l - 1].comment_only {
            l -= 1;
            if hit(l) {
                return Some(l);
            }
        }
        None
    }
}

/// Tokenizes `source`. Never fails: unterminated literals and comments
/// lex as extending to end of file, like the scanner this replaces.
pub fn lex(source: &str) -> LexedFile {
    #[derive(PartialEq)]
    enum St {
        Code,
        Line,
        Block(u32),
        Str,
        RawStr(u32),
        Char,
    }
    let mut st = St::Code;
    let mut lines: Vec<Line> = Vec::new();
    let mut tokens: Vec<Token> = Vec::new();
    let mut hot_path = false;

    // Cross-line literal accumulator: contents + span of the start.
    let mut lit = String::new();
    let mut lit_line = 0usize;
    let mut lit_col = 0usize;

    for (line_no, raw) in source.lines().enumerate() {
        let b: Vec<char> = raw.chars().collect();
        let mut out = String::with_capacity(raw.len());
        let mut comment_text = String::new();
        let mut i = 0usize;

        // Identifier accumulator for this line (idents never span lines).
        let mut ident = String::new();
        let mut ident_col = 0usize;
        macro_rules! flush_ident {
            () => {
                if !ident.is_empty() {
                    tokens.push(Token {
                        kind: TokenKind::Ident,
                        text: std::mem::take(&mut ident),
                        line: line_no,
                        col: ident_col,
                    });
                }
            };
        }

        // Line comments never span lines.
        if st == St::Line {
            st = St::Code;
        }
        while i < b.len() {
            let c = b[i];
            let next = b.get(i + 1).copied();
            match st {
                St::Code => match (c, next) {
                    ('/', Some('/')) => {
                        flush_ident!();
                        st = St::Line;
                        comment_text.extend(&b[i..]);
                        break;
                    }
                    ('/', Some('*')) => {
                        flush_ident!();
                        st = St::Block(1);
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    }
                    ('r', Some('"')) => {
                        flush_ident!();
                        st = St::RawStr(0);
                        out.push_str("r\"");
                        lit.clear();
                        lit_line = line_no;
                        lit_col = i;
                        i += 2;
                    }
                    ('r', Some('#')) => {
                        // r#"..."# or r#ident; count hashes then expect '"'.
                        let mut h = 0u32;
                        let mut j = i + 1;
                        while b.get(j) == Some(&'#') {
                            h += 1;
                            j += 1;
                        }
                        if b.get(j) == Some(&'"') {
                            flush_ident!();
                            st = St::RawStr(h);
                            for _ in i..=j {
                                out.push(' ');
                            }
                            lit.clear();
                            lit_line = line_no;
                            lit_col = i;
                            i = j + 1;
                        } else {
                            // r#ident (raw identifier): keep lexing as code.
                            if ident.is_empty() {
                                ident_col = i;
                            }
                            ident.push(c);
                            out.push(c);
                            i += 1;
                        }
                    }
                    ('"', _) => {
                        flush_ident!();
                        st = St::Str;
                        out.push('"');
                        lit.clear();
                        lit_line = line_no;
                        lit_col = i;
                        i += 1;
                    }
                    ('\'', _) => {
                        flush_ident!();
                        // Char literal vs lifetime: a literal is '\x', 'c',
                        // or multi-char escape ending in a quote nearby.
                        if next == Some('\\') {
                            st = St::Char;
                            out.push('\'');
                            i += 2;
                        } else if b.get(i + 2) == Some(&'\'') {
                            out.push_str("' '");
                            i += 3;
                        } else {
                            out.push('\'');
                            i += 1; // lifetime
                        }
                    }
                    _ => {
                        if c.is_ascii_alphanumeric() || c == '_' {
                            if ident.is_empty() {
                                ident_col = i;
                            }
                            ident.push(c);
                        } else {
                            flush_ident!();
                            if !c.is_whitespace() {
                                tokens.push(Token {
                                    kind: TokenKind::Punct,
                                    text: c.to_string(),
                                    line: line_no,
                                    col: i,
                                });
                            }
                        }
                        out.push(c);
                        i += 1;
                    }
                },
                St::Block(depth) => match (c, next) {
                    ('*', Some('/')) => {
                        st = if depth == 1 {
                            St::Code
                        } else {
                            St::Block(depth - 1)
                        };
                        comment_text.push(' ');
                        i += 2;
                    }
                    ('/', Some('*')) => {
                        st = St::Block(depth + 1);
                        i += 2;
                    }
                    _ => {
                        comment_text.push(c);
                        i += 1;
                    }
                },
                St::Str => match (c, next) {
                    ('\\', Some(n)) => {
                        lit.push(c);
                        lit.push(n);
                        i += 2;
                    }
                    ('"', _) => {
                        st = St::Code;
                        out.push('"');
                        tokens.push(Token {
                            kind: TokenKind::Str,
                            text: std::mem::take(&mut lit),
                            line: lit_line,
                            col: lit_col,
                        });
                        i += 1;
                    }
                    _ => {
                        lit.push(c);
                        i += 1;
                    }
                },
                St::RawStr(h) => {
                    if c == '"' {
                        let mut ok = true;
                        for k in 0..h {
                            if b.get(i + 1 + k as usize) != Some(&'#') {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            st = St::Code;
                            out.push('"');
                            tokens.push(Token {
                                kind: TokenKind::Str,
                                text: std::mem::take(&mut lit),
                                line: lit_line,
                                col: lit_col,
                            });
                            i += 1 + h as usize;
                            continue;
                        }
                    }
                    lit.push(c);
                    i += 1;
                }
                St::Char => match (c, next) {
                    ('\\', Some(_)) => i += 2,
                    ('\'', _) => {
                        st = St::Code;
                        out.push('\'');
                        i += 1;
                    }
                    _ => i += 1,
                },
                St::Line => break,
            }
        }
        flush_ident!();
        // A literal that spans lines keeps accumulating; reflect the
        // line break in its contents so columns stay meaningful.
        if st == St::Str || matches!(st, St::RawStr(_)) {
            lit.push('\n');
        }

        let mut line_allows = Vec::new();
        let mut rest = comment_text.as_str();
        while let Some(pos) = rest.find("lint:allow(") {
            let tail = &rest[pos + "lint:allow(".len()..];
            if let Some(end) = tail.find(')') {
                line_allows.push(tail[..end].trim().to_string());
                rest = &tail[end + 1..];
            } else {
                break;
            }
        }
        if comment_text.contains("lint:hot-path") {
            hot_path = true;
        }
        lines.push(Line {
            comment_only: out.trim().is_empty(),
            code: out,
            allows: line_allows,
            in_test: false,
        });
    }

    // Mark #[cfg(test)] brace regions on the stripped view.
    let mut i = 0usize;
    while i < lines.len() {
        if lines[i].code.contains("#[cfg(test)]") {
            // Find the opening brace of the next item and track depth.
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                for c in lines[j].code.chars() {
                    match c {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                lines[j].in_test = true;
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }

    LexedFile {
        lines,
        tokens,
        hot_path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_view_blanks_comments_and_literal_contents() {
        let f = lex("let x = \"HashMap\"; // HashMap in a comment\n");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[0].code.contains('"'));
    }

    #[test]
    fn tokens_carry_string_contents_and_spans() {
        let f = lex("t.count(\"campaign.chips_done\");\n");
        let s: Vec<_> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .collect();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].text, "campaign.chips_done");
        assert_eq!(s[0].line, 0);
        assert_eq!(s[0].col, 8);
        let idents: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, ["t", "count"]);
    }

    #[test]
    fn raw_strings_and_escapes_lex_as_single_tokens() {
        let f = lex("let a = r#\"x \"inner\" y\"#; let b = \"a\\\"b\";\n");
        let s: Vec<&str> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(s, ["x \"inner\" y", "a\\\"b"]);
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let f = lex("fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}\n");
        let flags: Vec<bool> = f.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, [false, true, true, true, true, false]);
    }

    #[test]
    fn allow_markers_resolve_through_comment_blocks() {
        let f = lex("// lint:allow(determinism): justified\n// more context\nuse std::collections::HashMap;\n");
        assert_eq!(f.allow_marker_for(2, "determinism"), Some(0));
        assert_eq!(f.allow_marker_for(2, "panic-safety"), None);
        // Multi-byte characters in a comment neither panic the lexer nor
        // shift the marker text.
        let f = lex("f(); // lint:allow(panic-safety) — μ ≥ α\nx // σσσσ\n");
        assert_eq!(f.lines[0].allows, ["panic-safety"]);
        assert!(f.lines[1].allows.is_empty() && f.lines[1].code.trim() == "x");
    }

    #[test]
    fn hot_path_marker_is_detected() {
        assert!(lex("// lint:hot-path\nfn f() {}\n").hot_path);
        assert!(!lex("fn f() {}\n").hot_path);
    }

    #[test]
    fn multiline_strings_emit_one_token_at_the_start() {
        let f = lex("let s = \"line one\nline two\";\nlet t = 1;\n");
        let s: Vec<_> = f
            .tokens
            .iter()
            .filter(|t| t.kind == TokenKind::Str)
            .collect();
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].line, 0);
        assert!(s[0].text.contains('\n'));
    }
}
