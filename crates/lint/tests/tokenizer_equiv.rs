//! The zero-finding-diff guarantee for the eight ported rule families.
//!
//! The two-phase engine's lexer must produce the exact stripped line
//! view, `lint:allow` markers, comment-only flags, `#[cfg(test)]`
//! regions, and `lint:hot-path` bit that the original single-file
//! scanner produced — those five outputs are the *only* inputs the
//! ported rules consume, so agreement here implies finding-for-finding
//! agreement there.
//!
//! `legacy` below is the original scanner, embedded verbatim except for
//! the multi-byte comment fix it shares with the lexer. It is
//! checked against the new lexer two ways: over every in-scope file of
//! the real workspace (the corpus no hand-written fixture can match),
//! and over randomized adversarial sources assembled from the lexical
//! fragments that historically break strippers (nested block comments,
//! raw strings with hashes, escaped quotes, lifetimes vs char
//! literals, markers inside strings, multi-byte characters in comments).

use eval_lint::lexer::lex;
use eval_lint::Workspace;
use proptest::prelude::*;

/// The original scanner from the single-file linter. Its one change is
/// the line-comment capture, which copies chars instead of slicing bytes
/// at a char index, so a multi-byte comment neither panics nor loses
/// text.
mod legacy {
    pub struct Scanned {
        pub code: Vec<String>,
        pub allows: Vec<Vec<String>>,
        pub comment_only: Vec<bool>,
        pub in_test: Vec<bool>,
        pub hot_path: bool,
    }

    pub fn scan(source: &str) -> Scanned {
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
        let mut code = Vec::new();
        let mut allows = Vec::new();
        let mut comment_only = Vec::new();
        let mut hot_path = false;

        for raw in source.lines() {
            let b: Vec<char> = raw.chars().collect();
            let mut out = String::with_capacity(raw.len());
            let mut comment_text = String::new();
            let mut i = 0usize;
            if st == St::Line {
                st = St::Code;
            }
            while i < b.len() {
                let c = b[i];
                let next = b.get(i + 1).copied();
                match st {
                    St::Code => match (c, next) {
                        ('/', Some('/')) => {
                            st = St::Line;
                            comment_text.extend(&b[i..]);
                            break;
                        }
                        ('/', Some('*')) => {
                            st = St::Block(1);
                            out.push(' ');
                            out.push(' ');
                            i += 2;
                        }
                        ('r', Some('"')) => {
                            st = St::RawStr(0);
                            out.push_str("r\"");
                            i += 2;
                        }
                        ('r', Some('#')) => {
                            let mut h = 0u32;
                            let mut j = i + 1;
                            while b.get(j) == Some(&'#') {
                                h += 1;
                                j += 1;
                            }
                            if b.get(j) == Some(&'"') {
                                st = St::RawStr(h);
                                for _ in i..=j {
                                    out.push(' ');
                                }
                                i = j + 1;
                            } else {
                                out.push(c);
                                i += 1;
                            }
                        }
                        ('"', _) => {
                            st = St::Str;
                            out.push('"');
                            i += 1;
                        }
                        ('\'', _) => {
                            if next == Some('\\') {
                                st = St::Char;
                                out.push('\'');
                                i += 2;
                            } else if b.get(i + 2) == Some(&'\'') {
                                out.push_str("' '");
                                i += 3;
                            } else {
                                out.push('\'');
                                i += 1;
                            }
                        }
                        _ => {
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
                        ('\\', Some(_)) => i += 2,
                        ('"', _) => {
                            st = St::Code;
                            out.push('"');
                            i += 1;
                        }
                        _ => i += 1,
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
                                i += 1 + h as usize;
                                continue;
                            }
                        }
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
            comment_only.push(out.trim().is_empty());
            code.push(out);
            allows.push(line_allows);
        }

        let mut in_test = vec![false; code.len()];
        let mut i = 0usize;
        while i < code.len() {
            if code[i].contains("#[cfg(test)]") {
                let mut depth: i64 = 0;
                let mut opened = false;
                let mut j = i;
                while j < code.len() {
                    for c in code[j].chars() {
                        match c {
                            '{' => {
                                depth += 1;
                                opened = true;
                            }
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    in_test[j] = true;
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

        Scanned {
            code,
            allows,
            comment_only,
            in_test,
            hot_path,
        }
    }
}

/// Asserts the new lexer agrees with the legacy scanner on all five
/// rule-visible outputs for `source`.
fn assert_equivalent(label: &str, source: &str) -> Result<(), String> {
    let old = legacy::scan(source);
    let new = lex(source);
    if old.code.len() != new.lines.len() {
        return Err(format!(
            "{label}: line count {} vs {}",
            old.code.len(),
            new.lines.len()
        ));
    }
    for (i, line) in new.lines.iter().enumerate() {
        if old.code[i] != line.code {
            return Err(format!(
                "{label}:{}: stripped view diverged\n  legacy: {:?}\n  lexer:  {:?}",
                i + 1,
                old.code[i],
                line.code
            ));
        }
        if old.allows[i] != line.allows {
            return Err(format!(
                "{label}:{}: allows diverged ({:?} vs {:?})",
                i + 1,
                old.allows[i],
                line.allows
            ));
        }
        if old.comment_only[i] != line.comment_only {
            return Err(format!("{label}:{}: comment_only diverged", i + 1));
        }
        if old.in_test[i] != line.in_test {
            return Err(format!("{label}:{}: in_test diverged", i + 1));
        }
    }
    if old.hot_path != new.hot_path {
        return Err(format!("{label}: hot_path diverged"));
    }
    Ok(())
}

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn lexer_matches_legacy_scanner_on_the_whole_workspace() {
    let ws = Workspace::load(&workspace_root()).expect("workspace loads");
    assert!(
        ws.files.len() > 30,
        "workspace walk looks broken: {} files",
        ws.files.len()
    );
    for f in &ws.files {
        if let Err(e) = assert_equivalent(&f.rel, &f.source) {
            panic!("{e}");
        }
    }
}

/// Lexical fragments that historically break strippers, composed
/// randomly. Index-addressed so the offline proptest shim (which has
/// no string strategy) can drive selection.
const FRAGMENTS: [&str; 26] = [
    "fn f(x: u64) -> u64 { x }",
    "let s = \"text with // not a comment\";",
    "let r = r\"raw \\ backslash\";",
    "let h = r#\"nested \"quotes\" here\"#;",
    "let c = 'x';",
    "let e = '\\n';",
    "let l: &'static str = \"life\";",
    "// line comment with lint:allow(determinism) marker",
    "/* block with lint:hot-path inside */",
    "/* nested /* block */ still comment */",
    "#[cfg(test)]",
    "mod tests {",
    "}",
    "{",
    "let m = \"lint:allow(panic-safety) inside a string\";",
    "use std::collections::HashMap;",
    "let v: Vec<u8> = Vec::new();",
    "println!(\"{}\", 1);",
    "let q = \"unterminated",
    "still inside the string\";",
    "/* unterminated block",
    "closes here */ let after = 1;",
    "let esc = \"tail\\\\\";",
    "  // lint:allow(unit-safety): justified",
    "f(); // lint:allow(panic-safety) — μ ≥ α",
    "x // σσσσ",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn lexer_matches_legacy_scanner_on_adversarial_sources(
        picks in proptest::collection::vec(0usize..FRAGMENTS.len(), 1..40),
    ) {
        let source = picks
            .iter()
            .map(|&i| FRAGMENTS[i])
            .collect::<Vec<_>>()
            .join("\n");
        if let Err(e) = assert_equivalent("generated", &source) {
            prop_assert!(false, "{} in source:\n{}", e, source);
        }
    }
}
