//! Workspace loading: file discovery, per-file lint context, and an
//! in-memory source overlay used by tests to lint hypothetical edits
//! (e.g. a seeded metric rename) without copying the tree.

use std::path::{Path, PathBuf};

use crate::FileContext;

/// One in-scope source file with its lint context.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// The file's lint context (crate, test/bin classification).
    pub ctx: FileContext,
    /// The file's source text.
    pub source: String,
}

/// The set of in-scope source files the analysis runs over.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Files sorted by relative path.
    pub files: Vec<SourceFile>,
}

/// Maps a workspace-relative path to its lint context; `None` means the
/// file is out of scope (shim crates, the linter itself, non-Rust
/// files).
pub fn context_for(rel: &Path) -> Option<FileContext> {
    if rel.extension().and_then(|e| e.to_str()) != Some("rs") {
        return None;
    }
    let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    let crate_name = if parts.first() == Some(&"crates") {
        let dir = *parts.get(1)?;
        // The linter itself and the offline stand-ins for crates.io
        // packages are out of scope.
        if ["lint", "proptest"].contains(&dir) {
            return None;
        }
        format!("eval-{dir}")
    } else if ["src", "tests", "examples", "benches"].contains(parts.first()?) {
        "eval".to_string()
    } else {
        return None;
    };
    let is_test_code = parts
        .iter()
        .any(|p| ["tests", "examples", "benches", "bin"].contains(p));
    let is_bin = parts.contains(&"bin");
    Some(FileContext {
        crate_name,
        is_test_code,
        is_bin,
    })
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, files)?;
        } else {
            files.push(path);
        }
    }
    Ok(())
}

impl Workspace {
    /// Loads every in-scope `.rs` file under the workspace root.
    ///
    /// # Errors
    ///
    /// Propagates directory-walk and file-read failures.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut paths = Vec::new();
        for top in ["crates", "src", "tests", "examples", "benches"] {
            let dir = root.join(top);
            if dir.is_dir() {
                walk(&dir, &mut paths)?;
            }
        }
        paths.sort();
        let mut files = Vec::new();
        for path in paths {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let Some(ctx) = context_for(rel) else {
                continue;
            };
            files.push(SourceFile {
                rel: rel
                    .iter()
                    .filter_map(|c| c.to_str())
                    .collect::<Vec<_>>()
                    .join("/"),
                ctx,
                source: std::fs::read_to_string(&path)?,
            });
        }
        Ok(Workspace { files })
    }

    /// Builds a workspace from in-memory `(relative path, source)`
    /// pairs; out-of-scope paths are skipped like on-disk files.
    pub fn from_sources<I, S>(pairs: I) -> Workspace
    where
        I: IntoIterator<Item = (S, S)>,
        S: Into<String>,
    {
        let mut files = Vec::new();
        for (rel, source) in pairs {
            let rel: String = rel.into();
            let Some(ctx) = context_for(Path::new(&rel)) else {
                continue;
            };
            files.push(SourceFile {
                rel,
                ctx,
                source: source.into(),
            });
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Workspace { files }
    }

    /// Replaces (or adds) one file's source in memory — lint a
    /// hypothetical edit without touching disk. Out-of-scope paths are
    /// ignored.
    pub fn overlay(&mut self, rel: &str, source: &str) {
        let Some(ctx) = context_for(Path::new(rel)) else {
            return;
        };
        if let Some(f) = self.files.iter_mut().find(|f| f.rel == rel) {
            f.source = source.to_string();
            return;
        }
        self.files.push(SourceFile {
            rel: rel.to_string(),
            ctx,
            source: source.to_string(),
        });
        self.files.sort_by(|a, b| a.rel.cmp(&b.rel));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_maps_paths() {
        assert_eq!(
            context_for(Path::new("crates/power/src/solve.rs"))
                .unwrap()
                .crate_name,
            "eval-power"
        );
        assert!(context_for(Path::new("crates/lint/src/lib.rs")).is_none());
        assert!(context_for(Path::new("crates/proptest/src/lib.rs")).is_none());
        assert!(context_for(Path::new("README.md")).is_none());
        let t = context_for(Path::new("tests/determinism.rs")).unwrap();
        assert!(t.is_test_code);
        let b = context_for(Path::new("crates/bench/src/bin/hotpath.rs")).unwrap();
        assert!(b.is_bin && b.is_test_code);
    }

    #[test]
    fn overlay_replaces_in_memory_only() {
        let mut ws = Workspace::from_sources([
            ("crates/adapt/src/a.rs", "fn a() {}\n"),
            ("crates/adapt/src/b.rs", "fn b() {}\n"),
        ]);
        ws.overlay("crates/adapt/src/a.rs", "fn a2() {}\n");
        ws.overlay("crates/lint/src/lib.rs", "ignored\n");
        assert_eq!(ws.files.len(), 2);
        assert_eq!(ws.files[0].source, "fn a2() {}\n");
    }
}
