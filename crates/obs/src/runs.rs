//! The run journal: listing, inspecting, and diffing artifact
//! provenance.
//!
//! Writers stamp every final artifact with a [`Provenance`] record and,
//! when `EVAL_RUNS_JOURNAL` is set, append one `"kind":"run"` line per
//! artifact to a shared JSONL journal (see `eval_trace::provenance`).
//! This module is the read side behind `eval-obs runs`:
//!
//! * `list` — every journaled artifact, newest last;
//! * `show <sel>` — one entry in full;
//! * `diff <a> <b>` — compare two entries by provenance: bit-identical
//!   payloads share a content address, anything else is pinpointed
//!   field by field.
//!
//! Selectors are resolved in order: journal index (as printed by
//! `list`), content-address prefix, then path suffix (latest match
//! wins, so `diff BENCH_a.json BENCH_b.json` does what it reads as).

use std::path::Path;

use eval_trace::provenance::Provenance;

use crate::json::Json;

/// One journaled artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunEntry {
    /// Position in the journal (0-based, as printed by `list`).
    pub index: usize,
    /// Unix timestamp of the journal append.
    pub unix_secs: u64,
    /// Artifact path as recorded by the writer.
    pub path: String,
    /// The artifact's provenance stamp.
    pub provenance: Provenance,
}

/// Parses journal text into entries. Tolerant by design: non-JSON
/// lines, wrong-kind records, and entries without a parsable provenance
/// object are skipped (a journal shared by many writers should never
/// make `runs list` unusable).
pub fn parse_journal(text: &str) -> Vec<RunEntry> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Ok(v) = Json::parse(line) else { continue };
        if v.str_field("kind") != Some("run") {
            continue;
        }
        let Some(path) = v.str_field("path") else {
            continue;
        };
        let Some(prov) = v.get("provenance").and_then(Provenance::from_json) else {
            continue;
        };
        out.push(RunEntry {
            index: out.len(),
            unix_secs: v.u64_field("unix_secs").unwrap_or(0),
            path: path.to_string(),
            provenance: prov,
        });
    }
    out
}

/// Loads and parses the journal at `path`.
///
/// # Errors
///
/// Any I/O error reading the file.
pub fn load_journal(path: &Path) -> std::io::Result<Vec<RunEntry>> {
    Ok(parse_journal(&std::fs::read_to_string(path)?))
}

/// Resolves a selector against the journal: numeric index first, then
/// content-address prefix, then path suffix. Later entries win ties so
/// a bare filename picks the most recent run of that artifact.
pub fn find<'a>(entries: &'a [RunEntry], selector: &str) -> Option<&'a RunEntry> {
    if let Ok(idx) = selector.parse::<usize>() {
        return entries.get(idx);
    }
    let by_addr = entries.iter().rev().find(|e| {
        e.provenance
            .content_address
            .as_deref()
            .is_some_and(|a| a.starts_with(selector))
    });
    if by_addr.is_some() {
        return by_addr;
    }
    entries.iter().rev().find(|e| e.path.ends_with(selector))
}

fn short(hash: Option<&str>) -> String {
    match hash {
        Some(h) => h.chars().take(12).collect(),
        None => "-".to_string(),
    }
}

/// The `runs list` table (deterministic; journal order).
pub fn render_list(entries: &[RunEntry]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>4}  {:<14} {:<13} {:<13} {:>11}  {}\n",
        "idx", "artifact", "address", "revision", "unix_secs", "path"
    ));
    for e in entries {
        out.push_str(&format!(
            "{:>4}  {:<14} {:<13} {:<13} {:>11}  {}\n",
            e.index,
            e.provenance.artifact,
            short(e.provenance.content_address.as_deref()),
            short(Some(&e.provenance.git_revision)),
            e.unix_secs,
            e.path,
        ));
    }
    out.push_str(&format!("{} run(s)\n", entries.len()));
    out
}

/// The `runs show` detail view for one entry.
pub fn render_show(entry: &RunEntry) -> String {
    let p = &entry.provenance;
    let mut out = String::new();
    out.push_str(&format!("run #{} — {}\n", entry.index, entry.path));
    out.push_str(&format!("  artifact:           {}\n", p.artifact));
    out.push_str(&format!(
        "  content_address:    {}\n",
        p.content_address.as_deref().unwrap_or("-")
    ));
    out.push_str(&format!("  git_revision:       {}\n", p.git_revision));
    out.push_str(&format!("  host:               {}\n", p.host));
    out.push_str(&format!(
        "  config_fingerprint: {}\n",
        p.config_fingerprint.as_deref().unwrap_or("-")
    ));
    out.push_str(&format!("  schema_hash:        {}\n", p.schema_hash));
    out.push_str(&format!("  unix_secs:          {}\n", entry.unix_secs));
    out
}

/// The `runs diff` report between two entries. Matching content
/// addresses mean bit-identical payloads (remaining provenance
/// differences are context, reported as such); otherwise every
/// differing provenance field is pinpointed.
pub fn render_diff(a: &RunEntry, b: &RunEntry) -> String {
    let mut out = String::new();
    out.push_str(&format!("a: run #{} — {}\n", a.index, a.path));
    out.push_str(&format!("b: run #{} — {}\n", b.index, b.path));
    let same_payload = matches!(
        (&a.provenance.content_address, &b.provenance.content_address),
        (Some(x), Some(y)) if x == y
    );
    let diffs = a.provenance.diff(&b.provenance);
    if same_payload {
        out.push_str(&format!(
            "payload: bit-identical (content address {})\n",
            a.provenance.content_address.as_deref().unwrap_or("-"),
        ));
        if diffs.is_empty() {
            out.push_str("provenance: identical\n");
        } else {
            out.push_str("provenance context differs:\n");
        }
    } else if diffs.is_empty() {
        out.push_str("provenance: identical\n");
    } else {
        out.push_str("payloads differ:\n");
    }
    for (field, va, vb) in &diffs {
        out.push_str(&format!("  {field:<18} a={va}  b={vb}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eval_trace::provenance::{hex64, journal_line};

    fn prov(artifact: &str, addr: Option<u64>, rev: &str, cfg: Option<u64>) -> Provenance {
        Provenance {
            artifact: artifact.to_string(),
            content_address: addr.map(hex64),
            git_revision: rev.to_string(),
            host: hex64(0xbeef),
            config_fingerprint: cfg.map(hex64),
            schema_hash: hex64(0xfeed),
        }
    }

    fn journal() -> String {
        let mut text = String::from("# comment line\nnot json\n");
        for (i, (path, p)) in [
            (
                "target/BENCH_a.json",
                prov("bench-json", Some(0xa111_0000_0000_1111), "rev1", None),
            ),
            (
                "target/BENCH_b.json",
                prov("bench-json", Some(0xa111_0000_0000_1111), "rev2", None),
            ),
            (
                "target/trace.jsonl",
                prov("trace-jsonl", Some(0xb222_0000_0000_2222), "rev2", Some(7)),
            ),
        ]
        .iter()
        .enumerate()
        {
            text.push_str(&journal_line(Path::new(path), p, 100 + i as u64));
            text.push('\n');
        }
        text
    }

    #[test]
    fn parse_journal_skips_junk_and_indexes_entries() {
        let entries = parse_journal(&journal());
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].index, 0);
        assert_eq!(entries[2].path, "target/trace.jsonl");
        assert_eq!(entries[2].unix_secs, 102);
        assert_eq!(entries[2].provenance.config_fingerprint, Some(hex64(7)));
    }

    #[test]
    fn find_resolves_index_address_prefix_and_path_suffix() {
        let entries = parse_journal(&journal());
        assert_eq!(find(&entries, "1").map(|e| e.index), Some(1));
        let addr_prefix = &hex64(0xb222_0000_0000_2222)[..6];
        assert_eq!(find(&entries, addr_prefix).map(|e| e.index), Some(2));
        assert_eq!(find(&entries, "BENCH_a.json").map(|e| e.index), Some(0));
        // Shared-address selector resolves to the latest entry.
        assert_eq!(
            find(&entries, &hex64(0xa111_0000_0000_1111)).map(|e| e.index),
            Some(1)
        );
        assert_eq!(find(&entries, "no-such-thing"), None);
    }

    #[test]
    fn diff_reports_bit_identical_payloads_with_context() {
        let entries = parse_journal(&journal());
        let report = render_diff(&entries[0], &entries[1]);
        assert!(report.contains("bit-identical"));
        assert!(report.contains(&hex64(0xa111_0000_0000_1111)));
        assert!(report.contains("git_revision"));
        assert!(report.contains("a=rev1"));
    }

    #[test]
    fn diff_pinpoints_differing_fields() {
        let entries = parse_journal(&journal());
        let report = render_diff(&entries[1], &entries[2]);
        assert!(report.contains("payloads differ"));
        assert!(report.contains("content_address"));
        assert!(report.contains("artifact"));
        assert!(report.contains("config_fingerprint"));
    }

    #[test]
    fn list_renders_every_entry() {
        let entries = parse_journal(&journal());
        let listing = render_list(&entries);
        assert!(listing.contains("3 run(s)"));
        assert!(listing.contains("target/BENCH_b.json"));
        assert!(listing.contains("bench-json"));
        let shown = render_show(&entries[2]);
        assert!(shown.contains("trace-jsonl"));
        assert!(shown.contains(&hex64(7)));
    }
}
