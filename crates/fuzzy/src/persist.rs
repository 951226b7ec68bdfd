//! Persistence for trained controllers.
//!
//! The paper stores the trained rule matrices in "a reserved memory area"
//! (~120 KB for the whole controller system, §5). This module provides an
//! equivalent: a small, versioned, human-readable text format for saving
//! and restoring [`FuzzyController`]s, so manufacturer-site training and
//! deployment can live in different processes.
//!
//! The format is line-oriented:
//!
//! ```text
//! fuzzy-controller v1
//! rules <n> inputs <m>
//! mu <m floats>        (n lines)
//! sigma <m floats>     (n lines)
//! y <n floats>
//! ```
//!
//! Every versioned format in the workspace (this one, the
//! [`Normalizer`](crate::Normalizer)'s, and the learned models' in
//! `eval-adapt`) is built from the same codec: a header line, a
//! `<key> <count>` dimension line ([`read_dims`]) and prefixed number
//! rows ([`read_row`], [`dump_floats`], [`dump_ints`]).

use std::fmt;
use std::num::ParseFloatError;
use std::str::FromStr;

use crate::controller::FuzzyController;

/// Error while parsing a serialized controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The header line is missing or has the wrong version.
    BadHeader,
    /// A section is missing or truncated.
    UnexpectedEnd {
        /// What the parser was looking for.
        expected: &'static str,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// The offending token.
        token: String,
    },
    /// The declared dimensions are invalid (zero rules/inputs, or a row
    /// has the wrong arity).
    BadDimensions,
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::BadHeader => write!(f, "missing or unsupported header"),
            PersistError::UnexpectedEnd { expected } => {
                write!(f, "unexpected end of input while reading {expected}")
            }
            PersistError::BadNumber { token } => write!(f, "invalid number {token:?}"),
            PersistError::BadDimensions => write!(f, "invalid controller dimensions"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<ParseFloatError> for PersistError {
    fn from(_: ParseFloatError) -> Self {
        PersistError::BadNumber {
            token: String::new(),
        }
    }
}

/// The non-blank lines of a serialized artifact, the unit every codec
/// in this module reads.
pub fn content_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines().filter(|l| !l.trim().is_empty())
}

/// Takes the next line, or reports which section was cut off.
///
/// # Errors
///
/// [`PersistError::UnexpectedEnd`] when `lines` is exhausted.
pub fn next_line<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    expected: &'static str,
) -> Result<&'a str, PersistError> {
    lines.next().ok_or(PersistError::UnexpectedEnd { expected })
}

/// Checks that the next line is exactly `header` (surrounding
/// whitespace aside): the format name and version.
///
/// # Errors
///
/// [`PersistError::BadHeader`] on a missing or different line.
pub fn expect_header<'a>(
    lines: &mut impl Iterator<Item = &'a str>,
    header: &str,
) -> Result<(), PersistError> {
    match lines.next() {
        Some(l) if l.trim() == header => Ok(()),
        _ => Err(PersistError::BadHeader),
    }
}

/// Reads a `<key> <count> [<key> <count> ...]` dimension line with
/// exactly `keys`, in order; every count must be a positive integer.
///
/// # Errors
///
/// [`PersistError::UnexpectedEnd`] when the line is missing,
/// [`PersistError::BadDimensions`] for any other mismatch.
pub fn read_dims<'a, const N: usize>(
    lines: &mut impl Iterator<Item = &'a str>,
    keys: [&str; N],
) -> Result<[usize; N], PersistError> {
    let line = next_line(lines, "dimensions")?;
    let mut tok = line.split_whitespace();
    let mut dims = [0; N];
    for (dim, key) in dims.iter_mut().zip(keys) {
        if tok.next() != Some(key) {
            return Err(PersistError::BadDimensions);
        }
        *dim = tok
            .next()
            .and_then(|t| t.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .ok_or(PersistError::BadDimensions)?;
    }
    match tok.next() {
        None => Ok(dims),
        Some(_) => Err(PersistError::BadDimensions),
    }
}

/// Parses exactly `want` whitespace-separated numbers.
///
/// # Errors
///
/// [`PersistError::BadNumber`] on an unparsable token,
/// [`PersistError::BadDimensions`] on the wrong count.
pub fn parse_row<T: FromStr>(line: &str, want: usize) -> Result<Vec<T>, PersistError> {
    let vals = line
        .split_whitespace()
        .map(|t| {
            t.parse::<T>().map_err(|_| PersistError::BadNumber {
                token: t.to_string(),
            })
        })
        .collect::<Result<Vec<T>, _>>()?;
    if vals.len() != want {
        return Err(PersistError::BadDimensions);
    }
    Ok(vals)
}

/// Reads one `<prefix> <want numbers>` row.
///
/// # Errors
///
/// [`PersistError::UnexpectedEnd`] naming `prefix` when the line is
/// missing or starts otherwise; [`parse_row`]'s errors for the numbers.
pub fn read_row<'a, T: FromStr>(
    lines: &mut impl Iterator<Item = &'a str>,
    prefix: &'static str,
    want: usize,
) -> Result<Vec<T>, PersistError> {
    let rest = next_line(lines, prefix)?
        .strip_prefix(prefix)
        .ok_or(PersistError::UnexpectedEnd { expected: prefix })?;
    parse_row(rest, want)
}

/// Reads `rows` consecutive [`read_row`] rows into one row-major vector.
///
/// # Errors
///
/// As [`read_row`].
pub fn read_rows<'a, T: FromStr>(
    lines: &mut impl Iterator<Item = &'a str>,
    prefix: &'static str,
    rows: usize,
    cols: usize,
) -> Result<Vec<T>, PersistError> {
    let mut data = Vec::with_capacity(rows * cols);
    for _ in 0..rows {
        data.extend(read_row(lines, prefix, cols)?);
    }
    Ok(data)
}

/// Appends a `<prefix> <floats>` row; `{:e}` keeps every finite value
/// bit-exact through [`read_row`].
pub fn dump_floats(out: &mut String, prefix: &str, vals: &[f64]) {
    out.push_str(prefix);
    for v in vals {
        out.push_str(&format!(" {v:e}"));
    }
    out.push('\n');
}

/// Appends a `<prefix> <integers>` row.
pub fn dump_ints(out: &mut String, prefix: &str, vals: &[i32]) {
    out.push_str(prefix);
    for v in vals {
        out.push_str(&format!(" {v}"));
    }
    out.push('\n');
}

impl FuzzyController {
    /// Serializes the controller to the v1 text format.
    ///
    /// Uses full-precision hex-free decimal (`{:e}`) so a round trip is
    /// bit-exact for finite values.
    pub fn to_text(&self) -> String {
        let n = self.rules();
        let m = self.inputs();
        let mut out = String::with_capacity(64 + n * m * 26);
        out.push_str("fuzzy-controller v1\n");
        out.push_str(&format!("rules {n} inputs {m}\n"));
        for row in self.mu.chunks_exact(m) {
            dump_floats(&mut out, "mu", row);
        }
        for row in self.sigma.chunks_exact(m) {
            dump_floats(&mut out, "sigma", row);
        }
        dump_floats(&mut out, "y", &self.y);
        out
    }

    /// Parses a controller from the v1 text format.
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on malformed input.
    pub fn from_text(text: &str) -> Result<FuzzyController, PersistError> {
        let mut lines = content_lines(text);
        expect_header(&mut lines, "fuzzy-controller v1")?;
        let [n, m] = read_dims(&mut lines, ["rules", "inputs"])?;
        let mu = read_rows(&mut lines, "mu", n, m)?;
        let sigma: Vec<f64> = read_rows(&mut lines, "sigma", n, m)?;
        let y = read_row(&mut lines, "y", n)?;
        if !sigma.iter().all(|&s| s > 0.0) {
            return Err(PersistError::BadDimensions);
        }
        Ok(FuzzyController::from_parts(m, mu, sigma, y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::TrainingConfig;

    fn trained() -> FuzzyController {
        let examples: Vec<(Vec<f64>, f64)> = (0..300)
            .map(|i| {
                let a = (i % 20) as f64 / 19.0;
                let b = ((i / 20) % 15) as f64 / 14.0;
                (vec![a, b], a * 0.5 + b * b)
            })
            .collect();
        FuzzyController::train(&examples, &TrainingConfig::micro08(), 3).expect("trains")
    }

    #[test]
    fn round_trip_is_exact() {
        let fc = trained();
        let text = fc.to_text();
        let back = FuzzyController::from_text(&text).expect("parses");
        assert_eq!(fc, back);
        // And behaves identically.
        for x in [[0.1, 0.9], [0.5, 0.5], [0.99, 0.01]] {
            assert_eq!(fc.infer(&x), back.infer(&x));
        }
    }

    #[test]
    fn footprint_matches_papers_budget() {
        // The paper's whole controller system fits in ~120 KB; one of our
        // 25-rule controllers must be a small fraction of that.
        let text = trained().to_text();
        assert!(
            text.len() < 8 * 1024,
            "serialized controller is {} bytes",
            text.len()
        );
    }

    #[test]
    fn rejects_bad_header() {
        assert_eq!(
            FuzzyController::from_text("fuzzy-controller v9\n"),
            Err(PersistError::BadHeader)
        );
        assert_eq!(FuzzyController::from_text(""), Err(PersistError::BadHeader));
    }

    #[test]
    fn rejects_truncation() {
        let fc = trained();
        let text = fc.to_text();
        let cut = &text[..text.len() / 2];
        assert!(FuzzyController::from_text(cut).is_err());
    }

    #[test]
    fn rejects_garbage_numbers() {
        let fc = trained();
        let text = fc.to_text().replacen("mu ", "mu xyz ", 1);
        assert!(matches!(
            FuzzyController::from_text(&text),
            Err(PersistError::BadNumber { .. }) | Err(PersistError::BadDimensions)
        ));
    }

    #[test]
    fn rejects_nonpositive_sigma() {
        let mut text = String::from("fuzzy-controller v1\nrules 1 inputs 1\n");
        text.push_str("mu 0.5\nsigma 0\ny 1.0\n");
        assert_eq!(
            FuzzyController::from_text(&text),
            Err(PersistError::BadDimensions)
        );
    }
}
