//! Text-format loaders: LIBSVM and label-first CSV.
//!
//! The paper's datasets ship in LIBSVM (HIGGS, AIRLINE) or CSV-like formats;
//! these loaders let users of this library run on the real files when they
//! have them, while the repository's experiments use the synthetic
//! generators.

use crate::dataset::Dataset;
use crate::matrix::{CsrMatrix, DenseMatrix, FeatureMatrix};
use std::io::BufRead;
use std::path::Path;

/// Errors raised by the text loaders.
#[derive(Debug)]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed content; carries line number (1-based) and description.
    Parse { line: usize, message: String },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "i/o error: {e}"),
            Self::Parse { line, message } => write!(f, "parse error on line {line}: {message}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> LoadError {
    LoadError::Parse { line, message: message.into() }
}

/// Reads a LIBSVM-format dataset (`label idx:value idx:value ...`, indices
/// 1-based or 0-based — auto-detected; comments after `#` ignored; a literal
/// `nan` value is a missing entry, as in CSV).
pub fn read_libsvm<R: BufRead>(reader: R, name: &str) -> Result<Dataset, LoadError> {
    let mut rows: Vec<Vec<(u32, f32)>> = Vec::new();
    let mut labels: Vec<f32> = Vec::new();
    // The largest index and the line it is on.
    let mut max_col: (u32, usize) = (0, 0);
    let mut min_idx: Option<u32> = None;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        let label: f32 = parts
            .next()
            .ok_or_else(|| parse_err(lineno + 1, "missing label"))?
            .parse()
            .map_err(|_| parse_err(lineno + 1, "bad label"))?;
        let mut row: Vec<(u32, f32)> = Vec::new();
        for tok in parts {
            let (idx, val) = tok
                .split_once(':')
                .ok_or_else(|| parse_err(lineno + 1, format!("expected idx:value, got {tok:?}")))?;
            let idx: u32 = idx.parse().map_err(|_| parse_err(lineno + 1, "bad feature index"))?;
            let val: f32 = val.parse().map_err(|_| parse_err(lineno + 1, "bad feature value"))?;
            if let Some(&(prev, _)) = row.last() {
                if idx <= prev {
                    return Err(parse_err(lineno + 1, "feature indices must increase"));
                }
            }
            min_idx = Some(min_idx.map_or(idx, |min| min.min(idx)));
            max_col = max_col.max((idx, lineno + 1));
            row.push((idx, val));
        }
        rows.push(row);
        // Map {-1, +1} convention to {0, 1}.
        labels.push(if label < 0.0 { 0.0 } else { label });
    }
    // Shift 1-based indices down.
    let offset = if matches!(min_idx, None | Some(0)) { 0 } else { 1 };
    // The column count must itself fit a feature index: 0-based data that
    // uses index `u32::MAX` has one column too many.
    let n_cols = if rows.iter().all(|r| r.is_empty()) {
        0
    } else {
        let (idx, line) = max_col;
        (idx - offset).checked_add(1).ok_or_else(|| {
            parse_err(
                line,
                format!("feature index {idx} does not fit: at most {} columns", u32::MAX),
            )
        })? as usize
    };
    for row in &mut rows {
        for entry in row.iter_mut() {
            entry.0 -= offset;
        }
    }
    let matrix = FeatureMatrix::Sparse(CsrMatrix::from_rows(n_cols, &rows));
    Ok(Dataset::new(name, matrix, labels))
}

/// Reads a label-first CSV dataset (`label,f0,f1,...`; empty fields and
/// literal `nan` are missing; an optional non-numeric header row is skipped).
pub fn read_csv<R: BufRead>(reader: R, name: &str) -> Result<Dataset, LoadError> {
    let mut values: Vec<f32> = Vec::new();
    let mut labels: Vec<f32> = Vec::new();
    let mut n_cols: Option<usize> = None;
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() < 2 {
            return Err(parse_err(lineno + 1, "need a label and at least one feature"));
        }
        let label: f32 = match fields[0].trim().parse() {
            Ok(v) => v,
            // A non-numeric first row is treated as a header.
            Err(_) if labels.is_empty() && values.is_empty() => continue,
            Err(_) => return Err(parse_err(lineno + 1, "bad label")),
        };
        let cols = fields.len() - 1;
        match n_cols {
            None => n_cols = Some(cols),
            Some(expected) if expected != cols => {
                return Err(parse_err(
                    lineno + 1,
                    format!("expected {expected} features, found {cols}"),
                ))
            }
            _ => {}
        }
        for field in &fields[1..] {
            let field = field.trim();
            if field.is_empty() || field.eq_ignore_ascii_case("nan") {
                values.push(f32::NAN);
            } else {
                values.push(field.parse().map_err(|_| parse_err(lineno + 1, "bad feature value"))?);
            }
        }
        labels.push(if label < 0.0 { 0.0 } else { label });
    }
    let n_cols = n_cols.unwrap_or(0);
    let matrix = FeatureMatrix::Dense(DenseMatrix::from_vec(labels.len(), n_cols, values));
    Ok(Dataset::new(name, matrix, labels))
}

/// Writes a dataset in LIBSVM format (`label idx:value ...`, 1-based
/// indices, missing entries omitted).
///
/// # Errors
/// Propagates I/O failures.
pub fn write_libsvm<W: std::io::Write>(mut w: W, data: &Dataset) -> std::io::Result<()> {
    for r in 0..data.n_rows() {
        write!(w, "{}", data.labels[r])?;
        let mut err = None;
        data.features.for_each_in_row(r, |c, v| {
            if err.is_none() {
                err = write!(w, " {}:{}", c + 1, v).err();
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Writes a dataset in label-first CSV format with a header; missing values
/// become empty fields.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_csv<W: std::io::Write>(mut w: W, data: &Dataset) -> std::io::Result<()> {
    write!(w, "label")?;
    for c in 0..data.n_features() {
        write!(w, ",f{c}")?;
    }
    writeln!(w)?;
    for r in 0..data.n_rows() {
        write!(w, "{}", data.labels[r])?;
        for c in 0..data.n_features() {
            match data.features.get(r, c) {
                Some(v) => write!(w, ",{v}")?,
                None => write!(w, ",")?,
            }
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Loads a dataset from a path, dispatching on extension: `.svm`/`.libsvm`/
/// `.txt` → LIBSVM, `.csv` → CSV.
pub fn read_path(path: impl AsRef<Path>) -> Result<Dataset, LoadError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(file);
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("dataset");
    match path.extension().and_then(|e| e.to_str()) {
        Some("csv") => read_csv(reader, name),
        _ => read_libsvm(reader, name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn libsvm_roundtrip_small() {
        let text = "1 1:0.5 3:2.0\n-1 2:1.5\n0 1:3.0 2:4.0 3:5.0\n";
        let d = read_libsvm(Cursor::new(text), "t").unwrap();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.n_features(), 3);
        assert_eq!(d.labels, vec![1.0, 0.0, 0.0]);
        assert_eq!(d.features.get(0, 0), Some(0.5));
        assert_eq!(d.features.get(0, 1), None);
        assert_eq!(d.features.get(2, 2), Some(5.0));
    }

    #[test]
    fn libsvm_zero_based_indices() {
        let text = "1 0:1.0 2:2.0\n0 1:3.0\n";
        let d = read_libsvm(Cursor::new(text), "t").unwrap();
        assert_eq!(d.n_features(), 3);
        assert_eq!(d.features.get(0, 0), Some(1.0));
    }

    #[test]
    fn libsvm_comments_and_blanks_skipped() {
        let text = "# header\n1 1:1.0\n\n0 1:2.0 # trailing\n";
        let d = read_libsvm(Cursor::new(text), "t").unwrap();
        assert_eq!(d.n_rows(), 2);
    }

    #[test]
    fn libsvm_nan_value_is_missing() {
        let text = "1 1:0.5 3:nan\n0 2:NaN 3:2.0\n";
        let d = read_libsvm(Cursor::new(text), "t").unwrap();
        assert_eq!(d.n_features(), 3);
        assert_eq!(d.features.n_present(), 2);
        assert_eq!(d.features.get(0, 2), None);
        assert_eq!(d.features.get(1, 1), None);
        assert_eq!(d.features.get(1, 2), Some(2.0));
    }

    #[test]
    fn libsvm_rejects_unsorted_indices() {
        let text = "1 2:1.0 1:2.0\n";
        let err = read_libsvm(Cursor::new(text), "t").unwrap_err();
        assert!(matches!(err, LoadError::Parse { line: 1, .. }));
    }

    /// The largest 0-based index makes a column count no `u32` holds: a typed
    /// error naming the line, not an overflow (debug) or a wrapped count and
    /// a panic in `CsrMatrix::from_parts` (release).
    #[test]
    fn libsvm_rejects_an_index_that_does_not_fit() {
        let err = read_libsvm(Cursor::new("0 1:1\n1 0:1 4294967295:1\n"), "t").unwrap_err();
        assert!(matches!(err, LoadError::Parse { line: 2, .. }), "{err}");
        assert!(format!("{err}").contains("4294967295 does not fit"), "{err}");
        // One more digit never parsed; 1-based data may use the index.
        assert!(read_libsvm(Cursor::new("1 4294967296:1\n"), "t").is_err());
        let d = read_libsvm(Cursor::new("1 4294967295:1\n"), "t").unwrap();
        assert_eq!((d.n_features(), d.features.n_present()), (u32::MAX as usize, 1));
    }

    #[test]
    fn libsvm_rejects_bad_pair() {
        let err = read_libsvm(Cursor::new("1 oops\n"), "t").unwrap_err();
        assert!(format!("{err}").contains("idx:value"));
    }

    #[test]
    fn csv_with_header_and_missing() {
        let text = "label,a,b\n1,0.5,\n0,nan,2.5\n";
        let d = read_csv(Cursor::new(text), "t").unwrap();
        assert_eq!(d.n_rows(), 2);
        assert_eq!(d.n_features(), 2);
        assert_eq!(d.features.get(0, 1), None);
        assert_eq!(d.features.get(1, 0), None);
        assert_eq!(d.features.get(1, 1), Some(2.5));
    }

    #[test]
    fn csv_rejects_ragged_rows() {
        let text = "1,2.0,3.0\n0,4.0\n";
        let err = read_csv(Cursor::new(text), "t").unwrap_err();
        assert!(matches!(err, LoadError::Parse { line: 2, .. }));
    }

    #[test]
    fn libsvm_write_read_roundtrip() {
        let text = "1 1:0.5 3:2\n0 2:1.5\n";
        let d = read_libsvm(Cursor::new(text), "t").unwrap();
        let mut buf = Vec::new();
        write_libsvm(&mut buf, &d).unwrap();
        let d2 = read_libsvm(Cursor::new(buf), "t").unwrap();
        assert_eq!(d.labels, d2.labels);
        assert_eq!(d.features.n_present(), d2.features.n_present());
        assert_eq!(d.features.get(0, 2), d2.features.get(0, 2));
    }

    #[test]
    fn csv_write_read_roundtrip_with_missing() {
        let text = "1,0.5,\n0,,2.5\n";
        let d = read_csv(Cursor::new(text), "t").unwrap();
        let mut buf = Vec::new();
        write_csv(&mut buf, &d).unwrap();
        let d2 = read_csv(Cursor::new(buf), "t").unwrap();
        assert_eq!(d.labels, d2.labels);
        assert_eq!(d2.features.get(0, 1), None);
        assert_eq!(d2.features.get(1, 1), Some(2.5));
    }

    #[test]
    fn csv_negative_labels_map_to_zero() {
        let text = "-1,1.0\n1,2.0\n";
        let d = read_csv(Cursor::new(text), "t").unwrap();
        assert_eq!(d.labels, vec![0.0, 1.0]);
    }
}
