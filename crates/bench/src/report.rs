//! Aligned-markdown tables and JSON result dumps.

use serde::Serialize;

/// A printable results table.
#[derive(Debug, Clone, Serialize)]
pub struct Table {
    /// Table caption, e.g. `"Fig. 12: training time over tree size"`.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes appended under the table (paper-expected shape etc.).
    pub notes: Vec<String>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the arity differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Renders aligned markdown.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("\n## {}\n\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:<w$} |"));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        for note in &self.notes {
            out.push_str(&format!("\n> {note}\n"));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Writes the table (and any sibling tables) as JSON.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_json(tables: &[&Table], path: &std::path::Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(tables).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "v"]);
        t.row(vec!["a".into(), "1.0".into()]);
        t.row(vec!["longer-name".into(), "2".into()]);
        t.note("a note");
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("| longer-name |"));
        assert!(s.contains("| a           |"));
        assert!(s.contains("> a note"));
        // All data lines share the same width.
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        assert!(lines.windows(2).all(|w| w[0].len() == w[1].len()));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn json_dump_roundtrips() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into()]);
        let path = std::env::temp_dir().join("harp-bench-table-test.json");
        Table::write_json(&[&t], &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"title\": \"demo\""));
        std::fs::remove_file(&path).ok();
    }
}
