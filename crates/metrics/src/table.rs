//! Aligned text tables — the experiment binaries print the paper's tables
//! with these.

use std::fmt::Display;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Table {
            title: title.to_owned(),
            columns: columns.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the column count.
    pub fn row<D: Display>(&mut self, cells: &[D]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width does not match table {:?}",
            self.title
        );
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
        self
    }

    /// Cell accessor (row, column) for assertions in tests.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Render as aligned text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let line = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                // Right-align numbers-ish columns by always right-aligning;
                // headers read fine either way.
                out.push_str(&format!("{:>width$}", cell, width = widths[i]));
            }
            out.push('\n');
        };
        line(&mut out, &self.columns);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["size", "bw"]);
        t.row(&["64", "3.2"]).row(&["1024", "19.7"]);
        let s = t.render();
        assert!(s.starts_with("Demo\n"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // All data lines have equal width.
        assert_eq!(lines[3].len(), lines[4].len());
        assert_eq!(t.cell(1, 1), "19.7");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only-one"]);
    }
}
