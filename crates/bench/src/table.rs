//! Minimal aligned-column text tables for experiment output.

use std::fmt;

/// A titled table with a header row and string cells, rendered with
/// per-column alignment (left for the first column, right for the rest —
/// the layout of the paper's ranking tables).
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and header labels.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells render empty, extras are truncated.
    pub fn push_row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().take(ncols).enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            for (i, &width) in widths.iter().enumerate() {
                let cell = cells.get(i).map_or("", String::as_str);
                if i == 0 {
                    write!(f, "{cell:<width$}")?;
                } else {
                    write!(f, "  {cell:>width$}")?;
                }
            }
            writeln!(f)
        };
        render(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            render(f, row)?;
        }
        Ok(())
    }
}

/// Formats a score with four decimals (the paper's precision).
pub fn fmt_score(v: f64) -> String {
    format!("{v:.4}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Demo", &["name", "score"]);
        t.push_row(vec!["KDD".into(), fmt_score(0.1198)]);
        t.push_row(vec!["SIGMOD".into(), fmt_score(0.0284)]);
        let s = t.to_string();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("0.1198"));
        // Both data lines align the score column to the same width.
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len());
    }
}
