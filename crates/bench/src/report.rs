//! Text tables for experiment output (the demo panels, printable).

use std::fmt::Write as _;

/// A simple aligned text table builder.
#[derive(Debug, Default, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of cells.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        for (i, h) in self.header.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{h:<w$}", w = widths[i]);
        }
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            for (i, c) in r.iter().enumerate().take(ncols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:<w$}", w = widths[i]);
            }
            out.push('\n');
        }
        out
    }
}

/// Format a duration in milliseconds with two decimals.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Format a duration in seconds with three decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("longer"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(ms(std::time::Duration::from_millis(1500)), "1500.00");
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
    }
}
