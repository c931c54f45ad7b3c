//! Plain-text tables for the `figures` entries.

/// A simple aligned table printer: fixed-width columns, one header row.
pub(crate) struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Start a table with the given column headers.
    pub(crate) fn new<I: IntoIterator<Item = S>, S: Into<String>>(headers: I) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub(crate) fn row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity");
        self.rows.push(row);
    }

    /// Render with aligned columns.
    pub(crate) fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        for row in &self.rows {
            out.push('\n');
            out.push_str(&fmt_row(row));
        }
        out
    }
}

/// Format a microsecond value.
pub(crate) fn us(v: f64) -> String {
    format!("{v:.1}")
}

/// Format an Mpps value.
pub(crate) fn mpps(v_pps: f64) -> String {
    format!("{:.2}", v_pps / 1e6)
}

/// Format a percentage.
pub(crate) fn pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = TablePrinter::new(["a", "long-header"]);
        t.row(["1", "2"]);
        t.row(["100", "20000"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert!(lines[3].ends_with("20000"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = TablePrinter::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn formatters() {
        assert_eq!(us(12.34), "12.3");
        assert_eq!(mpps(1_500_000.0), "1.50");
        assert_eq!(pct(0.129), "12.9%");
    }
}
