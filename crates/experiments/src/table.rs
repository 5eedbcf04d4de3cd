//! Plain-text table rendering for experiment output.

use std::fmt;

/// A printable results table with a title, optional note, headers, and
/// rows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    /// Title line (e.g. `"Figure 7: change in application's performance (%)"`).
    pub title: String,
    /// Optional explanatory note printed under the title.
    pub note: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with a title.
    pub fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            ..Table::default()
        }
    }

    /// Sets the note line.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }

    /// Sets the headers.
    pub fn with_headers<I, S>(mut self, headers: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.headers = headers.into_iter().map(Into::into).collect();
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width (when
    /// headers are set).
    pub fn push_row<I, S>(&mut self, row: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        if !self.headers.is_empty() {
            assert_eq!(
                row.len(),
                self.headers.len(),
                "row width must match header width"
            );
        }
        self.rows.push(row);
    }

    /// Sets the headers — `corner`, one per `columns`, then `summary` —
    /// and appends one row per `(label, values)`: the label, each value
    /// in `fmt`, and `summarize` of the values. Most of the paper's
    /// figures have this shape.
    pub fn with_value_rows(
        mut self,
        corner: &str,
        columns: &[String],
        (summary, summarize): (&str, fn(&[f64]) -> f64),
        fmt: fn(f64) -> String,
        rows: impl IntoIterator<Item = (String, Vec<f64>)>,
    ) -> Self {
        let mut headers = vec![corner.to_string()];
        headers.extend(columns.iter().cloned());
        headers.push(summary.to_string());
        self.headers = headers;
        for (label, vals) in rows {
            let mut row = vec![label];
            row.extend(vals.iter().map(|&v| fmt(v)));
            row.push(fmt(summarize(&vals)));
            self.push_row(row);
        }
        self
    }

    fn widths(&self) -> Vec<usize> {
        let cols = self
            .headers
            .len()
            .max(self.rows.iter().map(Vec::len).max().unwrap_or(0));
        let mut w = vec![0usize; cols];
        for (i, h) in self.headers.iter().enumerate() {
            w[i] = w[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.len());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        if !self.note.is_empty() {
            writeln!(f, "   {}", self.note)?;
        }
        let w = self.widths();
        if !self.headers.is_empty() {
            let line: Vec<String> = self
                .headers
                .iter()
                .enumerate()
                .map(|(i, h)| format!("{:>width$}", h, width = w[i]))
                .collect();
            writeln!(f, "{}", line.join("  "))?;
            writeln!(
                f,
                "{}",
                "-".repeat(w.iter().sum::<usize>() + 2 * (w.len() - 1))
            )?;
        }
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = w[i]))
                .collect();
            writeln!(f, "{}", line.join("  "))?;
        }
        Ok(())
    }
}

/// Formats a float with one decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with two decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a float with three decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("Demo")
            .with_note("a note")
            .with_headers(["bench", "value"]);
        t.push_row(["Find", "1.0"]);
        t.push_row(["Iscp", "22.5"]);
        t
    }

    #[test]
    fn display_contains_everything() {
        let s = sample().to_string();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("a note"));
        assert!(s.contains("bench"));
        assert!(s.contains("22.5"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn ragged_row_rejected() {
        let mut t = Table::new("x").with_headers(["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(f2(1.267), "1.27");
        assert_eq!(f3(0.12345), "0.123");
    }
}
