//! A plain column table: what a figure yields when its data is not one
//! `FigureRow` per simulator run (the LP-level figures, fig10's time
//! series). Rendered as aligned text, CSV and JSON-lines.

use std::fmt::Write as _;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label.
    Text(String),
    /// A number and the fractional digits it prints with (so the CSV and
    /// the JSON-lines carry the same digits).
    Num(f64, usize),
}

impl Cell {
    fn plain(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Num(value, decimals) => format!("{value:.decimals$}"),
        }
    }
}

/// Named columns and rows of [`Cell`]s (every row as long as `columns`).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Column names: the CSV header.
    pub columns: Vec<String>,
    /// JSON-lines keys, one per column. Equal to `columns` except where a
    /// published artifact already differed (fig10 keys its depth columns
    /// by bare channel name).
    pub json_keys: Vec<String>,
    /// The data.
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table with the given columns.
    pub fn new<S: Into<String>>(columns: impl IntoIterator<Item = S>) -> Table {
        let columns: Vec<String> = columns.into_iter().map(Into::into).collect();
        Table {
            json_keys: columns.clone(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row: an optional leading label, then numbers with the
    /// fractional digits each prints with.
    pub fn push(&mut self, label: Option<&str>, numbers: impl IntoIterator<Item = (f64, usize)>) {
        let label = label.map(|l| Cell::Text(l.to_string()));
        let numbers = numbers.into_iter().map(|(v, d)| Cell::Num(v, d));
        self.rows.push(label.into_iter().chain(numbers).collect());
    }

    /// The numbers of the named column, top to bottom, over the rows
    /// whose first cell is the label `key` (`None` = every row).
    pub fn numbers(&self, key: Option<&str>, column: &str) -> Result<Vec<f64>, String> {
        let missing = || format!("no numeric `{column}` column");
        let i = self.columns.iter().position(|c| c == column);
        let i = i.ok_or_else(missing)?;
        let selected = self.rows.iter().filter(|r| match (key, r.first()) {
            (Some(key), Some(Cell::Text(label))) => label == key,
            (Some(_), _) => false,
            (None, _) => true,
        });
        let number = |r: &Vec<Cell>| match r.get(i) {
            Some(Cell::Num(value, _)) => Ok(*value),
            _ => Err(missing()),
        };
        selected.map(number).collect()
    }

    /// CSV document: header line, then one line per row.
    pub fn to_csv(&self) -> String {
        let mut out = self.columns.join(",") + "\n";
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Cell::plain).collect();
            out += &(cells.join(",") + "\n");
        }
        out
    }

    /// JSON-lines document: one object per row, newline-terminated.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for row in &self.rows {
            let field = |(key, cell): (&String, &Cell)| match cell {
                Cell::Text(s) => {
                    let escaped = s.replace('\\', "\\\\").replace('"', "\\\"");
                    format!("\"{key}\":\"{escaped}\"")
                }
                Cell::Num(..) => format!("\"{key}\":{}", cell.plain()),
            };
            let fields: Vec<String> = self.json_keys.iter().zip(row).map(field).collect();
            let _ = writeln!(out, "{{{}}}", fields.join(","));
        }
        out
    }

    /// Aligned text for the terminal: labels left, numbers right.
    pub fn to_text(&self) -> String {
        let body = self
            .rows
            .iter()
            .map(|r| r.iter().map(Cell::plain).collect());
        let lines: Vec<Vec<String>> = std::iter::once(self.columns.clone()).chain(body).collect();
        let mut out = String::new();
        for line in &lines {
            for (i, text) in line.iter().enumerate() {
                let cells = lines.iter().filter_map(|l| l.get(i));
                let w = cells.map(|c| c.chars().count()).max().unwrap_or(0);
                let _ = match self.rows.first().and_then(|r| r.get(i)) {
                    Some(Cell::Num(..)) => write!(out, "{text:>w$} "),
                    _ => write!(out, "{text:<w$} "),
                };
            }
            out.truncate(out.trim_end().len());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_csv_jsonl_and_text_from_the_same_cells() {
        let mut t = Table::new(["name", "x", "n"]);
        t.push(Some("a \"b\""), [(1.26, 1), (7.0, 0)]);
        assert_eq!(t.to_csv(), "name,x,n\na \"b\",1.3,7\n");
        let jsonl = "{\"name\":\"a \\\"b\\\"\",\"x\":1.3,\"n\":7}\n";
        assert_eq!(t.to_json_lines(), jsonl);
        assert_eq!(t.to_text(), "name    x n\na \"b\" 1.3 7\n");
        assert_eq!(t.numbers(Some("a \"b\""), "n"), Ok(vec![7.0]));
        assert_eq!(t.numbers(Some("other"), "n"), Ok(vec![]));
        assert!(t.numbers(None, "name").is_err());
    }
}
