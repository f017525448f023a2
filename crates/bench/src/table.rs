//! Aligned-table and CSV rendering for the figure tables.

use std::fmt::Write as _;

/// One table body: stringified cells, one `Vec` per row.
pub type Rows = Vec<Vec<String>>;

/// The column-aligned form printed to the terminal: a `== name ==` title,
/// the header, then the rows, each column right-aligned to its widest
/// cell.
pub fn render(name: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, c) in widths.iter_mut().zip(row) {
            *w = (*w).max(c.len());
        }
    }
    let mut out = format!("== {name} ==\n");
    push_aligned(&mut out, &widths, header.iter().copied());
    for row in rows {
        push_aligned(&mut out, &widths, row.iter().map(String::as_str));
    }
    out
}

fn push_aligned<'a>(out: &mut String, widths: &[usize], cells: impl Iterator<Item = &'a str>) {
    let mut line = String::new();
    for (c, w) in cells.zip(widths) {
        let _ = write!(line, "{c:>w$}  ");
    }
    out.push_str(line.trim_end());
    out.push('\n');
}

/// The committed form (`results/<name>.csv`): the header line, then one
/// comma-joined line per row.
pub fn csv(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = header.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Format a GB/s value.
pub fn gbs(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a ratio as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_is_header_then_comma_joined_rows() {
        let rows = vec![vec!["1".to_string(), "2.50".to_string()]];
        assert_eq!(csv(&["a", "b"], &rows), "a,b\n1,2.50\n");
        assert_eq!(csv(&["a", "b"], &[]), "a,b\n");
    }

    #[test]
    fn render_right_aligns_to_the_widest_cell() {
        let rows = vec![vec!["wide-cell".to_string(), "2".to_string()]];
        assert_eq!(
            render("t", &["a", "b"], &rows),
            "== t ==\n        a  b\nwide-cell  2\n"
        );
    }
}
