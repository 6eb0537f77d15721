//! Plain-text table rendering for [`crate::report`] — the same
//! rows/series the paper's tables and figures report.

/// Render a fixed-width table: a header row plus data rows, columns sized
/// to content, right-aligned except the first column.
pub fn render(headers: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i == 0 {
                line.push_str(&format!("{cell:<w$}"));
            } else {
                line.push_str(&format!("  {cell:>w$}"));
            }
        }
        line.push('\n');
        line
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}

/// Format bytes with binary-unit suffixes (4.0KiB, 2.0MiB, …).
pub fn fmt_bytes(b: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    if v >= 100.0 {
        format!("{v:.0}{}", UNITS[u])
    } else {
        format!("{v:.1}{}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let out = render(
            &["Device", "P", "R2"],
            &[
                vec!["Samsung 860 pro".into(), "3.3".into(), "0.999".into()],
                vec!["S55".into(), "2.9".into(), "0.999".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Device"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Columns align: the widths of all rows match.
        assert_eq!(lines[2].len(), lines[0].len());
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512.0), "512B");
        assert_eq!(fmt_bytes(4096.0), "4.0KiB");
        assert_eq!(fmt_bytes(4.0 * 1024.0 * 1024.0), "4.0MiB");
        assert_eq!(fmt_bytes(1.5 * 1024.0 * 1024.0 * 1024.0), "1.5GiB");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        render(&["a", "b"], &[vec!["x".into()]]);
    }
}
