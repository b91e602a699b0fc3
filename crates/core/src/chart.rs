//! ASCII charts: the speedup-prediction display of Figure 3.

use std::fmt::Write as _;

/// One point of a speedup curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupPoint {
    /// Processor count.
    pub processors: usize,
    /// Predicted (or measured) speedup.
    pub speedup: f64,
}

/// Renders a speedup chart: one bar per processor count, with the ideal
/// (linear) speedup marked by `|` for contrast.
pub fn speedup_chart(title: &str, points: &[SpeedupPoint], width: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    if points.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    let max_axis = points
        .iter()
        .map(|p| p.processors as f64)
        .fold(1.0f64, f64::max);
    let scale = width as f64 / max_axis;
    for p in points {
        let bars = ((p.speedup * scale).round() as usize).min(width);
        let ideal = ((p.processors as f64 * scale).round() as usize).min(width);
        let mut row: Vec<char> = vec![' '; width + 1];
        for c in row.iter_mut().take(bars) {
            *c = '#';
        }
        if ideal < row.len() {
            row[ideal] = '|';
        }
        let _ = writeln!(
            out,
            "{:>4} procs {} {:.2}x",
            p.processors,
            row.iter().collect::<String>(),
            p.speedup
        );
    }
    let _ = writeln!(out, "           ('|' marks ideal linear speedup)");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_chart_shape() {
        let pts = vec![
            SpeedupPoint {
                processors: 2,
                speedup: 1.7,
            },
            SpeedupPoint {
                processors: 4,
                speedup: 2.9,
            },
            SpeedupPoint {
                processors: 8,
                speedup: 4.2,
            },
        ];
        let text = speedup_chart("Predicted speedup (LU design)", &pts, 40);
        assert!(text.contains("Predicted speedup"));
        assert!(text.contains("2 procs"));
        assert!(text.contains("8 procs"));
        assert!(text.contains("4.20x"));
        assert!(text.contains('|'));
        // Longer bars for higher speedups.
        let bars = |line: &str| line.matches('#').count();
        let lines: Vec<&str> = text.lines().collect();
        assert!(bars(lines[1]) < bars(lines[2]));
        assert!(bars(lines[2]) < bars(lines[3]));
    }

    #[test]
    fn empty_inputs() {
        assert!(speedup_chart("t", &[], 10).contains("no data"));
    }
}
