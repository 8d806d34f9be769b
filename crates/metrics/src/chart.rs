//! ASCII line charts — the experiment binaries draw the paper's figures
//! with these (one glyph per series, shared axes).

/// One data series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, y)` points, any order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// New series from points.
    pub fn new(label: &str, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.to_owned(),
            points,
        }
    }
}

/// A multi-series ASCII chart.
#[derive(Debug, Clone)]
pub struct AsciiChart {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
}

const GLYPHS: &[u8] = b"*o+x#@%&";
/// Plot-area size, in characters.
const WIDTH: usize = 64;
const HEIGHT: usize = 18;

impl AsciiChart {
    /// New empty chart.
    pub fn new(title: &str, x_label: &str, y_label: &str) -> Self {
        AsciiChart {
            title: title.to_owned(),
            x_label: x_label.to_owned(),
            y_label: y_label.to_owned(),
            series: Vec::new(),
        }
    }

    /// Add a series.
    pub fn series(mut self, s: Series) -> Self {
        assert!(
            self.series.len() < GLYPHS.len(),
            "too many series for distinct glyphs"
        );
        self.series.push(s);
        self
    }

    /// Render the chart.
    pub fn render(&self) -> String {
        let pts: Vec<(f64, f64)> = self.series.iter().flat_map(|s| s.points.clone()).collect();
        if pts.is_empty() {
            return format!("{}\n(no data)\n", self.title);
        }
        let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y0, mut y1) = (0.0f64, f64::NEG_INFINITY); // y axis anchored at 0
        for &(x, y) in &pts {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
        if (x1 - x0).abs() < f64::EPSILON {
            x1 = x0 + 1.0;
        }
        if (y1 - y0).abs() < f64::EPSILON {
            y1 = y0 + 1.0;
        }
        let mut grid = vec![vec![b' '; WIDTH]; HEIGHT];
        for (si, s) in self.series.iter().enumerate() {
            let glyph = GLYPHS[si];
            for &(x, y) in &s.points {
                let cx = ((x - x0) / (x1 - x0) * (WIDTH - 1) as f64).round() as usize;
                let cy = ((y - y0) / (y1 - y0) * (HEIGHT - 1) as f64).round() as usize;
                let row = HEIGHT - 1 - cy;
                grid[row][cx] = glyph;
            }
        }
        let mut out = String::new();
        out.push_str(&format!("{}   [y: {}]\n", self.title, self.y_label));
        for (i, row) in grid.iter().enumerate() {
            let yv = y1 - (y1 - y0) * i as f64 / (HEIGHT - 1) as f64;
            out.push_str(&format!("{yv:>9.2} |"));
            out.push_str(std::str::from_utf8(row).expect("ascii grid"));
            out.push('\n');
        }
        out.push_str(&format!("{:>9} +{}\n", "", "-".repeat(WIDTH)));
        out.push_str(&format!(
            "{:>10}{:<w$.2}{:>8.2}   [x: {}]\n",
            "",
            x0,
            x1,
            self.x_label,
            w = WIDTH - 6
        ));
        for (si, s) in self.series.iter().enumerate() {
            out.push_str(&format!(
                "{:>11} {} = {}\n",
                "", GLYPHS[si] as char, s.label
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_points_within_bounds() {
        let chart = AsciiChart::new("t", "x", "y")
            .series(Series::new("a", vec![(0.0, 0.0), (10.0, 5.0)]))
            .series(Series::new("b", vec![(5.0, 2.5)]));
        let s = chart.render();
        assert!(s.contains('*'));
        assert!(s.contains('o'));
        assert!(s.contains("a"));
        assert!(s.contains("b"));
    }

    #[test]
    fn empty_chart_does_not_panic() {
        let chart = AsciiChart::new("t", "x", "y");
        assert!(chart.render().contains("no data"));
    }

    #[test]
    fn constant_series_renders() {
        let chart =
            AsciiChart::new("t", "x", "y").series(Series::new("c", vec![(1.0, 3.0), (2.0, 3.0)]));
        let s = chart.render();
        assert!(s.contains('*'));
    }
}
