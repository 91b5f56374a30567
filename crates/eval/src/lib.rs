//! Experiment harness shared by the per-figure/table binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §7 for the index). This library holds what they share:
//! the Llama-2-7B/13B kernel shapes, deterministic synthetic data, timing
//! helpers, and plain-text table/CSV output.

use std::time::Instant;
use tmac_rng::Rng;

/// The six kernel shapes of the paper's Figures 6, 7 and 10 (`M × K`),
/// drawn from Llama-2-7B (4096/11008) and Llama-2-13B (5120/13824).
pub const SHAPES: [(usize, usize); 6] = [
    (4096, 4096),
    (11008, 4096),
    (4096, 11008),
    (5120, 5120),
    (13824, 5120),
    (5120, 13824),
];

/// Deterministic pseudo-Gaussian weights (sum of uniforms), seeded.
pub fn make_weights(m: usize, k: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..m * k).map(|_| rng.gaussian_ish() * 0.6).collect()
}

/// Deterministic pseudo-Gaussian activations, seeded.
pub fn make_act(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    (0..n).map(|_| rng.gaussian_ish()).collect()
}

/// Times `f`, returning the best wall-clock seconds over `iters` runs after
/// `warmup` runs (the paper's methodology: warm-up then average; best-of is
/// used here for noise robustness on shared CI hosts).
pub fn time_best<F: FnMut()>(mut f: F, warmup: usize, iters: usize) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// A plain-text, aligned results table that can be pasted into
/// `EXPERIMENTS.md`.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "table row arity");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncol {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push_str(&format!(
            "{}\n",
            "-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1))
        ));
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }

    /// Renders as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Prints the table and also writes `results/<name>.csv` (best effort;
    /// the directory is created if missing).
    pub fn emit(&self, name: &str) {
        println!("{}", self.render());
        let dir = std::path::Path::new("results");
        if std::fs::create_dir_all(dir).is_ok() {
            let _ = std::fs::write(dir.join(format!("{name}.csv")), self.to_csv());
        }
    }
}

/// Formats seconds as milliseconds with three significant decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e3)
}

/// Parses `--key value` style flags from the command line.
pub fn arg(name: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    for i in 0..args.len() {
        if args[i] == format!("--{name}") && i + 1 < args.len() {
            return args[i + 1].clone();
        }
    }
    default.to_string()
}

/// True when `--quick` is passed (smaller iteration counts / fewer shapes).
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_paper() {
        assert_eq!(SHAPES.len(), 6);
    }

    #[test]
    fn weights_are_deterministic() {
        let a = make_weights(4, 8, 42);
        let b = make_weights(4, 8, 42);
        let c = make_weights(4, 8, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["shape", "ms"]);
        t.row(vec!["4096x4096".into(), "1.23".into()]);
        t.row(vec!["s".into(), "400.0".into()]);
        let r = t.render();
        assert!(r.contains("4096x4096"));
        assert!(r.lines().count() == 4);
        let csv = t.to_csv();
        assert!(csv.starts_with("shape,ms\n"));
    }

    #[test]
    fn timing_helpers_run() {
        let mut x = 0u64;
        let t = time_best(
            || {
                x = x.wrapping_add(1);
            },
            1,
            3,
        );
        assert!(t >= 0.0);
        assert!(x >= 4);
    }
}
