//! Experiment harness shared by the per-figure/table binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §7 for the index). This library holds what they share:
//! the Llama-2-7B/13B kernel shapes, deterministic synthetic data, timing
//! helpers, and plain-text table/CSV output.

use std::time::Instant;
use tmac_rng::Rng;

pub mod serving;

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

/// Display names `S0..S5` used by Figure 10.
pub fn shape_name(i: usize) -> String {
    let (m, k) = SHAPES[i];
    format!("{m}x{k}")
}

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

/// Times `f` averaged over `iters` runs (for throughput-style numbers).
pub fn time_avg<F: FnMut()>(mut f: F, warmup: usize, iters: usize) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..iters.max(1) {
        f();
    }
    t0.elapsed().as_secs_f64() / iters.max(1) as f64
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

/// Parses a flat `{"key": number, ...}` JSON object — the only shape the
/// quality-gate pipeline uses (serde is unavailable offline). The one
/// parser for the whole pipeline: the merge-writer and the `perf_check` CI
/// gate both go through it, so the wire format cannot silently fork.
///
/// # Errors
///
/// Returns a message naming the malformed construct.
pub fn parse_flat_json(text: &str) -> Result<Vec<(String, f64)>, String> {
    let body = text
        .trim()
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or("expected a {...} object")?;
    let mut out = Vec::new();
    for pair in body.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (key, value) = pair
            .split_once(':')
            .ok_or_else(|| format!("expected \"key\": value, got {pair:?}"))?;
        let key = key.trim().trim_matches('"').to_string();
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|e| format!("bad number for {key:?}: {e}"))?;
        out.push((key, value));
    }
    Ok(out)
}

/// Writes (or **merges into**) the `TMAC_PERF_OUT`-style flat JSON metrics
/// file: existing keys are kept unless this call overwrites them, so
/// several runs can contribute to one file that `perf_check` gates.
pub fn write_perf_out(path: &str, metrics: &[(&str, f64)]) {
    let out = std::path::Path::new(path);
    let mut all: Vec<(String, f64)> = std::fs::read_to_string(out)
        .ok()
        .and_then(|t| parse_flat_json(&t).ok())
        .unwrap_or_default();
    for (k, v) in metrics {
        // Non-finite values would produce invalid JSON; write 0 so a
        // broken measurement fails the min-gates loudly downstream.
        let v = if v.is_finite() { *v } else { 0.0 };
        if let Some(slot) = all.iter_mut().find(|(key, _)| key == k) {
            slot.1 = v;
        } else {
            all.push((k.to_string(), v));
        }
    }
    let body: Vec<String> = all
        .iter()
        .map(|(k, v)| format!("  \"{k}\": {v:.4}"))
        .collect();
    let json = format!("{{\n{}\n}}\n", body.join(",\n"));
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(out, json).expect("write perf json");
    println!("wrote {}", out.display());
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
        assert_eq!(shape_name(0), "4096x4096");
        assert_eq!(shape_name(5), "5120x13824");
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

    #[test]
    fn flat_json_roundtrip_and_merge() {
        let parsed = parse_flat_json("{\n  \"a\": 1.5,\n  \"b\": 2\n}\n").unwrap();
        assert_eq!(parsed, vec![("a".into(), 1.5), ("b".into(), 2.0)]);
        assert!(parse_flat_json("not json").is_err());

        let dir = std::env::temp_dir().join(format!("tmac-eval-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("perf.json");
        let path_s = path.to_str().unwrap();
        write_perf_out(path_s, &[("a", 1.0), ("b", 2.0)]);
        // Merge: overwrite one key, add another, keep the rest.
        write_perf_out(path_s, &[("b", 3.0), ("c", 4.0)]);
        let merged = parse_flat_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            merged,
            vec![("a".into(), 1.0), ("b".into(), 3.0), ("c".into(), 4.0)]
        );
        std::fs::remove_file(&path).unwrap();
    }
}
