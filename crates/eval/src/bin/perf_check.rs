//! CI threshold gate: compares a measured-metrics JSON (merge-written by
//! `quality_gate` under `TMAC_PERF_OUT`) against the checked-in
//! `results/quality_thresholds.json` and exits non-zero on a violation.
//!
//! Each `min_<metric>` / `max_<metric>` key in the thresholds file is
//! checked against `<metric>` in the measured file; a metric missing from
//! the measured file fails. Speed is not gated here: every performance
//! number comes from `benchmark/`.
//!
//! Usage: `perf_check <measured.json> <thresholds.json>`

use std::process::ExitCode;
use tmac_eval::parse_flat_json;

fn load(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse_flat_json(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 {
        eprintln!("usage: perf_check <measured.json> <thresholds.json>");
        return ExitCode::FAILURE;
    }
    let (measured, thresholds) = match (load(&args[1]), load(&args[2])) {
        (Ok(m), Ok(t)) => (m, t),
        (m, t) => {
            for e in [m.err(), t.err()].into_iter().flatten() {
                eprintln!("perf_check: {e}");
            }
            return ExitCode::FAILURE;
        }
    };
    let get = |key: &str| measured.iter().find(|(k, _)| k == key).map(|(_, v)| *v);

    let mut failures = 0;
    for (key, bound) in &thresholds {
        let (metric, is_min) = if let Some(m) = key.strip_prefix("min_") {
            (m, true)
        } else if let Some(m) = key.strip_prefix("max_") {
            (m, false)
        } else {
            eprintln!("perf_check: FAIL threshold key {key:?} must start with min_/max_");
            failures += 1;
            continue;
        };
        let Some(value) = get(metric) else {
            eprintln!("perf_check: FAIL {metric}: missing from measured metrics");
            failures += 1;
            continue;
        };
        let ok = if is_min {
            value >= *bound
        } else {
            value <= *bound
        };
        let verdict = if ok { "ok  " } else { "FAIL" };
        let op = if is_min { ">=" } else { "<=" };
        println!("perf_check: {verdict} {metric} = {value:.4} (want {op} {bound})");
        if !ok {
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("perf_check: {failures} check(s) failed");
        return ExitCode::FAILURE;
    }
    println!("perf_check: all {} checks passed", thresholds.len());
    ExitCode::SUCCESS
}
