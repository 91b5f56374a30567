//! Multi-run commands: `all` (every workload, untraced and traced, as one
//! JSON document) and `aa` (is the benchmark steady enough for its own
//! bounds?). Each run is a fresh child process of this binary, so every
//! workload gets a fresh daemon and per-workload RSS/CPU.

use crate::stats::{iqr_share, median};
use crate::workload::WORKLOADS;
use crate::Args;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use tmac_serve::Json;

/// The context line and the result line of one child run.
struct ChildRun {
    context: String,
    result: String,
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().map_err(|e| format!("spawn run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let (Some(result), Some(context)) = (lines.next(), lines.next()) else {
        return Err(format!(
            "{workload}: run printed no result ({})",
            out.status
        ));
    };
    if !out.status.success() {
        return Err(format!("{workload}: run failed ({}): {result}", out.status));
    }
    Ok(ChildRun {
        context: context.to_string(),
        result: result.to_string(),
    })
}

/// `all`: every workload with `--trace 0` and (unless `--smoke`) `--trace
/// 1`, merged into one document — the format of `baseline/BENCH_<pr>.json`.
pub fn all(args: &Args) -> Result<ExitCode, String> {
    let smoke = args.flag("smoke");
    let seed: u64 = args.num("seed", 1)?;
    let seconds: f64 = args.num("seconds", crate::single::default_seconds(smoke))?;
    let mut entries = Vec::new();
    for w in WORKLOADS {
        eprintln!("tmac-benchmark: {} (untraced)", w.name);
        let plain = child(w.name, seed, seconds, false, smoke)?;
        let mut entry = format!(
            "\"{}\":{{\"context\":{},\"end_to_end\":{}",
            w.name,
            context_of(&plain.context)?,
            plain.result
        );
        if !smoke {
            eprintln!("tmac-benchmark: {} (traced)", w.name);
            let traced = child(w.name, seed, seconds, true, false)?;
            entry.push_str(&format!(",\"per_layer\":{}", traced.result));
        }
        entry.push('}');
        entries.push(entry);
    }
    let doc = format!(
        "{{\"benchmark\":\"tmac-benchmark\",\"seed\":{seed},\"seconds\":{seconds},\"comparable\":{},\"workloads\":{{\n{}\n}}}}\n",
        !smoke,
        entries.join(",\n")
    );
    Json::parse(&doc).map_err(|e| format!("merged report is not JSON: {e:?}"))?;
    match args.text("out") {
        Some(path) if !path.is_empty() => {
            std::fs::write(path, &doc).map_err(|e| format!("write {path}: {e}"))?
        }
        _ => print!("{doc}"),
    }
    Ok(ExitCode::SUCCESS)
}

/// The object inside a `{"context":{...}}` line.
fn context_of(line: &str) -> Result<String, String> {
    let doc = Json::parse(line).map_err(|e| format!("context line: {e:?}"))?;
    Ok(doc
        .get("context")
        .ok_or("context line without context")?
        .encode())
}

/// One end-to-end metric as BENCHMARK.json declares it.
struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

fn declared_metrics() -> Result<Vec<Declared>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: end_to_end")?
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json: malformed end_to_end entry")?;
    Ok(metrics)
}

fn metric_values(result_line: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = Json::parse(result_line).map_err(|e| format!("result line: {e:?}"))?;
    match doc.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(k, v)| {
                let value = v.get("value").and_then(Json::as_f64);
                Ok((
                    k.clone(),
                    value.ok_or_else(|| format!("metric {k} has no value"))?,
                ))
            })
            .collect(),
        _ => Err("result line without metrics".into()),
    }
}

/// `aa`: runs each workload `--runs` times on this same code, each with
/// another seed, and judges every end-to-end metric the way the acceptance
/// check does: the spread (quartile distance ÷ median) must stay within
/// the metric's bound (`setup_s` excepted), and the median of the second
/// half of the runs must not be worse than that of the first by more than
/// the bound. Exits non-zero if any metric fails.
pub fn aa(args: &Args) -> Result<ExitCode, String> {
    let declared = declared_metrics()?;
    let runs: usize = args.num("runs", 10)?;
    let seconds: f64 = args.num("seconds", crate::single::default_seconds(false))?;
    let seed0: u64 = args.num("seed", 1)?;
    if runs < 4 || !runs.is_multiple_of(2) {
        return Err("--runs must be even and at least 4".into());
    }
    let only = args.text("workload");
    let mut failures = 0;
    println!(
        "{:<18} {:<16} {:>12} {:>8} {:>8} {:>8}  verdict  values in run order",
        "workload", "metric", "median", "spread", "drift", "bound"
    );
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for i in 0..runs {
            eprintln!("tmac-benchmark: aa {} run {}/{runs}", w.name, i + 1);
            let run = child(w.name, seed0 + i as u64, seconds, false, false)?;
            for (k, v) in metric_values(&run.result)? {
                values.entry(k).or_default().push(v);
            }
        }
        for d in &declared {
            let v = values
                .get(&d.name)
                .ok_or_else(|| format!("{} printed no {}", w.name, d.name))?;
            let spread = iqr_share(v.clone());
            let (a, b) = (
                median(v[..runs / 2].to_vec()),
                median(v[runs / 2..].to_vec()),
            );
            // Positive drift = the second half is worse.
            let drift = if d.higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let spread_ok = d.name == "setup_s" || spread <= d.bound;
            let verdict = match (spread_ok && drift <= d.bound, spread <= d.bound / 3.0) {
                (false, _) => {
                    failures += 1;
                    "FAIL"
                }
                (true, true) => "steady",
                (true, false) => "ok",
            };
            let values: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!(
                "{:<18} {:<16} {:>12.4} {:>8.4} {:>8.4} {:>8.2}  {verdict:<6}  {}",
                w.name,
                d.name,
                median(v.clone()),
                spread,
                drift,
                d.bound,
                values.join(" ")
            );
        }
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("tmac-benchmark: {failures} metric(s) outside their bound");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_and_context_lines_are_read_back() {
        let line = "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"a_ms\":{\"value\":1.25,\"unit\":\"ms\"},\"b\":{\"value\":7,\"unit\":\"x\"}}}";
        let m = metric_values(line).unwrap();
        assert_eq!(m["a_ms"], 1.25);
        assert_eq!(m["b"], 7.0);
        assert!(metric_values("{\"metrics\":{\"a\":{\"unit\":\"ms\"}}}").is_err());
        assert_eq!(
            context_of("{\"context\":{\"seed\":3}}").unwrap(),
            "{\"seed\":3}"
        );
    }
}
