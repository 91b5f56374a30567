//! `tmac-benchmark`: the repo's one end-to-end + per-layer benchmark.
//!
//! ```text
//! tmac-benchmark --workload W --seed N --seconds S --trace 0|1   one run (BENCHMARK.json's command)
//! tmac-benchmark all [--seed N] [--seconds S] [--smoke] [--out F] every workload, untraced and traced
//! tmac-benchmark aa  [--runs R] [--seconds S] [--workload W]      steadiness against the bounds
//! ```
//!
//! Run from the repository root. See `README.md` beside this package.

mod client;
mod daemon;
mod direct;
mod measure;
mod probes;
mod served;
mod single;
mod stats;
mod suite;
mod trace;
mod workload;

use std::collections::HashMap;
use std::process::ExitCode;

/// `--key value` pairs and bare `--flag`s after the optional subcommand.
pub struct Args {
    /// First argument when it is not an option.
    pub command: Option<String>,
    opts: HashMap<String, String>,
}

impl Args {
    fn parse(argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut argv = argv.peekable();
        let command = argv.next_if(|a| !a.starts_with("--"));
        let mut opts = HashMap::new();
        while let Some(key) = argv.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = argv.next_if(|a| !a.starts_with("--")).unwrap_or_default();
            opts.insert(name.to_string(), value);
        }
        Ok(Args { command, opts })
    }

    /// Whether `--name` was given at all.
    pub fn flag(&self, name: &str) -> bool {
        self.opts.contains_key(name)
    }

    /// The raw value of `--name`.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.opts.get(name).map(String::as_str)
    }

    /// `--name` parsed as a number, or `default` when absent.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.opts.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse {v:?}")),
        }
    }
}

fn main() -> ExitCode {
    let result =
        Args::parse(std::env::args().skip(1)).and_then(|args| match args.command.as_deref() {
            None => single::run(&args),
            Some("all") => suite::all(&args),
            Some("aa") => suite::aa(&args),
            Some(other) => Err(format!(
                "unknown command {other:?} (all | aa | --workload ...)"
            )),
        });
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tmac-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_split_command_options_and_flags() {
        let a = Args::parse(
            ["all", "--seed", "7", "--smoke", "--out", "x.json"]
                .into_iter()
                .map(String::from),
        )
        .unwrap();
        assert_eq!(a.command.as_deref(), Some("all"));
        assert_eq!(a.num("seed", 0u64), Ok(7));
        assert_eq!(a.num("seconds", 12.5f64), Ok(12.5));
        assert!(a.flag("smoke") && !a.flag("trace"));
        assert_eq!(a.text("out"), Some("x.json"));
        let b = Args::parse(["--workload", "chat_decode"].into_iter().map(String::from)).unwrap();
        assert!(b.command.is_none());
        assert!(Args::parse(["--seed", "x", "stray"].into_iter().map(String::from)).is_err());
        assert!(b.num::<u64>("workload", 1).is_err());
    }
}
