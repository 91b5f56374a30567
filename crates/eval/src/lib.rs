//! Harness shared by the `paper`, `tmac_serve` and `tmac_convert` binaries.
//!
//! `paper` regenerates each table and figure of the paper as a subcommand
//! and checks the paper's claims (see `DESIGN.md` §7). This library holds
//! the Llama-2-7B/13B kernel shapes, deterministic synthetic data, timing
//! and full-depth extrapolation, plain-text tables, and the one argv parser
//! ([`Flags`]).

use std::fmt;
use std::str::FromStr;
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

/// Every logical CPU this process may use.
pub fn all_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Times `N` compared kernels together: `run(i)` runs kernel `i`. After
/// `warmup` rounds, each of `iters` rounds runs every kernel once, starting
/// one kernel later each round, so host noise (clock changes, a
/// neighbour's burst) falls on every side alike. Returns each kernel's
/// median wall-clock seconds.
pub fn time_medians<const N: usize>(
    warmup: usize,
    iters: usize,
    mut run: impl FnMut(usize),
) -> [f64; N] {
    (0..warmup * N).for_each(|i| run(i % N));
    let iters = iters.max(1);
    let mut samples = [(); N].map(|_| Vec::with_capacity(iters));
    for round in 0..iters {
        for i in (0..N).map(|i| (i + round) % N) {
            let t0 = Instant::now();
            run(i);
            samples[i].push(t0.elapsed().as_secs_f64());
        }
    }
    samples.map(|mut s| {
        s.sort_by(f64::total_cmp);
        (s[(s.len() - 1) / 2] + s[s.len() / 2]) / 2.0
    })
}

/// Extrapolates one decode step of a model cut to `measured_layers` layers
/// to `full_layers` layers of the same shape: the head's `head_s` stays,
/// the layers' share `step_s − head_s` scales linearly in depth (decode
/// streams every layer's weights once; `DESIGN.md` §8).
pub fn full_depth_seconds(
    step_s: f64,
    head_s: f64,
    measured_layers: usize,
    full_layers: usize,
) -> f64 {
    head_s + (step_s - head_s) * full_layers as f64 / measured_layers.max(1) as f64
}

/// Formats seconds as milliseconds with three significant decimals.
pub fn ms(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e3)
}

/// A plain-text results table with right-aligned columns; `Display`
/// renders it.
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
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| {
            for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
                write!(f, "{}{c:>w$}", if i > 0 { "  " } else { "" })?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        let rule = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(rule))?;
        self.rows.iter().try_for_each(|row| line(f, row))
    }
}

/// Why a command line was refused.
#[derive(Debug, PartialEq)]
pub enum ArgError {
    /// A flag the binary does not take.
    Unknown(String),
    /// `--name=value`: a value is the next argument, never inline.
    Inline(String),
    /// A valued flag that is last, or followed by another flag.
    MissingValue(String),
    /// An argument that is neither a flag nor a flag's value.
    Stray(String),
    /// A value that does not parse as its flag's type.
    BadValue(String, String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Unknown(a) => write!(f, "unknown flag {a:?}"),
            ArgError::Inline(a) => write!(f, "{a:?}: pass the value as the next argument"),
            ArgError::MissingValue(a) => write!(f, "{a} needs a value"),
            ArgError::Stray(a) => write!(f, "unexpected argument {a:?}"),
            ArgError::BadValue(a, v) => write!(f, "{a}: cannot use {v:?}"),
        }
    }
}

/// One binary's command line: its usage line and its known flags.
#[derive(Clone, Copy)]
pub struct Flags {
    /// Printed with every refused command line.
    pub usage: &'static str,
    /// Space-separated names of the flags that take the next argument as
    /// their value (`--name value`).
    pub valued: &'static str,
    /// Space-separated names of the flags that take no value.
    pub switches: &'static str,
}

impl Flags {
    /// Parses `argv` (without the program name) against these flags.
    ///
    /// # Errors
    ///
    /// An unknown flag, a `--name=value` spelling, a valued flag without a
    /// value, or a stray positional argument.
    pub fn parse(&self, argv: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
        let known = |names: &'static str, name: &str| names.split_whitespace().find(|n| *n == name);
        let mut argv = argv.into_iter().peekable();
        let mut given = Vec::new();
        while let Some(a) = argv.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(ArgError::Stray(a));
            };
            if name.contains('=') {
                return Err(ArgError::Inline(a));
            } else if let Some(s) = known(self.switches, name) {
                given.push((s, None));
            } else if let Some(v) = known(self.valued, name) {
                let value = argv.next_if(|x| !x.starts_with("--"));
                given.push((v, Some(value.ok_or(ArgError::MissingValue(a))?)));
            } else {
                return Err(ArgError::Unknown(a));
            }
        }
        Ok(Args {
            flags: *self,
            given,
        })
    }

    /// [`Flags::parse`], or print the error and the usage line and exit 2.
    pub fn parse_or_exit(&self, argv: impl IntoIterator<Item = String>) -> Args {
        self.parse(argv).unwrap_or_else(|e| self.exit(&e))
    }

    /// Prints `err` and the usage line to stderr and exits 2.
    pub fn exit(&self, err: &dyn fmt::Display) -> ! {
        eprintln!("error: {err}\n{}", self.usage);
        std::process::exit(2)
    }
}

/// A command line accepted by [`Flags::parse`]: each flag given, with its
/// value (`None` for a switch).
pub struct Args {
    flags: Flags,
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    fn value(&self, name: &str) -> Option<&String> {
        let mut given = self.given.iter();
        given.find_map(|(n, v)| v.as_ref().filter(|_| *n == name))
    }

    /// The value of `--name` (its first occurrence), or `default`.
    pub fn text(&self, name: &str, default: &str) -> String {
        self.value(name).map_or(default, |v| v).to_string()
    }

    /// `--name` parsed as `T`, or `default`; an unparsable value exits 2
    /// with the usage line.
    pub fn num<T: FromStr>(&self, name: &str, default: T) -> T {
        let Some(v) = self.value(name) else {
            return default;
        };
        let bad = || ArgError::BadValue(format!("--{name}"), v.clone());
        v.parse().unwrap_or_else(|_| self.flags.exit(&bad()))
    }

    /// Whether the switch `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(n, v)| *n == name && v.is_none())
    }
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
        let r = t.to_string();
        assert!(r.contains("4096x4096"));
        assert_eq!(r.lines().count(), 4);
        assert!(r.starts_with("    shape     ms\n"), "{r}");
    }

    #[test]
    fn timing_helpers_run() {
        let mut runs = [0; 2];
        let [fast, slow] = time_medians(1, 3, |i| {
            runs[i] += 1;
            if i == 1 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        assert_eq!(runs, [4, 4], "one warm-up and three timed rounds each");
        assert!(fast >= 0.0 && slow >= 0.002 && slow > fast, "{fast} {slow}");
    }

    #[test]
    fn extrapolation_scales_layers_only() {
        let full = full_depth_seconds(0.3, 0.1, 2, 32);
        assert!((full - 3.3).abs() < 1e-9, "{full}");
        let same = full_depth_seconds(0.3, 0.1, 2, 2);
        assert!((same - 0.3).abs() < 1e-12, "{same}");
    }

    static TEST_FLAGS: Flags = Flags {
        usage: "usage: t [--bits N] [--quick]",
        valued: "bits",
        switches: "quick",
    };

    fn parse(argv: &str) -> Result<Args, ArgError> {
        TEST_FLAGS.parse(argv.split_whitespace().map(String::from))
    }

    #[test]
    fn parser_accepts_known_flags_in_any_order() {
        let a = parse("--quick --bits 1").unwrap();
        assert!(a.switch("quick"));
        assert_eq!(a.num("bits", 4u8), 1);
        let b = parse("").unwrap();
        assert!(!b.switch("quick"));
        assert_eq!(b.num("bits", 4u8), 4);
        assert_eq!(b.text("bits", "x"), "x");
    }

    #[test]
    fn parser_refuses_each_misspelling() {
        use ArgError::*;
        let cases = [
            ("--bit 1", Unknown("--bit".into())),
            ("--bits=1", Inline("--bits=1".into())),
            ("--bits", MissingValue("--bits".into())),
            ("--bits --quick", MissingValue("--bits".into())),
            ("1", Stray("1".into())),
            ("--quick x --bits 1", Stray("x".into())),
            ("--", Unknown("--".into())),
        ];
        for (argv, want) in cases {
            assert_eq!(parse(argv).err(), Some(want), "{argv}");
        }
    }
}
