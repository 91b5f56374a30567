//! Deterministic failpoint registry for chaos testing.
//!
//! A failpoint is a named site in the code (`"scheduler/forward"`,
//! `"io/read"`, `"serve/write"`, ...) that can be armed to inject a
//! failure: the site calls [`fire`] and interprets the returned
//! [`FailAction`] (panic, typed error, short write, `WouldBlock`, delay).
//! Sites are armed only in-process, by [`configure`] with a spec and a
//! seed, and disarmed by [`clear`]. Every `p` trigger draws from a
//! per-site SplitMix64 stream keyed by `seed ^ hash(site)`, so a chaos run
//! is reproducible from its seed alone.
//!
//! ## Spec grammar
//!
//! ```text
//!   spec    := entry (';' entry)*
//!   entry   := site '=' action [':' trigger]
//!   action  := 'panic' | 'error' | 'short' | 'again' | 'delay' <ms>
//!   trigger := 'p' <float>            fire each evaluation with prob p
//!            | 'n' <int> ['x' <int>]  fire on the nth evaluation
//!                                     (1-based), optionally for x
//!                                     consecutive evaluations
//!            | (absent)               fire on every evaluation
//! ```
//!
//! Example: `scheduler/forward=panic:n5x2;serve/read=error:p0.03`.
//!
//! ## Cost when unarmed
//!
//! Sites fire per socket read/write, per scheduler step and per KV page.
//! While nothing is armed, [`fire`] is one relaxed atomic load of a static
//! flag and a branch: no lock, no lazy initialisation, no lookup.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// What an armed failpoint asks its site to do. Sites interpret actions
/// in their own terms: the scheduler turns `Panic` into a real unwind
/// (exercising `catch_unwind` quarantine), an I/O site turns `Error` into
/// its typed error, a socket write path turns `Short` into a 1-byte write
/// and `Again` into `WouldBlock`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FailAction {
    /// Unwind at the site (`panic!`).
    Panic,
    /// Return the site's typed error.
    Error,
    /// Complete only partially (e.g. a 1-byte socket write).
    Short,
    /// Pretend the resource is not ready (`WouldBlock` / EAGAIN).
    Again,
    /// Sleep for the given milliseconds, then proceed normally.
    Delay(u64),
}

#[derive(Debug, Clone, Copy)]
enum Trigger {
    Always,
    Prob(f32),
    /// Fire on evaluations `[nth, nth + count)` (1-based).
    Nth {
        nth: u64,
        count: u64,
    },
}

struct Site {
    name: String,
    action: FailAction,
    trigger: Trigger,
    /// `seed ^ hash(name)`: the start of this site's SplitMix64 stream.
    key: u64,
    evals: u64,
    fired: u64,
}

/// Whether any site is armed; the only thing an unarmed [`fire`] reads.
static ARMED: AtomicBool = AtomicBool::new(false);
static SITES: Mutex<Vec<Site>> = Mutex::new(Vec::new());

fn sites() -> std::sync::MutexGuard<'static, Vec<Site>> {
    SITES.lock().unwrap_or_else(|p| p.into_inner())
}

/// FNV-1a over the site name, to decorrelate per-site streams.
fn site_hash(site: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in site.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `n`th (1-based) draw of the SplitMix64 stream starting at `key`, as
/// a uniform `f32` in `[0, 1)` with 24 bits of precision. Stateless: the
/// site's evaluation count is the stream position.
fn unit_draw(key: u64, n: u64) -> f32 {
    let mut z = key.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z >> 40) as f32) * (1.0 / (1u32 << 24) as f32)
}

fn parse(spec: &str, seed: u64) -> Result<Vec<Site>, String> {
    let mut sites: Vec<Site> = Vec::new();
    for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
        let (site, rest) = entry
            .split_once('=')
            .ok_or_else(|| format!("entry {entry:?} has no '='"))?;
        let (action_s, trigger_s) = match rest.split_once(':') {
            Some((a, t)) => (a, Some(t)),
            None => (rest, None),
        };
        let action = if let Some(ms) = action_s.strip_prefix("delay") {
            FailAction::Delay(
                ms.parse()
                    .map_err(|_| format!("bad delay millis {ms:?} in {entry:?}"))?,
            )
        } else {
            match action_s {
                "panic" => FailAction::Panic,
                "error" => FailAction::Error,
                "short" => FailAction::Short,
                "again" => FailAction::Again,
                other => return Err(format!("unknown action {other:?} in {entry:?}")),
            }
        };
        let trigger = match trigger_s {
            None => Trigger::Always,
            Some(t) => {
                if let Some(p) = t.strip_prefix('p') {
                    let p: f32 = p
                        .parse()
                        .map_err(|_| format!("bad probability {t:?} in {entry:?}"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("probability {p} out of [0,1] in {entry:?}"));
                    }
                    Trigger::Prob(p)
                } else if let Some(n) = t.strip_prefix('n') {
                    let (nth_s, count_s) = match n.split_once('x') {
                        Some((a, b)) => (a, b),
                        None => (n, "1"),
                    };
                    let nth: u64 = nth_s
                        .parse()
                        .map_err(|_| format!("bad nth {t:?} in {entry:?}"))?;
                    let count: u64 = count_s
                        .parse()
                        .map_err(|_| format!("bad count {t:?} in {entry:?}"))?;
                    if nth == 0 || count == 0 {
                        return Err(format!("nth/count must be >= 1 in {entry:?}"));
                    }
                    Trigger::Nth { nth, count }
                } else {
                    return Err(format!("unknown trigger {t:?} in {entry:?}"));
                }
            }
        };
        let name = site.trim();
        // A repeated site name replaces the earlier entry.
        sites.retain(|s| s.name != name);
        sites.push(Site {
            name: name.to_string(),
            action,
            trigger,
            key: seed ^ site_hash(name),
            evals: 0,
            fired: 0,
        });
    }
    Ok(sites)
}

/// Evaluates the failpoint `site`: `Some(action)` when armed and its
/// trigger fires for this evaluation, `None` otherwise.
#[inline]
pub fn fire(site: &str) -> Option<FailAction> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    fire_armed(site)
}

#[cold]
#[inline(never)]
fn fire_armed(site: &str) -> Option<FailAction> {
    let mut sites = sites();
    let s = sites.iter_mut().find(|s| s.name == site)?;
    s.evals += 1;
    let hit = match s.trigger {
        Trigger::Always => true,
        Trigger::Prob(p) => unit_draw(s.key, s.evals) < p,
        Trigger::Nth { nth, count } => s.evals >= nth && s.evals < nth + count,
    };
    if !hit {
        return None;
    }
    s.fired += 1;
    let action = s.action;
    // Sleep outside the registry lock so other sites stay live.
    drop(sites);
    if let FailAction::Delay(ms) = action {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    Some(action)
}

/// Replaces the registry from a spec string (see the module docs for the
/// grammar), seeding every site's stream from `seed`. Arms the sites it
/// names; an empty spec disarms everything, like [`clear`].
///
/// # Errors
///
/// A description of the first malformed entry; the registry is then left
/// as it was.
pub fn configure(spec: &str, seed: u64) -> Result<(), String> {
    let parsed = parse(spec, seed)?;
    let mut sites = sites();
    ARMED.store(!parsed.is_empty(), Ordering::Relaxed);
    *sites = parsed;
    Ok(())
}

/// Disarms every failpoint (hit statistics are discarded too).
pub fn clear() {
    let mut sites = sites();
    ARMED.store(false, Ordering::Relaxed);
    sites.clear();
}

/// How many times `site` actually fired since it was configured.
pub fn fired(site: &str) -> u64 {
    sites()
        .iter()
        .find(|s| s.name == site)
        .map_or(0, |s| s.fired)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global and `configure` replaces all of it,
    // so the tests take turns; each also uses its own site names.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn nth_trigger_fires_exactly_the_requested_window() {
        let _serial = serial();
        configure("t/nth=error:n3x2;t/other=panic:n1", 7).unwrap();
        let hits: Vec<bool> = (0..6).map(|_| fire("t/nth").is_some()).collect();
        assert_eq!(hits, [false, false, true, true, false, false]);
        assert_eq!(fired("t/nth"), 2);
        assert_eq!(fire("t/unarmed"), None);
        clear();
        assert_eq!(fire("t/nth"), None, "clear() disarms everything");
    }

    #[test]
    fn probability_trigger_is_reproducible_from_the_seed() {
        let _serial = serial();
        let run = |seed: u64| -> Vec<bool> {
            configure("t/prob=error:p0.3", seed).unwrap();
            (0..64).map(|_| fire("t/prob").is_some()).collect()
        };
        let a = run(42);
        let b = run(42);
        let c = run(43);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_ne!(a, c, "different seeds must diverge");
        let hits = a.iter().filter(|&&h| h).count();
        assert!(hits > 4 && hits < 40, "p=0.3 over 64 draws, got {hits}");
        clear();
    }

    #[test]
    fn actions_parse_and_report() {
        let _serial = serial();
        configure("t/a=panic;t/b=short:n1;t/c=again;t/d=delay0:n1", 1).unwrap();
        assert_eq!(fire("t/a"), Some(FailAction::Panic));
        assert_eq!(fire("t/b"), Some(FailAction::Short));
        assert_eq!(fire("t/c"), Some(FailAction::Again));
        assert_eq!(fire("t/d"), Some(FailAction::Delay(0)));
        assert_eq!(fire("t/b"), None, "n1 window is one evaluation wide");
        clear();
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _serial = serial();
        for bad in [
            "noequals",
            "s=frob",
            "s=error:q3",
            "s=error:p1.5",
            "s=error:n0",
            "s=delayxx",
        ] {
            assert!(configure(bad, 0).is_err(), "spec {bad:?} must be rejected");
        }
        clear();
    }
}
