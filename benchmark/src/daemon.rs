//! The two shipped binaries: building them, converting the model file,
//! and running `tmac_serve` as a child that cannot outlive the harness.

use crate::client;
use crate::workload::{SEQ_MAX, VOCAB};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a freshly spawned daemon may take to answer `/healthz`.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// Paths of the daemon and the converter.
#[derive(Debug, Clone)]
pub struct Bins {
    serve: PathBuf,
    convert: PathBuf,
}

/// Builds `tmac_serve` and `tmac_convert` from the root workspace (cwd)
/// into the target directory this harness itself runs from, and returns
/// their paths. Cargo decides freshness, so stale binaries cannot be
/// measured; compile time stays outside every metric.
pub fn build_bins() -> Result<Bins, String> {
    if !Path::new("crates/eval/src/bin/tmac_serve.rs").exists() {
        return Err("run from the repository root (crates/eval not found)".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let release = exe.parent().ok_or("harness binary has no directory")?;
    let target = release
        .parent()
        .ok_or("harness binary is not in <target>/release")?;
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "tmac-eval",
        ])
        .args([
            "--bin",
            "tmac_serve",
            "--bin",
            "tmac_convert",
            "--target-dir",
        ])
        .arg(target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build of tmac_serve/tmac_convert failed: {status}"
        ));
    }
    let bins = Bins {
        serve: release.join("tmac_serve"),
        convert: release.join("tmac_convert"),
    };
    for b in [&bins.serve, &bins.convert] {
        if !b.exists() {
            return Err(format!("{} missing after the build", b.display()));
        }
    }
    Ok(bins)
}

/// Writes the benchmark model to `out` with the shipped converter:
/// Llama-2-7B layer shapes, one layer, W2 g32 (see README "Fixed set-up").
pub fn convert(bins: &Bins, out: &Path) -> Result<(), String> {
    let status = Command::new(&bins.convert)
        .args([
            "--model", "7b", "--layers", "1", "--bits", "2", "--seed", "7",
        ])
        .args(["--vocab", &VOCAB.to_string(), "--seq", &SEQ_MAX.to_string()])
        .arg("--out")
        .arg(out)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("tmac_convert: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("tmac_convert failed: {status}"))
    }
}

#[cfg(target_os = "linux")]
fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: the hook runs in the forked child before exec and only makes
    // one async-signal-safe syscall; it touches no memory of the parent.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
            Ok(())
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn die_with_parent(_cmd: &mut Command) {}

/// A running `tmac_serve`. Dropping it kills the process and reaps it, so
/// every exit path of the harness (error return, panic unwind) leaves no
/// daemon behind; on Linux the kernel also kills it if the harness itself
/// is killed.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Spawns the daemon on a free loopback port and waits until
    /// `/healthz` answers 200.
    pub fn spawn(bins: &Bins, model: &Path, threads: usize) -> Result<Daemon, String> {
        // Ask the kernel for a free port, release it, hand it to the
        // daemon; the listener is closed before the daemon binds.
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?;
        let mut cmd = Command::new(&bins.serve);
        cmd.arg("--model")
            .arg(model)
            .args(["--addr", &addr.to_string()])
            .args(["--threads", &threads.to_string()])
            .args(["--batch", "8", "--pending", "64", "--kv", "f32"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        die_with_parent(&mut cmd);
        let child = cmd.spawn().map_err(|e| format!("spawn tmac_serve: {e}"))?;
        let mut daemon = Daemon { child, addr };
        let deadline = Instant::now() + BOOT_TIMEOUT;
        loop {
            if let Ok((200, _)) = client::get(addr, "/healthz", Duration::from_secs(2)) {
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("tmac_serve exited during boot: {status}"));
            }
            if Instant::now() > deadline {
                return Err("tmac_serve did not become healthy in time".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Scrapes `/metrics`.
    pub fn metrics(&self) -> Result<std::collections::BTreeMap<String, f64>, String> {
        match client::get(self.addr, "/metrics", client::REQUEST_TIMEOUT) {
            Ok((200, body)) => Ok(client::parse_metrics(&body)),
            Ok((status, _)) => Err(format!("/metrics answered {status}")),
            Err(e) => Err(format!("/metrics: {e}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// CPU time (user + system, all threads) a process has used, in ms.
/// `pid` 0 means this process.
pub fn cpu_ms(pid: u32) -> f64 {
    extern "C" {
        fn sysconf(name: i32) -> i64;
    }
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf takes an integer and returns one; no pointers.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as f64;
    let stat = std::fs::read_to_string(proc_path(pid, "stat")).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after ")".
    let ticks: f64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().skip(11).take(2))
        .into_iter()
        .flatten()
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks * 1e3 / hz
}

/// Peak resident set (`VmHWM`) of a process in MiB. `pid` 0 means this
/// process.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(proc_path(pid, "status"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn proc_path(pid: u32, file: &str) -> String {
    if pid == 0 {
        format!("/proc/self/{file}")
    } else {
        format!("/proc/{pid}/{file}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_cpu_time_and_peak_rss_are_readable() {
        let before = cpu_ms(0);
        let mut x = 0u64;
        while cpu_ms(0) - before < 20.0 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(peak_rss_mb(0) > 0.5);
        assert_eq!(cpu_ms(u32::MAX), 0.0);
    }
}
