//! Child processes of the benchmark (itself, re-executed in a `child`
//! mode): every wait on one is bounded, and a child still alive when its
//! handle goes — on an error path or a panic — is killed and reaped.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bound on a short-lived child (one set-up or one compile of every
/// program) and on a server child reaching `LISTENING` or exiting.
pub const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

pub struct Proc {
    child: Child,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
    pub spawned: Instant,
}

impl Proc {
    /// Re-execute this binary with `args`, its stdout read line by line
    /// on a thread that ends with the child's output.
    pub fn spawn(args: &[String]) -> Result<Proc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let spawned = Instant::now();
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {args:?}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(Proc {
            child,
            lines,
            reader: Some(reader),
            spawned,
        })
    }

    pub fn id(&self) -> u32 {
        self.child.id()
    }

    /// The child's next output line, or an error once `timeout` passes or
    /// its output ends.
    pub fn next_line(&mut self, timeout: Duration) -> Result<String, String> {
        match self.lines.recv_timeout(timeout) {
            Ok(line) => Ok(line),
            Err(RecvTimeoutError::Timeout) => Err(format!("child silent for {timeout:?}")),
            Err(RecvTimeoutError::Disconnected) => Err("child closed its output".to_string()),
        }
    }

    /// Every line the child prints until its output ends, then reap it;
    /// a child that outlives `timeout` or exits non-zero is an error.
    pub fn lines_until_exit(mut self, timeout: Duration) -> Result<Vec<String>, String> {
        let deadline = Instant::now() + timeout;
        let mut out = Vec::new();
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) => out.push(line),
                Err(RecvTimeoutError::Disconnected) => break,
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!("child still running after {timeout:?}"))
                }
            }
        }
        // Output ended, so the child has exited or is about to.
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if !status.success() {
            return Err(format!("child exited with {status}"));
        }
        Ok(out)
    }

    /// [`Proc::lines_until_exit`], keeping the `key value` lines.
    pub fn finish(self, timeout: Duration) -> Result<BTreeMap<String, f64>, String> {
        Ok(self
            .lines_until_exit(timeout)?
            .iter()
            .filter_map(|line| line.split_once(' '))
            .filter_map(|(k, v)| Some((k.to_string(), v.trim().parse().ok()?)))
            .collect())
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        // Errors mean the child is already gone, which is the goal.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// Run one short-lived child to completion and return its `key value`
/// output.
pub fn run(args: &[String]) -> Result<BTreeMap<String, f64>, String> {
    Proc::spawn(args)?.finish(CHILD_TIMEOUT)
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// The directory the benchmark writes into: `fir_bench/` under the cargo
/// target directory the running binary was built into, so every file it
/// leaves is inside the checkout and already ignored.
pub fn out_dir() -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe
        .parent()
        .and_then(|profile| profile.parent())
        .ok_or("the binary is not under a target directory")?;
    let dir = target.join("fir_bench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// A scratch directory under [`out_dir`], removed when dropped.
pub struct TempDir(pub std::path::PathBuf);

impl TempDir {
    pub fn new(label: &str) -> Result<TempDir, String> {
        let dir = out_dir()?.join(format!("tmp-{}-{label}", std::process::id()));
        // A stale directory of a killed earlier run with this pid.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
