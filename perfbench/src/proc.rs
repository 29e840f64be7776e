//! The server child process, `/proc` readers for its CPU time and peak
//! memory, and the host fingerprint printed with every result.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sne_serve::{client, ServerBuilder};
use sne_sim::ExecStrategy;

use crate::workload::{Workload, FSYNC, MODEL};

/// Linux's `USER_HZ`: the unit of `utime` and `stime` in `/proc/<pid>/stat`.
const CLOCK_TICKS_PER_S: f64 = 100.0;
/// Longest a server may take to answer its first `/healthz`.
const SETUP_TIMEOUT: Duration = Duration::from_secs(60);
/// Longest a server may take to exit once asked to.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// Body of the `serve` subcommand, run in the child process: builds the
/// workload's model, starts the server, prints its address on one line
/// and serves until its standard input closes.
///
/// # Errors
///
/// Propagates model registration and server start failures.
pub fn serve(workload: Workload, store_dir: &Path) -> Result<(), Box<dyn std::error::Error>> {
    let settings = workload.settings();
    let mut builder = ServerBuilder::new()
        .register(
            MODEL,
            Arc::new(workload.network()),
            workload.config(),
            settings.lanes,
            ExecStrategy::Sequential,
        )?
        .reactor_shards(settings.shards);
    if let Some(capacity) = settings.warm_capacity {
        builder = builder
            .durable_store(store_dir)
            .fsync_policy(FSYNC)
            .session_capacity(capacity);
    }
    let server = builder.start("127.0.0.1:0")?;
    println!("{}", server.addr());
    // Serve until the parent closes our stdin (or dies).
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown();
    Ok(())
}

/// A running server child. Dropping it closes the child's stdin, waits
/// for it to exit, and kills it if it does not.
#[derive(Debug)]
pub struct ServerProcess {
    child: Child,
    _stdout: Option<BufReader<ChildStdout>>,
    addr: SocketAddr,
    /// Spawn to first healthy `/healthz`.
    pub setup: Duration,
}

impl ServerProcess {
    /// Spawns this executable's `serve` subcommand and waits until the
    /// server answers `/healthz`.
    ///
    /// # Errors
    ///
    /// Fails when the child cannot be spawned, prints no address, or is
    /// not healthy within the setup timeout.
    pub fn spawn(workload: Workload, store_dir: &Path) -> std::io::Result<Self> {
        let start = Instant::now();
        let child = Command::new(std::env::current_exe()?)
            .args(["serve", "--workload", workload.name(), "--store-dir"])
            .arg(store_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut process = Self {
            _stdout: None,
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            setup: Duration::ZERO,
        };
        let stdout = process.child.stdout.take().expect("stdout is piped");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        process._stdout = Some(reader);
        process.addr = line
            .trim()
            .parse()
            .map_err(|_| std::io::Error::other(format!("server printed no address: {line:?}")))?;
        loop {
            if let Ok((200, _)) = client::get(process.addr, "/healthz") {
                break;
            }
            if start.elapsed() > SETUP_TIMEOUT {
                return Err(std::io::Error::other("server never became healthy"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        process.setup = start.elapsed();
        Ok(process)
    }

    /// The server's loopback address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The child's pid.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Server CPU time so far (user + system, all threads), µs.
    #[must_use]
    pub fn cpu_us(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15, i.e. indices 11 and 12 past it.
        let rest = stat.rsplit_once(')')?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
        Some((ticks(11)? + ticks(12)?) / CLOCK_TICKS_PER_S * 1e6)
    }

    /// The server's peak resident memory (VmHWM), MB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    }

    /// Asks the server to exit and waits for it.
    ///
    /// # Errors
    ///
    /// Fails when the child had to be killed or exited with an error.
    pub fn stop(mut self) -> std::io::Result<()> {
        self.shut_down()
    }

    fn shut_down(&mut self) -> std::io::Result<()> {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(std::io::Error::other(format!(
                        "server exited with {status}"
                    )))
                };
            }
            if Instant::now() > deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                return Err(std::io::Error::other("server did not exit; killed"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.shut_down();
        }
    }
}

/// Host CPU time stolen by the hypervisor, as `(all ticks, steal ticks)`
/// from the `cpu` line of `/proc/stat`.
#[must_use]
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((fields.iter().take(8).sum(), *fields.get(7)?))
}

/// Where the run's scratch files go: store directories, traces and
/// per-run result files, all under the checkout.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// Host facts recorded next to every result.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Cores available to this process.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Filesystem type of the store directory.
    pub store_fs: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this host, for a store under `store_dir`.
    #[must_use]
    pub fn of_host(store_dir: &Path) -> Self {
        let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
        let cpu = read("/proc/cpuinfo")
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".to_owned(), |(_, v)| v.trim().to_owned());
        let rustc = Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or("unknown".to_owned(), |v| v.trim().to_owned());
        Self {
            nproc: nproc(),
            cpu,
            kernel: read("/proc/sys/kernel/osrelease").trim().to_owned(),
            rustc,
            store_fs: filesystem_of(store_dir, &read("/proc/self/mounts")),
        }
    }
}

/// Cores available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Filesystem type of the mount holding `path`: the longest mount point
/// in `mounts` (the `/proc/self/mounts` format) that prefixes it.
fn filesystem_of(path: &Path, mounts: &str) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    mounts
        .lines()
        .filter_map(|l| {
            let mut fields = l.split_whitespace();
            let (_, point, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fs.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or("unknown".to_owned(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filesystem_is_the_longest_matching_mount() {
        let mounts =
            "overlay / overlay rw 0 0\ntmpfs /tmp tmpfs rw 0 0\n/dev/vda /tmp/data ext4 rw 0 0\n";
        assert_eq!(filesystem_of(Path::new("/tmp/data/x"), mounts), "ext4");
        assert_eq!(filesystem_of(Path::new("/tmp/other"), mounts), "tmpfs");
        assert_eq!(filesystem_of(Path::new("/srv"), mounts), "overlay");
    }
}
