//! The system under test: the real `pdsm-server` binary as a child
//! process, every knob pinned in its environment.

use crate::workload::Workload;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The repository this benchmark was built in: the benchmark's package
/// sits one level below its root.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Every `PDSM_*` knob the server reads, pinned. `pool_bytes` is `Some`
/// only for `cold_pool`. The harness applies the same list to its own
/// process for the in-process runs.
pub fn pinned_knobs(workload: Workload, pool_bytes: Option<u64>) -> Vec<(&'static str, String)> {
    let mut knobs = vec![
        ("PDSM_THREADS", "2".to_string()),
        ("PDSM_FSYNC", "batch".to_string()),
        ("PDSM_SIMD", "auto".to_string()),
        ("PDSM_MERGE", "background".to_string()),
        (
            "PDSM_MERGE_THRESHOLD",
            workload.merge_threshold().to_string(),
        ),
        ("PDSM_RESULT_CACHE", "on".to_string()),
        // Small extents, so the few-MB `ORDER_LINE` of `cold_pool` spans
        // dozens of them and a quarter-size pool holds several.
        ("PDSM_EXTENT_ROWS", "4096".to_string()),
    ];
    if let Some(b) = pool_bytes {
        knobs.push(("PDSM_POOL_BYTES", b.to_string()));
    }
    knobs
}

/// Build (or confirm up to date) the repository's `pdsm-server` and
/// return its path. It lands in the target directory this harness was
/// itself built into, i.e. beside `current_exe()` in a release run.
pub fn build_server() -> io::Result<PathBuf> {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(t) => std::env::current_dir()?.join(t),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "pdsm-sql",
            "--bin",
            "pdsm-server",
        ])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building pdsm-server failed ({status})"
        )));
    }
    Ok(target.join("release").join("pdsm-server"))
}

/// A running `pdsm-server --data-dir`. Killed and reaped on drop.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawn the server on `data_dir` with exactly `knobs` as its
    /// environment and wait until it listens.
    pub fn spawn(
        bin: &Path,
        data_dir: &Path,
        knobs: &[(&'static str, String)],
    ) -> io::Result<ServerProc> {
        let port_file = data_dir.with_extension("port");
        let _ = std::fs::remove_file(&port_file);
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--max-sessions", "8"])
            .arg("--data-dir")
            .arg(data_dir)
            .arg("--port-file")
            .arg(&port_file)
            .env_clear()
            .envs(knobs.iter().map(|(k, v)| (*k, v.as_str())))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let deadline = Instant::now() + Duration::from_secs(60);
        let port = loop {
            // The file is written in one call once the listener is bound;
            // a read that catches it empty just polls again.
            if let Some(p) = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|s| s.trim().parse::<u16>().ok())
            {
                break p;
            }
            if let Some(status) = child.try_wait()? {
                return Err(io::Error::other(format!(
                    "pdsm-server exited before listening ({status})"
                )));
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other("pdsm-server did not listen within 60 s"));
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        Ok(ServerProc {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port)),
        })
    }

    /// A kB field of the server's `/proc/<pid>/status`: `VmRSS` is what
    /// is resident now, `VmHWM` the kernel's high-water mark of it.
    pub fn status_kb(&self, field: &str) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    }

    /// SIGKILL — a process crash; the operating system's cache survives.
    pub fn kill(self) {
        drop(self);
    }

    fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.stop();
    }
}
