//! What the harness asks of the host: a directory for its files, fd 2
//! pointed at a log, the process's peak memory, a line describing the
//! machine.

use std::fs::File;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};

/// Where every file of a run goes: `bench_all.out/` beside the
/// executable. Under `cargo run` that is inside the Cargo target
/// directory, so inside the checkout and ignored by git; a copy of the
/// executable made to compare two builds keeps its files apart from the
/// other's.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the executable has a path");
    let dir = exe
        .parent()
        .expect("an executable lies in a directory")
        .join("bench_all.out");
    std::fs::create_dir_all(&dir).expect("create the output directory");
    dir
}

/// `path` relative to the working directory when it lies below it. A
/// Unix socket path holds about a hundred bytes, and the checkout may
/// sit deep.
pub fn short_path(path: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| path.to_path_buf())
}

/// Points fd 2 at `log` for the rest of the process, so what the library
/// prints there (`Project::gate` writes its warnings on every fresh
/// analysis) is neither timed as terminal output nor lost: its size is
/// the `core.stderr_bytes` metric. The harness reports its own errors on
/// stdout.
pub fn redirect_stderr(log: &Path) -> StderrLog {
    extern "C" {
        fn dup2(oldfd: i32, newfd: i32) -> i32;
    }
    let file = File::create(log).expect("create the stderr log");
    // SAFETY: dup2 takes two file descriptors and no memory; `file` is
    // open for the call, and fd 2 stays valid afterwards because dup2
    // gives it its own reference to the open file.
    let rc = unsafe { dup2(file.as_raw_fd(), 2) };
    assert_eq!(rc, 2, "dup2 onto fd 2 failed");
    StderrLog { file }
}

pub struct StderrLog {
    file: File,
}

impl StderrLog {
    /// Bytes written to fd 2 since the redirect.
    pub fn bytes(&self) -> u64 {
        self.file.metadata().map_or(0, |m| m.len())
    }
}

/// Restricts this thread, and every thread started from it afterwards,
/// to the CPU it is running on.
///
/// The daemon workloads call this before they start the daemon. A
/// request is a hand-over from the client's thread to the daemon's and
/// back. On one CPU that is a context switch. On two it is a wake-up of
/// an idle virtual CPU through the hypervisor, whenever the kernel has
/// spread the two threads — which it does after the machine has been
/// busy, as it is after a build: a session of `daemon_warm` then took
/// 3.0 ms instead of 2.0 ms for minutes on end, while the pinned one
/// took 2.0 ms throughout.
pub fn pin_to_current_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t` is 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: sched_getcpu takes nothing and returns a CPU number or -1.
    let cpu = unsafe { sched_getcpu() }.max(0) as usize % 1024;
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: pid 0 is the calling thread; `mask` is 128 readable bytes,
    // the size passed, and the call only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity to CPU {cpu} failed");
}

/// `VmHWM` of this process in MB: the most resident memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `nproc`, CPU model, rustc and commit, as far as the host tells.
pub fn host_line() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let tool = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "host: nproc {}, cpu {cpu}, {}, commit {}",
        nproc(),
        tool("rustc", &["--version"]),
        tool("git", &["rev-parse", "--short", "HEAD"]),
    )
}
