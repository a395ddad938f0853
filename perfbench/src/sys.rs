//! The few operating-system facilities std does not expose: a
//! nanosecond-resolution readiness wait, process CPU time, timer slack,
//! and the `/proc` readings the report records.

use std::os::fd::RawFd;
use std::path::Path;
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// Block until `fd` is readable (or writable, when `want_write`) or
/// `timeout` passes. `ppoll` takes a nanosecond timeout, so a sender
/// waiting for its next intended send time wakes on time instead of on
/// the next millisecond tick.
pub fn wait_fd(fd: RawFd, want_write: bool, timeout: Duration) {
    let mut pfd = PollFd {
        fd,
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, properly laid-out locals for the
    // duration of the call; a null signal mask leaves the mask unchanged.
    // An EINTR or error return just ends the wait early, which the
    // caller's loop tolerates.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// CPU seconds (user + system) this process has used so far.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable Timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Shrink the calling thread's timer slack to 1 ns so timed waits end
/// when asked rather than up to 50 µs later.
pub fn tight_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // affects the calling thread; the unused arguments are ignored.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// CPU time (ns) the live threads of process `pid` have run, from each
/// thread's `schedstat`. Time the hypervisor steals from a vCPU is not
/// charged to the threads, so this reads the same on a busy host as on
/// an idle one.
pub fn cpu_ns(pid: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Host-wide (steal, total) CPU ticks from `/proc/stat`: the share of
/// time the hypervisor ran something else on this machine's vCPUs.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(cpu) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let v: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.get(7).copied().unwrap_or(0), v.iter().take(8).sum())
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/self/mountinfo`.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// First line of a small text file, trimmed (empty when unreadable).
pub fn read_line(path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .next()
        .unwrap_or_default()
        .trim()
        .to_string()
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
