//! Std-only process probes: a counting global allocator, `/proc`
//! readers for process CPU time and peak resident memory, and the host
//! facts printed with every result.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::process::Command;

/// Forwards to the system allocator and counts calls per thread.
struct CountingAlloc;

thread_local! {
    // Const-initialized, so touching it inside the allocator never
    // allocates (a lazily initialized thread-local would recurse).
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs during thread-local teardown.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

/// Allocator calls (`alloc`, `alloc_zeroed` and `realloc`) made by the
/// calling thread so far. A thread-local count keeps the two streaming
/// workers from contending on a shared counter while they are timed.
pub fn thread_allocs() -> u64 {
    ALLOC_CALLS.try_with(Cell::get).unwrap_or(0)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only other effect is a
// thread-local counter update that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `alloc` hold unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's guarantees for `alloc_zeroed` hold unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from `System` with `layout`; the caller's
        // guarantees on `new_size` hold unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. The
/// kernel reports them in `USER_HZ`, which is 100 on every Linux ABI
/// this repository builds for.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process, exited threads
/// included, from `/proc/self/stat` (10 ms resolution).
pub fn process_cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis start at field 3 (state). utime and stime
    // are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Where a result was measured.
pub struct HostFacts {
    pub nproc: usize,
    pub cpu_model: String,
    pub loadavg: String,
    pub rustc: String,
    pub git_rev: String,
}

impl HostFacts {
    /// Reads the host facts; anything unreadable is reported as
    /// `unknown` rather than failing the run.
    pub fn read(repo_root: &Path) -> Self {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(unknown);
        let loadavg = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
            .unwrap_or_else(unknown);
        let rustc = Command::new("rustc")
            .arg("-V")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(unknown);
        Self {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model,
            loadavg,
            rustc,
            git_rev: git_rev(repo_root).unwrap_or_else(|| "none".into()),
        }
    }
}

/// The checked-out commit, read from `.git` without running git (a
/// benchmark checkout need not be a repository, and a git found in a
/// parent directory would report the wrong one).
fn git_rev(repo_root: &Path) -> Option<String> {
    let git = repo_root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}
