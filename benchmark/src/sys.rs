//! What the benchmark reads from the operating system: process CPU time,
//! peak resident memory and the facts printed in the run header.

use std::fs;
use std::process::Command;
use std::sync::OnceLock;

/// `/proc` reports CPU times in `USER_HZ` ticks, which Linux fixes at 100
/// for every architecture it exposes `/proc/<pid>/stat` on.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds of the whole process so far — every thread,
/// including ones that have already exited (per-batch workers do).
pub fn process_cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces and parentheses; the
    // numeric fields start after the *last* ')'.
    let rest = &stat[stat.rfind(')').expect("comm field in /proc/self/stat") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |field: usize| -> f64 {
        fields[field - 3]
            .parse()
            .expect("numeric tick count in /proc/self/stat")
    };
    (ticks(14) + ticks(15)) / TICKS_PER_SECOND
}

/// Peak resident set size of the process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM in /proc/self/status");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM value in kB");
    kb / 1024.0
}

/// CPUs the process was allowed to run on when it started (before
/// [`pin_to_one_cpu`] narrowed that down).
static STARTING_CPUS: OnceLock<usize> = OnceLock::new();

/// Logical CPUs available to the process at start-up.
pub fn nproc() -> usize {
    *STARTING_CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Service worker threads every workload is configured with: enough to
/// show work moved between threads, never more than the machine has.
pub fn workers() -> usize {
    nproc().min(2)
}

/// A CPU affinity mask as the kernel takes it (room for 1024 CPUs).
pub type CpuMask = [u64; 16];

extern "C" {
    // Both are exported by every Linux libc, which `std` already links.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread — and every thread it spawns from now on —
/// to one CPU: the one that currently runs a fixed arithmetic loop fastest.
/// Returns the mask it had and the CPU chosen, or `None` when the kernel
/// refuses (the run then goes on unpinned).
///
/// Why one CPU: with one request in flight every hop of the serving path
/// (client → reader → executor → client) is a thread wake-up. On a small
/// virtual machine a wake-up across CPUs costs 4× one on the same CPU, and
/// the scheduler flips between the two placements in episodes of seconds
/// to minutes — measured here as 52 000 vs 11 000 requests/s on the same
/// binary. On one CPU the same run repeats within 2 %.
///
/// Why the fastest: virtual CPUs of a shared host are not equally fast at
/// a given moment (one was measured at half the speed of the other for
/// minutes), and an unpinned thread migrates between them.
pub fn pin_to_one_cpu() -> Option<(CpuMask, usize)> {
    nproc();
    let mut allowed: CpuMask = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of exactly the byte size
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), allowed.as_mut_ptr()) } != 0 {
        return None;
    }
    let only = |cpu: usize| {
        let mut one: CpuMask = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        one
    };
    // At most the eight highest-numbered CPUs compete (CPU 0 takes most
    // interrupts and loses ties): three rounds each, best round counts.
    let candidates: Vec<usize> = (0..allowed.len() * 64)
        .rev()
        .filter(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .take(8)
        .collect();
    let mut best_time = vec![f64::INFINITY; candidates.len()];
    for _ in 0..3 {
        for (slot, &cpu) in candidates.iter().enumerate() {
            if !set_affinity(&only(cpu)) {
                set_affinity(&allowed);
                return None;
            }
            let started = std::time::Instant::now();
            let mut x = 1u64;
            for i in 0..4_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
            }
            std::hint::black_box(x);
            best_time[slot] = best_time[slot].min(started.elapsed().as_secs_f64());
        }
    }
    let fastest = (0..candidates.len())
        .min_by(|a, b| best_time[*a].total_cmp(&best_time[*b]))
        .map(|slot| candidates[slot])?;
    set_affinity(&only(fastest)).then_some((allowed, fastest))
}

/// Sets the calling thread's affinity mask (threads it spawns inherit it).
pub fn set_affinity(mask: &CpuMask) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the byte size passed; the
    // kernel only reads it; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// One line of facts a reader needs to compare two result files.
pub fn run_header(seed: u64, pinned_cpu: Option<usize>) -> String {
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "run_header nproc={} workers={} pinned_cpu={} seed={seed} kernel={kernel} rustc=\"{rustc}\"",
        nproc(),
        workers(),
        pinned_cpu.map_or("none".to_string(), |cpu| cpu.to_string())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work_and_rss_is_positive() {
        let before = process_cpu_seconds();
        let started = std::time::Instant::now();
        let mut x = 0u64;
        while started.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.5);
        assert!(nproc() >= 1 && workers() >= 1 && workers() <= 2);
    }

    #[test]
    fn pinning_narrows_to_one_cpu_and_can_be_undone() {
        // On its own thread: affinity is per thread, and the other tests
        // must keep theirs.
        std::thread::spawn(|| {
            let before = nproc();
            let Some((original, cpu)) = pin_to_one_cpu() else {
                return; // the kernel refused; nothing to check
            };
            assert!(original[cpu / 64] >> (cpu % 64) & 1 == 1);
            assert_eq!(std::thread::available_parallelism().unwrap().get(), 1);
            assert_eq!(nproc(), before, "nproc reports the starting count");
            assert!(set_affinity(&original));
            assert_eq!(std::thread::available_parallelism().unwrap().get(), before);
        })
        .join()
        .unwrap();
        assert!(run_header(7, Some(1)).contains("pinned_cpu=1 seed=7"));
    }
}
