//! What the benchmark asks of the machine: one CPU to itself, a scratch
//! directory off the shared disk, the process CPU clock, peak RSS from
//! `/proc`, and the provenance fields every result row carries. The
//! foreign calls are `sched_getaffinity`, `sched_setaffinity` and
//! `clock_gettime`, all from the C library `std` already links.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// CPUs this process may run on.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Words of the affinity mask passed to the kernel: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    /// `sched_getaffinity(2)`; `pid` 0 is the calling thread.
    fn sched_getaffinity(pid: i32, bytes: usize, mask: *mut u64) -> i32;
    /// `sched_setaffinity(2)`; `pid` 0 is the calling thread.
    fn sched_setaffinity(pid: i32, bytes: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to one CPU: the highest-numbered one it is allowed, because CPU 0
/// serves the box's interrupts. Call it before the first thread starts.
/// Returns that CPU, or `None` where the kernel refuses (the run then
/// goes on unpinned and says so).
///
/// Why: a request over loopback wakes the server thread and then the
/// client thread. When the two sit on different virtual CPUs each wake-up
/// is an inter-processor interrupt to a halted vCPU, which a shared
/// hypervisor delivers in 10–60 us depending on what else it runs, and
/// the scheduler re-decides the placement every few hundred
/// milliseconds: identical rounds of one process ranged over 3x. On one
/// CPU no wake-up leaves it and rounds repeat to 1–2 % (README).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of `bytes` bytes for the
    // whole call; the kernel writes at most `bytes` bytes into it.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|w| *w != 0)?;
    let cpu = word * 64 + 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `bytes` bytes, only read.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(cpu)
}

/// Where the benchmark may leave files in the checkout: `benchmark/out`
/// from the repository root, where the one run command starts; `out`
/// when started inside the package. Both are git-ignored.
pub fn out_dir() -> PathBuf {
    if Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    }
}

/// A fresh scratch root for this process: under `/dev/shm` when that is
/// writable (so no shared device's flush latency is in any timer), else
/// under [`out_dir`] in the checkout. Returns the directory and the
/// filesystem type it sits on.
pub fn scratch_root() -> (PathBuf, String) {
    let name = format!("dsv-benchmark-{}", std::process::id());
    for base in [PathBuf::from("/dev/shm"), out_dir()] {
        let dir = base.join(&name);
        let _ = std::fs::remove_dir_all(&dir);
        if std::fs::create_dir_all(&dir).is_ok() {
            let fs = fs_type(&std::fs::canonicalize(&base).unwrap_or(base));
            return (dir, fs);
        }
    }
    panic!("no writable scratch directory (tried /dev/shm and the checkout)");
}

/// Filesystem type of the longest mount point that prefixes `path`.
fn fs_type(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let (point, fs) = (fields.nth(1)?, fields.next()?);
            path.starts_with(point).then_some((point.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs.to_owned())
}

/// A new empty directory under `root`.
pub fn fresh_dir(root: &Path, label: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = root.join(format!("{label}-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

pub fn copy_tree(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_tree(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// `struct timespec` of the platform's C library (64-bit Linux).
#[repr(C)]
struct Timespec {
    seconds: i64,
    nanos: i64,
}

extern "C" {
    /// `clock_gettime(2)`.
    fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
}

/// Process CPU time (user + system, every thread, exited ones too) in
/// microseconds. `/proc/self/stat` carries the same quantity but in
/// 10 ms ticks, which is a few percent of a sub-second round; the
/// process CPU clock has the scheduler's nanosecond accounting.
pub fn cpu_micros() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut time = Timespec {
        seconds: 0,
        nanos: 0,
    };
    // SAFETY: `time` is a live, writable `timespec`-layout value for the
    // whole call, and `clock_gettime` writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    assert_eq!(status, 0, "the process CPU clock exists on every Linux");
    time.seconds as u64 * 1_000_000 + time.nanos as u64 / 1000
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the sources are at, read from `.git` without spawning
/// `git`; `unknown` outside a git checkout (the driver's is one).
pub fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .unwrap_or_default()
            .trim()
            .to_owned(),
        None => head.to_owned(),
    };
    if rev.is_empty() {
        "unknown".to_owned()
    } else {
        rev
    }
}
