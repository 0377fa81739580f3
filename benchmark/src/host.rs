//! What the benchmark reads from the host: wall and CPU clocks, the
//! calibration kernel behind reference-host seconds (timing rule T3), peak
//! RSS, and provenance for the info file.

use std::hint::black_box;
use std::time::Instant;

use serde::Serialize;

use crate::error::{Error, Result};

/// The clocks a measurement needs. The real host reads `Instant`,
/// `/proc/self/stat` and the calibration kernel; tests substitute a fake
/// whose time is a pure function of the work "done".
pub trait HostClock {
    /// Monotonic wall time, seconds since an arbitrary origin.
    fn wall_s(&mut self) -> f64;
    /// Process CPU time (user + system, all threads), seconds.
    fn cpu_s(&mut self) -> f64;
    /// Runs the calibration kernel once.
    fn cal(&mut self) -> CalTime;
}

/// f64 lanes of the multiply-add part: 32 KiB, resident in L1.
const FMA_LANES: usize = 4096;
/// Passes of the multiply-add part per slice (≈ 0.33 ms on the sizing host).
const FMA_PASSES: usize = 450;
/// Entries of the dependent-load part: 1 MiB of `u32`, half an L2.
const CHASE_ENTRIES: usize = 1 << 18;
/// Dependent loads per slice (≈ 0.33 ms on the sizing host).
const CHASE_LOADS: usize = 46_000;
/// Iterations of the integer-and-branch part per slice (≈ 0.33 ms).
const BRANCH_ITERS: usize = 50_000;
/// Slices per run of the kernel.
const SLICES: usize = 5;

/// One run of the calibration kernel.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct CalTime {
    /// The kernel's duration: [`SLICES`] times the median slice, seconds.
    pub total_s: f64,
    /// The same statistic for each part alone — multiply-add, dependent
    /// loads, branches — for the info file only.
    pub parts_s: [f64; 3],
}

/// The calibration kernel `cal`: a fixed piece of work owned by the
/// benchmark — none of the program's code, no allocation after `new` — whose
/// duration tracks how fast this vCPU is *right now*. It runs as five ≈ 1 ms
/// slices, each a third f64 multiply-add over an L1-resident array, a third
/// dependent loads through a single-cycle permutation and a third integer
/// arithmetic with data-dependent branches, and reports five times the
/// median slice: a preemption that lands in one slice (it would double a
/// 5 ms sample while adding 0.3 % to the 1 s block next to it) does not move
/// the result, a host that runs slower throughout does.
pub struct Cal {
    lanes: Vec<f64>,
    next: Vec<u32>,
    cursor: u32,
    word: u64,
}

impl Default for Cal {
    fn default() -> Self {
        Self::new()
    }
}

impl Cal {
    /// Builds the kernel's two arrays (the only allocation it ever makes).
    pub fn new() -> Self {
        // Sattolo's algorithm: one cycle through every entry, so the chase
        // never falls into a short loop. Its own generator keeps the kernel
        // free of program code.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = move |bound: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % bound as u64) as usize
        };
        let mut next: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
        for i in (1..CHASE_ENTRIES).rev() {
            next.swap(i, draw(i));
        }
        Self {
            lanes: (0..FMA_LANES).map(|i| 1.0 + i as f64 * 1e-6).collect(),
            next,
            cursor: 0,
            word: 0x2545_F491_4F6C_DD1D,
        }
    }

    /// One slice; the duration of each part, seconds.
    #[inline(never)]
    fn slice(&mut self) -> [f64; 3] {
        let t0 = Instant::now();
        let lanes = black_box(self.lanes.as_mut_slice());
        for _ in 0..FMA_PASSES {
            // Contracts toward the fixed point 1.0: never overflows, never
            // reaches a denormal, whatever the run count.
            for x in lanes.iter_mut() {
                *x = *x * 0.999_999 + 0.000_001;
            }
        }
        black_box(&mut *lanes);
        let t1 = Instant::now();
        let next = black_box(self.next.as_slice());
        let mut at = self.cursor;
        for _ in 0..CHASE_LOADS {
            at = next[at as usize];
        }
        self.cursor = black_box(at);
        let t2 = Instant::now();
        // xorshift64 with branches on its output: unpredictable, like the
        // parsing and formatting code the workloads spend much time in.
        let mut x = black_box(self.word);
        let mut acc = 0u64;
        for _ in 0..BRANCH_ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x & 0x30 == 0 {
                acc += x & 7;
            } else if x & 0x100 != 0 {
                acc ^= x >> 5;
            }
        }
        self.word = black_box(x ^ acc) | 1;
        let t3 = Instant::now();
        [
            (t1 - t0).as_secs_f64(),
            (t2 - t1).as_secs_f64(),
            (t3 - t2).as_secs_f64(),
        ]
    }

    /// Runs the kernel once.
    ///
    /// An untimed pass first pulls the permutation back into L2: a block
    /// evicts it, and cold loads would time how long ago the array was last
    /// touched, not how fast the host is now.
    pub fn run(&mut self) -> CalTime {
        let warm: u32 = self
            .next
            .iter()
            .step_by(16)
            .fold(0, |acc, &v| acc.wrapping_add(v));
        black_box(warm);
        let mut slices = [[0.0; 3]; SLICES];
        for s in &mut slices {
            *s = self.slice();
        }
        let scaled_median = |mut v: [f64; SLICES]| {
            v.sort_by(|a, b| a.partial_cmp(b).expect("durations are never NaN"));
            v[SLICES / 2] * SLICES as f64
        };
        CalTime {
            total_s: scaled_median(slices.map(|s| s.iter().sum())),
            parts_s: [0, 1, 2].map(|part| scaled_median(slices.map(|s| s[part]))),
        }
    }
}

/// The real host.
pub struct RealHost {
    origin: Instant,
    cal: Cal,
}

/// `USER_HZ`, the unit of `/proc/<pid>/stat`'s CPU times: 100 on every Linux
/// the benchmark runs on (reading it takes libc's `sysconf`, which the
/// benchmark does without).
const TICKS_PER_S: f64 = 100.0;

/// This process's CPU time so far, seconds.
fn read_cpu_s() -> Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| Error::io("reading /proc/self/stat", e))?;
    let ticks = parse_stat_cpu_ticks(&stat)
        .ok_or_else(|| Error::Program("/proc/self/stat has no utime and stime".into()))?;
    Ok(ticks as f64 / TICKS_PER_S)
}

impl RealHost {
    /// Builds the calibration arrays and fixes the wall-clock origin. Fails
    /// on a host without a CPU clock: a run that cannot read its CPU time
    /// must not print `cpu_us_per_step` as 0.
    pub fn new() -> Result<Self> {
        read_cpu_s()?;
        let mut cal = Cal::new();
        // The first run in a process pays for cold code and page tables
        // (30 ms seen against the usual 5): spend it here.
        cal.run();
        Ok(Self {
            origin: Instant::now(),
            cal,
        })
    }
}

impl HostClock for RealHost {
    fn wall_s(&mut self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn cpu_s(&mut self) -> f64 {
        read_cpu_s().expect("the CPU clock `RealHost::new` read has gone")
    }

    fn cal(&mut self) -> CalTime {
        self.cal.run()
    }
}

/// `utime + stime` in clock ticks from the text of `/proc/<pid>/stat`.
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// The KiB value of one `key:` line (`VmHWM`, `VmRSS`) of the text of
/// `/proc/<pid>/status`.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| {
        l.strip_prefix(key)
            .is_some_and(|rest| rest.starts_with(':'))
    })?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

fn status_mib(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kib(&status, key).map(|kib| kib as f64 / 1024.0)
}

/// This process's peak resident set so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_mib("VmHWM")
}

/// This process's resident set now (`VmRSS`), MiB.
pub fn rss_mib() -> Option<f64> {
    status_mib("VmRSS")
}

/// Nanoseconds the calling thread has spent on a CPU or waiting on a run
/// queue, from `/proc/thread-self/schedstat`. Wall time beyond this is
/// time blocked (on a disk, a socket, a lock).
pub fn thread_sched_ns() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    parse_schedstat_ns(&text)
}

/// `run + wait` nanoseconds from the text of a `schedstat` file.
pub fn parse_schedstat_ns(text: &str) -> Option<u64> {
    let mut fields = text.split_ascii_whitespace();
    let run: u64 = fields.next()?.parse().ok()?;
    let wait: u64 = fields.next()?.parse().ok()?;
    Some(run + wait)
}

/// Where a run was measured; written to the info file, never to a metric.
#[derive(Debug, Clone, Serialize)]
pub struct Provenance {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// 1-minute load average at the start of the run.
    pub load_1min: f64,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
}

impl Provenance {
    /// Reads the host's provenance (`"unknown"`/0 where `/proc` is silent).
    pub fn read() -> Self {
        let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
        let cpuinfo = read("/proc/cpuinfo");
        Self {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            load_1min: read("/proc/loadavg")
                .split_ascii_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0),
            cpu_model: cpuinfo
                .lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string()),
            kernel: read("/proc/sys/kernel/osrelease").trim().to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_counts_fields_after_the_last_parenthesis() {
        // A command name with a space and a ')' in it, utime 312, stime 45.
        let stat = "4242 (e2e) worker) S 1 4242 4242 0 -1 4194304 1234 0 0 0 312 45 0 0 20 0 3 0 \
                    9999 123456789 2048 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(357));
        assert_eq!(parse_stat_cpu_ticks("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_parser_reads_kib_by_exact_key() {
        let status = "Name:\te2e\nVmPeak:\t  300000 kB\nVmHWM:\t  116480 kB\nVmRSS:\t   90000 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(116_480));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(90_000));
        assert_eq!(parse_status_kib(status, "Vm"), None);
        assert_eq!(parse_status_kib("Name:\te2e\n", "VmHWM"), None);
    }

    #[test]
    fn schedstat_parser_adds_run_and_wait() {
        assert_eq!(parse_schedstat_ns("1285796 80970 3\n"), Some(1_366_766));
        assert_eq!(parse_schedstat_ns("12 x 3"), None);
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn real_host_clocks_advance() {
        let mut host = RealHost::new().unwrap();
        let (w0, c0) = (host.wall_s(), host.cpu_s());
        let cal = host.cal();
        assert!(cal.total_s > 0.0 && cal.parts_s.iter().all(|&p| p > 0.0));
        assert!(cal.parts_s.iter().sum::<f64>() <= cal.total_s * 1.5);
        assert!(host.wall_s() >= w0 + cal.total_s * 0.5);
        assert!(host.cpu_s() >= c0);
        assert!(peak_rss_mib().is_some_and(|m| m > 1.0));
    }
}
