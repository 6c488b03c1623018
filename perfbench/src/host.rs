//! Host-level measurements: the reference probe that tracks the host's
//! speed during a run, and the process's peak resident set.
//!
//! The probe runs two fixed std-only kernels between ops, about every
//! [`SAMPLE_PERIOD`]: a dependent-load chase over a 1 MiB ring and a sort
//! plus hash-map fill of 32 Ki keys, each timed in the thread's own CPU
//! time. Neither touches the code under test, so a change to the
//! workspace moves the workloads and not the probe, while a slow host
//! stretch (other tenants of the machine contending for its cores and
//! caches) moves both. Each op's latency is divided by the probe's
//! slowdown around it ([`Probe::slowdown_near`]), which takes most of the
//! host's drift out of the end-to-end metrics.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::{ms, stats};

/// Ring entries: 2^18 `u32`s, a 1 MiB working set.
const RING: usize = 1 << 18;
/// Loads `ref_ms` is expressed per: 2^20, four trips round the ring.
const REF_STEPS: usize = 1 << 20;
/// Keys sorted and hashed per sample.
const KEYS: u32 = 1 << 15;
/// Least time between two samples.
const SAMPLE_PERIOD: Duration = Duration::from_millis(200);

/// Samples a local slowdown is taken over: about two seconds' worth.
const NEAR: usize = 9;

/// Probe readings of a typical quiet stretch of the 2-vCPU recording host
/// on a CPU of its own (ms per [`REF_STEPS`] chase loads, ms per sort
/// sample). Host speed is measured against them.
const NOMINAL_REF_MS: f64 = 8.0;
const NOMINAL_SORT_MS: f64 = 1.2;

/// The geometric mean of the two kernels' median ratios to their
/// nominal readings.
fn slowdown(ref_ms: &[f64], sort_ms: &[f64]) -> f64 {
    let chase = stats::median(ref_ms) / NOMINAL_REF_MS;
    let sort = stats::median(sort_ms) / NOMINAL_SORT_MS;
    (chase * sort).sqrt()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time the calling thread has used. The probe times itself with it,
/// so a sample that shares its CPU with another thread of the benchmark
/// counts only its own work.
fn thread_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &raw mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID)");
    #[allow(clippy::cast_sign_loss)]
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to the lowest-numbered CPU it may run on. Returns false when the
/// affinity calls fail; the thread then stays unrestricted.
#[must_use]
pub(crate) fn pin_to_one_cpu() -> bool {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, size_of_val(&mask), mask.as_mut_ptr()) };
    if rc < 0 {
        return false;
    }
    let Some(cpu) = (0..mask.len() * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1) else {
        return false;
    };
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of the size passed.
    unsafe { sched_setaffinity(0, size_of_val(&one), one.as_ptr()) == 0 }
}

/// One random cycle over every ring slot (Sattolo's algorithm on a fixed
/// xorshift stream), so each load depends on the previous one and the
/// prefetcher cannot help.
fn ring() -> Vec<u32> {
    let mut next: Vec<u32> = (0..RING as u32).collect();
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    for i in (1..RING).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        #[allow(clippy::cast_possible_truncation)]
        let j = (x % i as u64) as usize;
        next.swap(i, j);
    }
    next
}

/// The reference probe, sampled between ops.
#[derive(Debug, Default)]
pub struct Probe {
    ring: Vec<u32>,
    cursor: u32,
    last: Option<Instant>,
    /// When each sample was taken.
    at: Vec<Instant>,
    /// Chase samples, ms per [`REF_STEPS`] loads.
    ref_ms: Vec<f64>,
    /// Sort-and-hash samples, ms.
    sort_ms: Vec<f64>,
    keys: Vec<u32>,
    /// A fixed hasher, so every sample does the same work.
    index: HashMap<u32, usize, BuildHasherDefault<DefaultHasher>>,
}

impl Probe {
    /// Takes a sample unless one was taken in the last [`SAMPLE_PERIOD`].
    pub(crate) fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= SAMPLE_PERIOD) {
            self.sample();
        }
    }

    /// Takes a sample.
    pub(crate) fn sample(&mut self) {
        if self.ring.is_empty() {
            self.ring = ring();
        }
        // One trip round the ring brings it back into cache; the second
        // is timed.
        let mut at = self.cursor;
        for _ in 0..RING {
            at = self.ring[at as usize];
        }
        let t0 = thread_cpu_time();
        for _ in 0..RING {
            at = self.ring[at as usize];
        }
        self.ref_ms
            .push(ms(thread_cpu_time() - t0) * (REF_STEPS / RING) as f64);
        self.cursor = black_box(at);

        // The buffers are kept from sample to sample, so a sample
        // allocates nothing.
        self.keys.clear();
        self.keys
            .extend((0..KEYS).map(|i| i.wrapping_mul(0x9e37_79b1) ^ (i >> 3)));
        let t0 = thread_cpu_time();
        self.keys.sort_unstable();
        self.index.clear();
        self.index
            .extend(self.keys.iter().enumerate().map(|(i, &k)| (k, i)));
        black_box(&self.index);
        self.sort_ms.push(ms(thread_cpu_time() - t0));
        let now = Instant::now();
        self.at.push(now);
        self.last = Some(now);
    }

    /// Median chase time, ms per 2^20 dependent loads over the 1 MiB
    /// ring (the `host.ref_ms` diagnostic).
    #[must_use]
    pub fn ref_ms(&self) -> f64 {
        stats::median(&self.ref_ms)
    }

    /// Median sort-and-hash time, ms.
    #[must_use]
    pub fn sort_ms(&self) -> f64 {
        stats::median(&self.sort_ms)
    }

    /// Samples taken.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.ref_ms.len()
    }

    /// How slow the host ran over all samples, against the nominal
    /// readings: 1 on a typical quiet stretch, 1.2 when the host ran 20 %
    /// slower (the `host.slowdown` diagnostic).
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        slowdown(&self.ref_ms, &self.sort_ms)
    }

    /// [`Probe::slowdown`] over the [`NEAR`] samples taken closest to `t`.
    #[must_use]
    pub(crate) fn slowdown_near(&self, t: Instant) -> f64 {
        let n = self.at.len();
        let i = self.at.partition_point(|&a| a <= t);
        let lo = i.saturating_sub(NEAR / 2).min(n.saturating_sub(NEAR));
        let hi = (lo + NEAR).min(n);
        slowdown(&self.ref_ms[lo..hi], &self.sort_ms[lo..hi])
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
///
/// # Panics
///
/// Panics when `/proc/self/status` has no `VmHWM` line (not Linux).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
