//! Host-speed calibration for the end-to-end times.
//!
//! The benchmark runs on shared hosts whose speed drifts by up to 2× for
//! seconds to minutes at a time, with no steal time counted; a thread's
//! CPU time drifts with its wall time, so neither removes it. The drift
//! moves whole runs and whole sets of runs, so no statistic over one run's
//! raw times can hide it.
//!
//! So every timed run also times a fixed reference kernel — hashing,
//! hash-table inserts and probes, and a sort over a 2 MB working set, in
//! plain Rust that uses none of the repository's code — between its ops.
//! Its working set is past the caches the way the engine's is: a kernel
//! that fits in L2 slowed only half as much as a fixpoint in slow phases.
//! Each op's raw time is scaled by [`REFERENCE_MS`] over the kernel's time
//! around that op: the op's time on a host where the kernel takes
//! `REFERENCE_MS`. A change to the repository's code moves the op and not
//! the kernel, so it shows in full; a change in host speed moves both.
//! Raw times are printed beside the scaled ones.

use crate::sample::{ms, Samples};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time, in ms, on the host the scaled times refer to: about
/// its fastest tenth on a 2 GHz Xeon vCPU of a shared host.
pub const REFERENCE_MS: f64 = 12.0;

/// Keys the kernel draws, inserts, probes and sorts.
const KERNEL_KEYS: usize = 131_072;

/// Kernel marks on each side of an op that its scale is taken from.
const NEIGHBOURS: usize = 2;

/// Run the reference kernel once and return its time in ms.
pub fn kernel_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut total = 0u64;
    let mut keys = Vec::with_capacity(KERNEL_KEYS);
    let mut table: HashMap<u64, u32> = HashMap::with_capacity(KERNEL_KEYS / 2);
    for i in 0..KERNEL_KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        keys.push(x);
        table.insert(x % (KERNEL_KEYS as u64 / 2), i as u32);
    }
    for k in &keys {
        if let Some(v) = table.get(&(k % (KERNEL_KEYS as u64 / 2))) {
            total = total.wrapping_add(u64::from(*v));
        }
    }
    keys.sort_unstable();
    total = total.wrapping_add(keys[KERNEL_KEYS / 2]);
    black_box(total);
    ms(start.elapsed())
}

/// Op times and the kernel marks taken between them.
pub struct HostSpeed {
    marks: Vec<(Instant, f64)>,
    every: Duration,
    next: Instant,
}

impl HostSpeed {
    /// Marks taken by [`HostSpeed::tick`] at most once per `every`.
    pub fn new(every: Duration) -> HostSpeed {
        HostSpeed {
            marks: Vec::new(),
            every,
            next: Instant::now(),
        }
    }

    /// Time the kernel now.
    pub fn mark(&mut self) {
        let at = Instant::now();
        let t = kernel_ms();
        self.marks.push((at, t));
        self.next = Instant::now() + self.every;
    }

    /// Time the kernel if a mark is due. Call it between ops.
    pub fn tick(&mut self) {
        if Instant::now() >= self.next {
            self.mark();
        }
    }

    pub fn marks(&self) -> usize {
        self.marks.len()
    }

    /// The kernel's time around `at`: the median of the nearest marks on
    /// each side.
    fn kernel_at(&self, at: Instant) -> f64 {
        let split = self.marks.partition_point(|(t, _)| *t <= at);
        let lo = split.saturating_sub(NEIGHBOURS);
        let hi = (split + NEIGHBOURS).min(self.marks.len());
        let mut near = Samples::default();
        for (_, t) in &self.marks[lo..hi] {
            near.push(*t);
        }
        near.median()
    }

    /// `raw` (any unit) of an op that started at `at`, scaled to the
    /// reference host.
    pub fn scale(&self, at: Instant, raw: f64) -> f64 {
        raw * REFERENCE_MS / self.kernel_at(at)
    }

    /// Scaled samples of ops given as (start, raw time).
    pub fn scaled(&self, ops: &[(Instant, f64)]) -> Samples {
        let mut s = Samples::default();
        for (at, raw) in ops {
            s.push(self.scale(*at, *raw));
        }
        s
    }

    /// How much slower than the reference the host ran, median over the
    /// run's marks.
    pub fn slowdown(&self) -> f64 {
        let mut s = Samples::default();
        for (_, t) in &self.marks {
            s.push(t / REFERENCE_MS);
        }
        s.median()
    }
}

/// Raw samples of ops given as (start, raw time).
pub fn raw(ops: &[(Instant, f64)]) -> Samples {
    let mut s = Samples::default();
    for (_, t) in ops {
        s.push(*t);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_uses_the_marks_around_an_op() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let host = HostSpeed {
            marks: vec![
                (at(0), 2.0),
                (at(10), 4.0),
                (at(20), 8.0),
                (at(30), 8.0),
                (at(40), 16.0),
            ],
            every: Duration::ZERO,
            next: t0,
        };
        // Between the 2nd and 3rd marks: the median of 2, 4, 8, 8.
        assert_eq!(host.scale(at(15), 6.0), 6.0 * REFERENCE_MS / 6.0);
        // After the last mark: the median of the last two.
        assert_eq!(host.scale(at(50), 12.0), 12.0 * REFERENCE_MS / 12.0);
        assert_eq!(raw(&[(at(1), 3.0), (at(2), 1.0)]).median(), 2.0);
    }
}
