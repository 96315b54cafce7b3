//! A fixed CPU yardstick, timed next to every measured operation.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent within minutes: the same run of the same binary takes 1.4 s
//! at one moment and 1.9 s a few minutes later. The yardstick is a fixed
//! piece of work that lives in the benchmark's own files, so no change
//! to the program can move it. Timing it right before every operation
//! and every set-up gives a run's machine speed; host-time metrics are
//! scaled by [`Yardstick::NOMINAL_NS`] over the median yardstick time, so
//! they read as seconds on the reference machine at its usual speed and
//! a slow minute on the host does not read as a slow program.
//!
//! The work is a miniature of the simulator's own: an event calendar in
//! a `BTreeMap` (pop the earliest event, schedule the next, allocating
//! and freeing nodes), a re-rate sweep over a slice of f64 rates, a
//! `HashMap` of per-stream totals, and data-dependent branches. A plain
//! pointer chase tracked the program's slowdowns less well: the
//! program's mix of independent work suffers more when a neighbour
//! shares the core. Every timing does the same work.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Events in the calendar.
const EVENTS: u32 = 512;
/// Rates the sweep walks over.
const RATES: usize = 256;
/// Rates one event re-rates.
const SWEEP: usize = 32;
/// Events handled per timing.
const STEPS: u32 = 10_000;

/// The yardstick's initial state and its timings so far.
#[derive(Debug)]
pub struct Yardstick {
    calendar: BTreeMap<(u64, u32), u32>,
    rates: Vec<f64>,
    samples_ns: Vec<u64>,
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick::new()
    }
}

impl Yardstick {
    /// The yardstick's median time on the reference machine (a 2-core
    /// x86-64 container) when the host is quiet.
    pub const NOMINAL_NS: f64 = 1.4e6;

    /// A yardstick with its initial state built.
    pub fn new() -> Yardstick {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let calendar = (0..EVENTS)
            .map(|k| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ((x >> 40, k), k)
            })
            .collect();
        Yardstick {
            calendar,
            rates: (0..RATES).map(|i| 1.0 + i as f64 * 0.01).collect(),
            samples_ns: Vec::new(),
        }
    }

    /// Runs the fixed work once and records how long it took.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        let mut calendar = self.calendar.clone();
        let mut rates = self.rates.clone();
        let mut totals: HashMap<u32, f64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut h = 0x2545_F491_4F6C_DD1Du64;
        for step in 0..STEPS {
            let ((t, id), v) = calendar.pop_first().expect("the calendar never empties");
            h = (h ^ t).wrapping_mul(0x1000_0000_01B3);
            let lo = (h as usize >> 8) % (RATES - SWEEP);
            let mut share = 0.0;
            for r in &mut rates[lo..lo + SWEEP] {
                *r = *r * 0.999 + 0.001 * f64::from(v);
                share += *r;
            }
            *totals.entry(id & 127).or_insert(0.0) += share / (1.0 + (h >> 60) as f64);
            let dt = if share > 40.0 {
                (h >> 52) + 1
            } else {
                (h >> 54) + 3
            };
            calendar.insert((t + dt, step), v ^ h as u32);
        }
        black_box((calendar.len(), totals.len(), h));
        self.samples_ns.push(t0.elapsed().as_nanos() as u64);
    }

    /// Every timing so far, ns.
    pub fn samples_ns(&self) -> &[u64] {
        &self.samples_ns
    }

    /// The factor that turns this run's host seconds into reference
    /// seconds: the nominal time over the median timing. 1 before the
    /// first timing.
    pub fn scale(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 1.0;
        }
        let mut v = self.samples_ns.clone();
        v.sort_unstable();
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2] as f64
        } else {
            (v[n / 2 - 1] + v[n / 2]) as f64 / 2.0
        };
        Yardstick::NOMINAL_NS / median
    }
}

#[cfg(test)]
mod tests {
    use super::Yardstick;

    #[test]
    fn the_scale_is_the_nominal_time_over_the_median_timing() {
        let mut y = Yardstick::new();
        assert_eq!(y.scale(), 1.0);
        for _ in 0..5 {
            y.sample();
        }
        let mut v = y.samples_ns().to_vec();
        v.sort_unstable();
        assert_eq!(y.scale(), Yardstick::NOMINAL_NS / v[2] as f64);
    }
}
