//! Host-speed calibration.
//!
//! The host's speed drifts by a third within seconds on a shared VM, so
//! a raw median in ms measures the neighbours as much as the program.
//! Every timed operation is therefore bracketed by a calibration unit:
//! a fixed piece of work that belongs to the benchmark, not to the
//! program, so no change to the program can move it. An operation's
//! time over the mean of its two brackets is its cost in calibration
//! units; times [`REFERENCE_MS`] it reads as ms on the reference host.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::ms;

/// Median time of one calibration unit on the reference host (a 2-core
/// Xeon VM), in ms. A fixed scale: it converts calibration units to ms
/// and never changes with the host the benchmark runs on.
pub(crate) const REFERENCE_MS: f64 = 0.6;

/// One calibration unit: map inserts and lookups, small allocations,
/// string formatting and sorts, the mix a compiler and an interpreter
/// spend their time on. Returns a checksum so none of it is optimised
/// away.
fn unit() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 33
    };
    let mut map: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    let mut names = Vec::with_capacity(512);
    for i in 0..2048u32 {
        let k = next() % 1024;
        map.entry(k).or_default().push(i);
        if i % 4 == 0 {
            names.push(format!("v{k}_{i}"));
        }
    }
    let mut keys: Vec<u64> = (0..4096).map(|_| next()).collect();
    keys.sort_unstable();
    names.sort();
    let mut sum = keys[keys.len() / 2];
    for k in 0..1024 {
        if let Some(v) = map.get(&k) {
            sum = sum.wrapping_add(v.iter().map(|&i| u64::from(i)).sum::<u64>());
        }
    }
    sum.wrapping_add(names.iter().map(|n| n.len() as u64).sum::<u64>())
}

/// Host ms of one calibration unit.
fn unit_ms() -> f64 {
    let t = Instant::now();
    black_box(unit());
    ms(t.elapsed())
}

/// One operation's host time, measured between two calibration units.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timed {
    /// Host ms, as the clock read them.
    pub(crate) ms: f64,
    /// Mean host ms of the two calibration units around the operation.
    pub(crate) calib_ms: f64,
}

impl Timed {
    /// The operation's time in ms on the reference host.
    pub(crate) fn reference_ms(self) -> f64 {
        self.ms / self.calib_ms * REFERENCE_MS
    }
}

/// Runs `f` between two calibration units and times it.
pub(crate) fn time<T>(f: impl FnOnce() -> T) -> (T, Timed) {
    let before = unit_ms();
    let t = Instant::now();
    let out = f();
    let dt = ms(t.elapsed());
    let after = unit_ms();
    (
        out,
        Timed {
            ms: dt,
            calib_ms: (before + after) / 2.0,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_unit_is_fixed_work() {
        assert_eq!(unit(), unit());
    }

    #[test]
    fn reference_time_scales_by_the_calibration() {
        let t = Timed {
            ms: 3.0,
            calib_ms: 1.2,
        };
        assert!((t.reference_ms() - 3.0 / 1.2 * REFERENCE_MS).abs() < 1e-12);
        let (v, t) = time(|| 7);
        assert_eq!(v, 7);
        assert!(t.ms >= 0.0 && t.calib_ms > 0.0);
    }
}
