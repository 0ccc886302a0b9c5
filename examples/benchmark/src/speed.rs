//! Host speed: a fixed reference task, timed between jobs, against which
//! every timed interval is corrected to one nominal host speed.
//!
//! The baseline host, a shared 2-vCPU virtual machine, runs everything up
//! to about 2x slower for stretches that can outlast a whole run, and
//! CPU time slows with it. So the benchmark times this task after every
//! job and set-up and scales each interval by the readings on either
//! side of it (README.md has the measurements). The task is code of the
//! kinds the simulator's hot paths run (number formatting, sorting,
//! hash-map updates) on fixed inputs; it is the benchmark's own, so no
//! change to the repository moves it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// A round figure within the task's time on the baseline host (median
/// readings of 2.5-4.2 ms per run). Corrected times are the measured
/// ones scaled to a host that runs the task in exactly this long.
pub const NOMINAL_S: f64 = 0.003;

/// Run the reference task once; its wall time in seconds.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    black_box(format_numbers());
    black_box(sort_words());
    black_box(count_keys());
    t.elapsed().as_secs_f64()
}

/// `secs` measured between reference readings `before` and `after`,
/// corrected to the nominal host speed.
pub fn correct(secs: f64, before: f64, after: f64) -> f64 {
    secs * NOMINAL_S / ((before + after) / 2.0)
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn format_numbers() -> usize {
    let (mut s, mut x, mut len) = (String::new(), black_box(13u64), 0);
    for _ in 0..6_000 {
        let v = (xorshift(&mut x) % 1_000_000) as f64 / 7.0;
        let _ = write!(s, "{v:.6} {} ", x % 1000);
        if s.len() > 4096 {
            len += s.len();
            s.clear();
        }
    }
    len + s.len()
}

fn sort_words() -> u64 {
    let mut x = black_box(11u64);
    let mut v: Vec<u64> = (0..40_000).map(|_| xorshift(&mut x)).collect();
    v.sort_unstable();
    v[v.len() / 2]
}

fn count_keys() -> u64 {
    let (mut m, mut x, mut acc) = (HashMap::new(), black_box(7u64), 0u64);
    for i in 0..16_000u64 {
        let k = xorshift(&mut x) % 8_000;
        *m.entry(k).or_insert(0u64) += i;
        if let Some(v) = m.get(&(k ^ 1)) {
            acc ^= v;
        }
    }
    acc + m.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_scales_by_the_bracketing_readings() {
        // A job read between two readings at twice the nominal time took
        // twice as long as it would on the nominal host.
        assert_eq!(correct(0.5, 2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.25);
        assert_eq!(correct(0.5, NOMINAL_S, 3.0 * NOMINAL_S), 0.25);
        assert!(reference_s() > 0.0);
    }
}
