//! Machine-speed correction.
//!
//! The reference box is a small shared VM whose speed drifts by ±20% over
//! seconds to minutes (a fixed single-threaded loop takes 90 to 140 ms
//! there, in stretches of its own choosing), which no repetition inside a
//! 20 s run averages out: ten runs of the same binary put the median GMM
//! gradient anywhere from 353 to 431 ms. So every timed stretch is
//! bracketed by two runs of a fixed piece of work — the probe — and
//! divided by how slow the probe ran against a frozen nominal cost: a
//! timing reads what it would have been on the reference box at its
//! usual speed. Raw medians are printed beside the corrected ones.
//!
//! The probe's instruction mix was chosen by measurement. Twelve minutes
//! of six candidate loops interleaved with three pieces of the system (a
//! GMM primal on the VM, vjp + optimizer on the nine programs, a hundred
//! minimal gradients) showed all three pieces slowing alike, by 1.0× the
//! slowdown of a branchy dispatch loop and of wide independent integer
//! and float chains (correlation 0.93–0.97), but by 1.2× that of
//! dependent chains, and unrelated to pointer chasing through 4 MB or to
//! allocation. The probe is the first three in equal parts; against it
//! the residual over 5 s windows was 2.0–2.4%.

use std::time::{Duration, Instant};

/// Milliseconds one probe takes on the reference box at its usual speed
/// (calibrated so that corrected and raw medians agree on a quiet
/// afternoon there); frozen, so that every commit is scaled to the same
/// machine speed.
pub const NOMINAL_PROBE_MS: f64 = 2.4;

/// The fixed work, about 2 ms, in three equal parts: eight independent
/// integer multiply-rotate chains with table look-ups, eight independent
/// float accumulators over a 512 KB buffer, and an eight-way `match` on
/// random bits (the shape of an interpreter's dispatch).
pub fn probe_ms() -> f64 {
    use std::cell::RefCell;
    thread_local! {
        static STATE: RefCell<(Vec<u64>, Vec<f64>)> = RefCell::new((
            (0..1u64 << 14).map(|i| i.wrapping_mul(0x2545_f491_4f6c_dd1d)).collect(),
            vec![1.0; 1 << 16],
        ));
    }
    STATE.with(|state| {
        let (table, buf) = &*state.borrow();
        let t = Instant::now();

        let mut chains = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut sum = 0u64;
        for _ in 0..300_000 {
            for c in chains.iter_mut() {
                *c = c.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(13) ^ 0x2545;
            }
            sum = sum
                .wrapping_add(table[chains[0] as usize & 0x3fff])
                .wrapping_add(table[chains[3] as usize & 0x3fff]);
        }

        let mut acc = [0.0f64; 8];
        for _ in 0..48 {
            for lane in buf.chunks_exact(8) {
                for (a, x) in acc.iter_mut().zip(lane) {
                    *a = *a * 0.9999 + x;
                }
            }
        }

        let (mut x, mut a, mut b) = (88_172_645_463_325_252u64, 0u64, 0u64);
        for _ in 0..75_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x & 7 {
                0 => a = a.wrapping_add(x),
                1 => b ^= x,
                2 => a = a.rotate_left(3),
                3 => b = b.wrapping_add(a),
                4 => a ^= b,
                5 => b = b.wrapping_mul(3),
                6 => a = a.wrapping_add(1),
                _ => b = b.wrapping_add(2),
            }
        }
        std::hint::black_box((chains, sum, acc, a, b));
        t.elapsed().as_secs_f64() * 1e3
    })
}

/// `f`'s result and its wall time in milliseconds.
pub fn wall_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// A probe taken no longer ago than this still describes "just before".
const FRESH: Duration = Duration::from_millis(2);

/// Brackets timed stretches with probes; back-to-back stretches share
/// the probe between them.
pub struct Meter {
    last_ms: f64,
    last_at: Instant,
    /// Every slowdown handed out, for reporting the run's mean.
    pub slowdowns: Vec<f64>,
}

impl Meter {
    pub fn new() -> Meter {
        probe_ms(); // first touch of the probe's memory
        Meter {
            last_ms: probe_ms(),
            last_at: Instant::now(),
            slowdowns: Vec::new(),
        }
    }

    /// Run `f` between two probes; returns its result and how slow the
    /// machine ran meanwhile, as a multiple of nominal (above 1: slow).
    /// Divide a duration measured inside `f` by it; multiply a rate.
    pub fn around<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        if self.last_at.elapsed() > FRESH {
            self.last_ms = probe_ms();
        }
        let before = self.last_ms;
        let out = f();
        self.last_ms = probe_ms();
        self.last_at = Instant::now();
        let slowdown = (before + self.last_ms) / 2.0 / NOMINAL_PROBE_MS;
        self.slowdowns.push(slowdown);
        (out, slowdown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_brackets_a_stretch_and_shares_fresh_probes() {
        let mut meter = Meter::new();
        let (out, slow) = meter.around(|| 7);
        assert_eq!(out, 7);
        assert!(slow > 0.0 && slow.is_finite());
        let shared = meter.last_ms;
        let ((), _) = meter.around(|| assert_eq!(shared, shared));
        assert_eq!(meter.slowdowns.len(), 2);
        // The second stretch reused the first one's closing probe, so its
        // slowdown is the mean of that and its own closing probe.
        let expect = (shared + meter.last_ms) / 2.0 / NOMINAL_PROBE_MS;
        assert!((meter.slowdowns[1] - expect).abs() < 1e-12);
    }
}
