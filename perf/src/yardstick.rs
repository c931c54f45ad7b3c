//! A fixed compute kernel timed next to every trial, so that the host's
//! momentary speed can be divided out of the end-to-end numbers.
//!
//! Why: this benchmark runs on small shared VMs whose speed is not
//! constant. Ten back-to-back runs of the *same* binary showed every
//! timing — single-thread run-to-completion and plain set-up included —
//! moving together by up to 1.6× for minutes at a time (a neighbour on
//! the sibling hyperthread, or the host's clock), while trials inside one
//! run agreed to a few percent. No amount of repetition inside a run
//! averages that out, and a regression bound is useless under it. So each
//! trial is paired with a sample of this yardstick, and the end-to-end
//! metrics are reported at *nominal host speed*: a rate is divided, a
//! duration multiplied, by `yardstick rate ÷ NOMINAL_RATE`. The raw value
//! is printed beside every normalised one.
//!
//! The kernel is deliberately small (4 KiB, L1-resident) and ALU-bound:
//! it must measure the host, not the cache state the workload under test
//! left behind (a 16 MiB variant tracked the workload's footprint
//! instead and made the replay workload's numbers *less* steady). It is
//! part of the benchmark's definition: changing it re-bases every number.

use std::hint::black_box;
use std::time::Instant;

/// Yardstick steps per second on a quiet host of the class this benchmark
/// was defined on (2 vCPU Xeon @ 2.1 GHz). One "nominal second" is the
/// time that host needs for this many steps.
pub const NOMINAL_RATE: f64 = 5.0e8;

const WORDS: usize = 512;
const ROUNDS: usize = 1024;

/// The kernel's state.
pub struct Yardstick {
    buf: [u64; WORDS],
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Yardstick {
    pub fn new() -> Self {
        let mut buf = [0u64; WORDS];
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for b in buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = x;
        }
        Self { buf }
    }

    /// Time one pass (about a millisecond) and return the host's speed
    /// relative to nominal: 1.0 on the reference host, 0.6 when the host
    /// currently runs this code at 60% of that.
    pub fn speed(&mut self) -> f64 {
        let mut acc = 0u64;
        let t = Instant::now();
        for round in 0..ROUNDS {
            let mut sum = 0u64;
            for (i, v) in self.buf.iter().enumerate() {
                sum = sum.wrapping_add(*v).rotate_left(5);
                if sum & 0x40 != 0 {
                    sum ^= i as u64;
                }
            }
            acc ^= sum;
            self.buf[round % WORDS] = acc;
        }
        let secs = t.elapsed().as_secs_f64();
        black_box(acc);
        (ROUNDS * WORDS) as f64 / secs / NOMINAL_RATE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_positive_and_repeatable_in_order_of_magnitude() {
        let mut y = Yardstick::new();
        let a = y.speed();
        let b = y.speed();
        assert!(a > 0.0 && b > 0.0);
        assert!(a / b < 10.0 && b / a < 10.0);
    }
}
