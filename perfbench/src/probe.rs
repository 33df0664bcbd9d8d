//! The host-speed probe. The shared host runs identical code at speeds
//! up to ~1.7× apart, in spells from a second to half an hour long
//! (README.md), far more than a regression bound allows. So a fixed piece
//! of work that shares no code with the simulator is timed between the
//! parts of every measurement, and each part's host time is divided by
//! how much slower than on the reference host the probes around it ran.
//! The results read as seconds on the reference host in its fast state,
//! and a change to the program still moves them in full.
//!
//! The probe is a small bytecode interpreter: dispatch on a `match`,
//! data-dependent branches, loads and stores to a 32 KB memory. Timed in
//! alternation with simulator runs for 150 s on the reference host, its
//! time tracked theirs more closely (correlation 0.96–0.98 over 1.5 s
//! windows) than a tight integer loop, a random walk over 4 MB, a
//! sort-and-format mix or the ISA reference interpreter.

use std::hint::black_box;
use std::time::Instant;

/// Instructions one probe executes: about 2.4 ms on the reference host.
const STEPS: u64 = 1_500_000;
/// Probes timed back to back at each sampling point.
const BURST: usize = 2;
/// Time of one probe on the reference host in its fast state: about the
/// 10th percentile of the probe bursts timed inside `fig7_detail` runs
/// there (stderr prints every burst's slowdown).
pub const REFERENCE_S: f64 = 0.0024;

#[derive(Clone, Copy)]
enum Op {
    Li(u8, i64),
    Add(u8, u8, u8),
    Sub(u8, u8, u8),
    Mul(u8, u8, u8),
    Xor(u8, u8, u8),
    Shr(u8, u8, u8),
    And(u8, u8, u8),
    Ld(u8, u8),
    St(u8, u8),
    Bnz(u8, i32),
    Blt(u8, u8, i32),
    Jmp(i32),
    Halt,
}

/// A hash loop over memory whose branch depends on the data.
const PROGRAM: [Op; 23] = {
    use Op::*;
    [
        Li(0, 0),
        Li(1, 1 << 40),
        Li(2, 7),
        Li(4, 4095),
        Li(5, 2_654_435_761),
        Li(6, 1),
        Li(7, 13),
        // loop:
        Mul(3, 2, 5),
        Shr(3, 3, 7),
        And(3, 3, 4),
        Ld(8, 3),
        Xor(2, 2, 8),
        Add(2, 2, 0),
        And(9, 2, 6),
        Bnz(9, 3),
        Add(10, 2, 5),
        St(3, 10),
        Jmp(2),
        Sub(10, 2, 0),
        St(3, 10),
        Add(0, 0, 6),
        Blt(0, 1, -16),
        Halt,
    ]
};

/// Run [`PROGRAM`] for `steps` instructions; returns its accumulator.
fn interpret(steps: u64) -> i64 {
    use Op::*;
    let mut r = [0i64; 16];
    let mut m = vec![0i64; 4096];
    let mut pc = 0usize;
    let jump = |pc: usize, off: i32| pc.wrapping_add_signed(off as isize);
    for _ in 0..steps {
        match PROGRAM[pc] {
            Li(d, v) => r[d as usize] = v,
            Add(d, a, b) => r[d as usize] = r[a as usize].wrapping_add(r[b as usize]),
            Sub(d, a, b) => r[d as usize] = r[a as usize].wrapping_sub(r[b as usize]),
            Mul(d, a, b) => r[d as usize] = r[a as usize].wrapping_mul(r[b as usize]),
            Xor(d, a, b) => r[d as usize] = r[a as usize] ^ r[b as usize],
            Shr(d, a, b) => r[d as usize] = ((r[a as usize] as u64) >> (r[b as usize] & 63)) as i64,
            And(d, a, b) => r[d as usize] = r[a as usize] & r[b as usize],
            Ld(d, a) => r[d as usize] = m[r[a as usize] as usize & 4095],
            St(a, v) => m[r[a as usize] as usize & 4095] = r[v as usize],
            Bnz(a, off) => {
                if r[a as usize] != 0 {
                    pc = jump(pc, off);
                    continue;
                }
            }
            Blt(a, b, off) => {
                if r[a as usize] < r[b as usize] {
                    pc = jump(pc, off);
                    continue;
                }
            }
            Jmp(off) => {
                pc = jump(pc, off);
                continue;
            }
            Halt => break,
        }
        pc += 1;
    }
    r[2]
}

/// Time one probe, in seconds.
pub fn once() -> f64 {
    let t = Instant::now();
    black_box(interpret(black_box(STEPS)));
    t.elapsed().as_secs_f64()
}

/// The host's slowdown measured by probe bursts across one run.
#[derive(Debug, Default)]
pub struct Probe(Vec<f64>);

impl Probe {
    /// Time a burst of probes now; returns the host's slowdown against the
    /// reference host at this moment: divide a host time by it.
    pub fn sample(&mut self) -> f64 {
        let mean = (0..BURST).map(|_| once()).sum::<f64>() / BURST as f64;
        let slowdown = mean / REFERENCE_S;
        self.0.push(slowdown);
        slowdown
    }

    /// The mean slowdown of every burst so far.
    pub fn slowdown(&self) -> f64 {
        crate::stats::mean(&self.0)
    }

    pub fn bursts(&self) -> &[f64] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_program_is_deterministic_and_loops() {
        assert_eq!(interpret(10_000), interpret(10_000));
        assert_ne!(interpret(10_000), interpret(20_000));
    }

    #[test]
    fn slowdown_is_the_mean_of_the_bursts() {
        let mut p = Probe::default();
        let s = p.sample();
        assert!(s > 0.0 && s.is_finite());
        p.sample();
        assert_eq!(p.bursts().len(), 2);
        assert!((p.slowdown() - (p.bursts()[0] + p.bursts()[1]) / 2.0).abs() < 1e-12);
    }
}
