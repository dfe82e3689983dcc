//! A fixed piece of work — hash-map inserts and lookups, then a sort — run
//! between phases to read how fast this machine is *right now*, and the
//! scaling of every timing to a machine of nominal speed.
//!
//! The sandbox shares its two cores. A single-threaded loop swings by a
//! factor of two from one second to the next in one half hour and by 2 %
//! in the next, and whole runs drift by 1.6× between such periods. Medians
//! across rounds do not remove a drift that outlasts a run. So a phase
//! that ran between two readings `a` and `b` of the kernel has its times
//! multiplied by `NOMINAL_MS / mean(a, b)` and its rates divided by it.
//! Counts are not scaled. The kernel lives in `benchmark/` and calls
//! nothing of the program under test, so no change to the program can
//! move it. Across ten seeds this cut the spread of the single-threaded
//! metrics from 20–35 % to 3–12 % in a noisy half hour and cost 1–3 % in
//! a quiet one.
//!
//! The kernel is single-threaded, and so is the machine as the benchmark
//! sees it: `run.sh` pins the process to one core (see the README for what
//! two shared cores did to the service numbers).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

const ENTRIES: u64 = 200_000;

fn mix(i: u64) -> u64 {
    let z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^ (z >> 29)
}

/// Milliseconds the single-threaded kernel takes.
pub fn cpu_ms() -> f64 {
    let t0 = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(ENTRIES as usize);
    for i in 0..ENTRIES {
        map.insert(mix(i), i);
    }
    let hits: u64 = (0..ENTRIES).map(|i| map[&mix(i)]).fold(0, u64::wrapping_add);
    let mut v: Vec<u64> = (0..ENTRIES).map(mix).collect();
    v.sort_unstable();
    black_box(hits ^ v[v.len() / 2]);
    t0.elapsed().as_secs_f64() * 1e3
}

/// The kernel's time on the box the sizes were frozen on, in its usual
/// state: scaled and unscaled times agree on a usual day.
pub const NOMINAL_MS: f64 = 16.0;

/// Kernel readings at phase boundaries.
pub struct Speed {
    /// `None` in a smoke run, which checks and does not measure: every
    /// factor is then 1.
    last_ms: Option<f64>,
    /// Every factor handed out, for `bench.speed_factor`.
    pub factors: Vec<f64>,
}

impl Speed {
    /// Takes the first reading, unless `smoke`.
    pub fn start(smoke: bool) -> Speed {
        Speed { last_ms: (!smoke).then(cpu_ms), factors: Vec::new() }
    }

    /// Takes a reading now, at the end of a phase that began at the
    /// previous reading, and returns what to multiply the phase's times by.
    pub fn factor(&mut self) -> f64 {
        let factor = match self.last_ms {
            None => 1.0,
            Some(last_ms) => {
                let now_ms = cpu_ms();
                self.last_ms = Some(now_ms);
                NOMINAL_MS / ((last_ms + now_ms) / 2.0)
            }
        };
        self.factors.push(factor);
        factor
    }
}
