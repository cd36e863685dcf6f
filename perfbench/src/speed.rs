//! Host-speed probe and the probed clock behind every reported host time.
//!
//! On a shared host the same code runs at speeds that swing by up to 1.7×
//! in spells from about 100 ms to minutes, as other tenants load the
//! cores and evict the shared last-level cache: neither the fastest nor
//! the median of many rounds removes that. The probe is a pair of fixed
//! kernels owned by the benchmark, none of the simulator's code, each a
//! chain of dependent pseudo-random loads and stores:
//!
//! - *core*: over a 256 KiB table held in the core's own cache (the
//!   fastest of three passes after a warm-up pass);
//! - *cache*: over an 8 MiB table, freshly written so that it starts in
//!   the last-level cache, where the simulator's working set lives.
//!
//! The probe reads the geometric mean of the two times. Host times are
//! reported in *nominal* ns: a [`Clock`] probes between the stretches it
//! times (outside them) and scales every stretch by ([`PROBE_NOMINAL_NS`]
//! over the mean of the probes just before and just after it) to the
//! power [`ELASTICITY`]. A slow spell slows the probe too and cancels, in
//! part; a change to the simulator's speed does not touch the probe.
//!
//! The simulator's windows swing more than the probe: regressed on the
//! probe over the rounds of one run, their log host time moves 1.1–3
//! times as much. Over four sets of 8 runs on a 2-core box (probing
//! around each window), the quartile spread of the replay throughput
//! across runs, as a share of the median, averaged 0.068 (at most 0.093) with the scaling at power 1.5, 0.079 (at
//! most 0.10) at power 1, 0.091 (at most 0.14) for the fastest round scaled
//! by the run's median core probe, and 0.18 (at most 0.34) for the
//! unscaled median round.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Probe reading (ns) defining the nominal host speed: about the median
/// reading on the 2-core box the benchmark was tuned on. It sets the unit
/// only; comparisons between runs do not depend on it.
pub const PROBE_NOMINAL_NS: f64 = 1_300_000.0;

/// Power to which the probe's speed ratio is raised when scaling.
pub const ELASTICITY: f64 = 1.5;

const CORE_WORDS: usize = 1 << 15;
const CORE_STEPS: u64 = 40_000;
const CACHE_WORDS: usize = 1 << 20;
const CACHE_STEPS: u64 = 40_000;

/// Bytes the probe keeps resident (its tables), for callers that report
/// the process's memory without them.
pub const PROBE_RESIDENT_BYTES: usize = (CORE_WORDS + CACHE_WORDS) * 8;

struct Tables {
    core: Vec<u64>,
    cache: Vec<u64>,
}

thread_local! {
    static TABLES: RefCell<Tables> = RefCell::new(Tables {
        core: vec![0; CORE_WORDS],
        cache: vec![0; CACHE_WORDS],
    });
}

/// Fill `table` with its start values (this also brings it into cache).
fn fill(table: &mut [u64]) {
    for (k, w) in table.iter_mut().enumerate() {
        *w = (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// One timed pass of `steps` dependent loads and stores over `table`
/// (a power-of-two length), in ns.
fn pass(table: &mut [u64], steps: u64) -> f64 {
    let shift = 64 - table.len().trailing_zeros();
    let start = Instant::now();
    let mut x = 1u64;
    for k in 0..steps {
        let j = (x >> shift) as usize;
        x = table[j] ^ x.rotate_left(9) ^ k;
        table[j] = x;
    }
    black_box(x);
    start.elapsed().as_nanos() as f64
}

/// One probe reading: core and cache kernel times (ns).
#[derive(Debug, Clone, Copy)]
struct Probe {
    core_ns: f64,
    cache_ns: f64,
}

fn probe() -> Probe {
    TABLES.with(|t| {
        let Tables { core, cache } = &mut *t.borrow_mut();
        fill(core);
        pass(core, CORE_STEPS);
        let core_ns = (0..3)
            .map(|_| pass(core, CORE_STEPS))
            .fold(f64::MAX, f64::min);
        fill(cache);
        let cache_ns = pass(cache, CACHE_STEPS);
        Probe { core_ns, cache_ns }
    })
}

/// Scale from host ns to nominal ns for a stretch between two probes.
fn scale(before: Probe, after: Probe) -> f64 {
    let core = (before.core_ns + after.core_ns) / 2.0;
    let cache = (before.cache_ns + after.cache_ns) / 2.0;
    (PROBE_NOMINAL_NS / (core * cache).sqrt()).powf(ELASTICITY)
}

/// Host time of a stretch of work: as the wall clock read it, and scaled
/// to the nominal host speed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostTime {
    /// Wall-clock ns.
    pub raw_ns: f64,
    /// Nominal ns (equal to `raw_ns` on an unprobed clock).
    pub nominal_ns: f64,
}

impl HostTime {
    /// Add `other` to `self`.
    pub fn add(&mut self, other: HostTime) {
        self.raw_ns += other.raw_ns;
        self.nominal_ns += other.nominal_ns;
    }
}

/// Times consecutive stretches of work, probing between them.
pub struct Clock {
    /// The probe taken after the last stretch (or at creation); `None` on
    /// an unprobed clock.
    last: Option<Probe>,
}

impl Clock {
    /// A clock that probes now and after every stretch or, without
    /// `probing`, one that reports wall time only (for the traced round,
    /// whose spans should not see the probes, and the oracle pass).
    pub fn new(probing: bool) -> Clock {
        Clock {
            last: probing.then(probe),
        }
    }

    /// Run `f` as one stretch.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, HostTime) {
        let start = Instant::now();
        let out = f();
        let raw_ns = start.elapsed().as_nanos() as f64;
        let nominal_ns = match self.last {
            Some(before) => {
                let after = probe();
                self.last = Some(after);
                raw_ns * scale(before, after)
            }
            None => raw_ns,
        };
        (out, HostTime { raw_ns, nominal_ns })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_microseconds_to_milliseconds() {
        let p = probe();
        assert!(p.core_ns > 1e3 && p.core_ns < 2e8, "{p:?}");
        assert!(p.cache_ns > 1e3 && p.cache_ns < 2e8, "{p:?}");
    }

    #[test]
    fn clock_times_the_stretch_not_the_probes() {
        let sleep = || std::thread::sleep(std::time::Duration::from_millis(20));
        let mut clock = Clock::new(true);
        let ((), t) = clock.time(sleep);
        assert!(t.raw_ns >= 20e6 && t.raw_ns < 200e6, "{t:?}");
        assert!(t.nominal_ns > 0.0, "{t:?}");
        let ((), t) = Clock::new(false).time(sleep);
        assert_eq!(t.raw_ns, t.nominal_ns);
    }
}
