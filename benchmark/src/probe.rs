//! The host-speed probe: a fixed piece of floating-point work, frozen in
//! the benchmark's own files, timed beside every measured operation.
//!
//! The machine the benchmark is checked on is a small guest of a shared
//! host, and its floating-point throughput has two levels about 1.7x
//! apart that each last seconds to minutes (README, "The host").  The
//! guest cannot see which level it has, but this probe can: dense
//! elimination on 8 x 8 and 64 x 64 systems and an indexed gather slow
//! down with the solver, which is made of the same operations.  A timing
//! is reported at the probe's reference speed: wall seconds times
//! reference probe seconds over probe seconds measured around it.
//!
//! Nothing here calls into the program, so no change to the program moves
//! the probe.

use std::hint::black_box;
use std::time::Instant;

/// Eliminations of the 8 x 8 system per probe.
const REPS_8: usize = 6000;
/// Eliminations of the 64 x 64 system per probe.
const REPS_64: usize = 24;
/// Doubles in the gathered array (2 MiB: inside the L2 cache).
const GATHER: usize = 1 << 18;

/// The probe's inputs and scratch space, allocated once.
#[derive(Debug, Clone)]
pub struct Probe {
    a8: Vec<f64>,
    a64: Vec<f64>,
    scratch: Vec<f64>,
    rhs: Vec<f64>,
    values: Vec<f64>,
    index: Vec<u32>,
}

fn matrix(n: usize) -> Vec<f64> {
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        for j in 0..n {
            a[i * n + j] = if i == j {
                n as f64 + 2.0
            } else {
                ((i * 31 + j * 17) % 13) as f64 * 0.07
            };
        }
    }
    a
}

/// Gaussian elimination without pivoting (the matrices are diagonally
/// dominant) and back substitution, `reps` times.
fn eliminate(a: &[f64], n: usize, reps: usize, scratch: &mut [f64], rhs: &mut [f64]) -> f64 {
    let scratch = &mut scratch[..n * n];
    let rhs = &mut rhs[..n];
    let mut sum = 0.0;
    for _ in 0..reps {
        scratch.copy_from_slice(a);
        rhs.fill(1.0);
        for k in 0..n {
            let pivot = scratch[k * n + k];
            for i in k + 1..n {
                let factor = scratch[i * n + k] / pivot;
                for j in k..n {
                    scratch[i * n + j] -= factor * scratch[k * n + j];
                }
                rhs[i] -= factor * rhs[k];
            }
        }
        for k in (0..n).rev() {
            let mut value = rhs[k];
            for j in k + 1..n {
                value -= scratch[k * n + j] * rhs[j];
            }
            rhs[k] = value / scratch[k * n + k];
        }
        sum += rhs[0];
    }
    sum
}

impl Default for Probe {
    fn default() -> Self {
        Self::new()
    }
}

impl Probe {
    /// Build the probe's inputs.
    pub fn new() -> Self {
        // A fixed permutation of the gathered array's indices.
        let mut index: Vec<u32> = (0..GATHER as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        for i in (1..GATHER).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            index.swap(i, (x % (i as u64 + 1)) as usize);
        }
        Self {
            a8: matrix(8),
            a64: matrix(64),
            scratch: vec![0.0; 64 * 64],
            rhs: vec![0.0; 64],
            values: vec![1.0; GATHER],
            index,
        }
    }

    /// Run the probe once on the calling thread; its seconds.
    pub fn run(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(eliminate(
            black_box(&self.a8),
            8,
            REPS_8,
            &mut self.scratch,
            &mut self.rhs,
        ));
        black_box(eliminate(
            black_box(&self.a64),
            64,
            REPS_64,
            &mut self.scratch,
            &mut self.rhs,
        ));
        let mut sum = 0.0;
        for &i in black_box(&self.index) {
            sum += self.values[i as usize];
        }
        black_box(sum);
        t0.elapsed().as_secs_f64()
    }
}

/// Seconds the probe takes on the machine the benchmark was written on
/// while that machine is at its faster level.  It only fixes the scale of
/// the reported seconds; comparisons between two builds do not depend on
/// it.
pub const REFERENCE_S: f64 = 2.9e-3;

/// Probes run in a row before and after a measured operation.
pub const BURST: usize = 4;

/// The probe on as many threads as the operation it paces keeps busy.
#[derive(Debug)]
pub struct Pace {
    probes: Vec<Probe>,
}

impl Pace {
    /// A pace-maker for operations that keep `width` threads busy.
    pub fn new(width: usize) -> Self {
        Self {
            probes: vec![Probe::new(); width.max(1)],
        }
    }

    /// One probe on every thread at once; the mean of their seconds.
    pub fn sample(&mut self) -> f64 {
        let seconds: Vec<f64> = if let [only] = self.probes.as_mut_slice() {
            vec![only.run()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .probes
                    .iter_mut()
                    .map(|probe| scope.spawn(move || probe.run()))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("probe thread panicked"))
                    .collect()
            })
        };
        seconds.iter().sum::<f64>() / seconds.len() as f64
    }

    /// [`BURST`] samples in a row, appended to `samples`.
    pub fn burst(&mut self, samples: &mut Vec<f64>) {
        for _ in 0..BURST {
            samples.push(self.sample());
        }
    }
}

/// How much of the probe's slow-down work shows that is only part
/// arithmetic, as an exponent.  Set-up is part allocation and index
/// building, a cache hit is mostly system calls and copies, and neither
/// part slows down with the probe: when the probe went from 1.08 to 1.81
/// times its reference (x 1.68), 3 000 set-ups of each workload went
/// x 1.36 (`jacobi-2x2`), x 1.48 (`sweep-linear`), x 1.66 (`converge-dsa`)
/// and x 1.73 (`sweep-cubic`), exponents 0.59 to 1.06; the median hit of
/// three `serve-mix` runs took 0.71, 0.76 and 0.83 ms with the probe at
/// 1.20, 1.30 and 1.49, exponent 0.74.  Solves and cache misses follow
/// the probe in full (exponent 1.0 to 1.1).
pub const MIXED_SENSITIVITY: f64 = 0.8;

/// `seconds` of work measured between the probe samples `around`, as the
/// seconds it would have taken at the reference speed, for work that
/// shows `sensitivity` of the probe's slow-down.
fn at_reference(seconds: f64, around: &[f64], sensitivity: f64) -> f64 {
    let mean = around.iter().sum::<f64>() / around.len() as f64;
    seconds * (REFERENCE_S / mean).powf(sensitivity)
}

/// One timing: the wall seconds measured, and the same at the probe's
/// reference speed, which is what the run reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// Wall seconds as measured.
    pub wall: f64,
    /// Wall seconds scaled by the host speed the probe saw around them.
    pub paced: f64,
}

impl Timed {
    /// `wall` seconds of a solve or a request, measured between the probe
    /// samples `around`.
    pub fn new(wall: f64, around: &[f64]) -> Self {
        Self {
            wall,
            paced: at_reference(wall, around, 1.0),
        }
    }

    /// `wall` seconds of a set-up or a cache hit ([`MIXED_SENSITIVITY`]).
    pub fn mixed(wall: f64, around: &[f64]) -> Self {
        Self {
            wall,
            paced: at_reference(wall, around, MIXED_SENSITIVITY),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_does_its_work_and_scaling_is_proportional() {
        let mut probe = Probe::new();
        assert!(probe.run() > 0.0);
        let mut samples = Vec::new();
        Pace::new(2).burst(&mut samples);
        assert_eq!(samples.len(), BURST);
        assert!(samples.iter().all(|s| *s > 0.0));
        // A host at half the reference speed doubles both numbers.
        let slow = [2.0 * REFERENCE_S, 2.0 * REFERENCE_S];
        assert!((Timed::new(3.0, &slow).paced - 1.5).abs() < 1e-12);
        assert!((Timed::new(3.0, &[REFERENCE_S]).paced - 3.0).abs() < 1e-12);
        // A set-up is scaled by less.
        let setup = Timed::mixed(3.0, &slow);
        assert!(setup.paced > 1.5 && setup.paced < 3.0 && setup.wall == 3.0);
    }
}
