//! Host-speed calibration: two small kernels of the benchmark's own, timed
//! between a workload's calls, against which its CPU-bound times are
//! scaled.
//!
//! On a shared 2-vCPU VM the same work runs up to 1.7 times slower for
//! stretches of 10 s and more, long enough that a whole run can fall in
//! one. Each item's best repeat (see [`crate::stats::best_per_item`])
//! removes the short stretches but not the long ones. The kernels slow
//! down with the host and do not depend on the program, so their best
//! times tell how fast the host was: a time is scaled by
//! `REFERENCE_MS / best kernel time`, the geometric mean over the kernels,
//! and reads as milliseconds on a host where the kernels take at best
//! `REFERENCE_MS`. [`Calibration::factor_at`] takes the kernels' best over
//! the probes around one sample, so a sample from a slow stretch of a run
//! is scaled by that stretch's speed. In a probe of six 12 s processes,
//! the best check times of a fixed schema set moved by a factor of 1.71
//! between processes, and by 1.17 once scaled. A change to the program
//! moves a scaled figure as it moves the unscaled one; the kernels only
//! track the host.

use std::hint::black_box;
use std::time::Instant;

/// What each kernel takes at best on the reference host, a 2-vCPU VM.
const REFERENCE_MS: [f64; 2] = [0.26, 0.29];
/// Probes on either side of a sample that [`Calibration::factor_at`] takes
/// the kernels' best over.
const WINDOW: usize = 12;

/// Each probe's kernel times, in the order they were taken.
#[derive(Clone, Default)]
pub struct Calibration {
    probes: Vec<[f64; 2]>,
}

impl Calibration {
    pub fn new() -> Calibration {
        Calibration::default()
    }

    /// Times each kernel once; returns the probe's index.
    pub fn probe(&mut self) -> usize {
        let kernels: [fn() -> u64; 2] = [limbs, elimination];
        let times = kernels.map(|kernel| {
            let t = Instant::now();
            black_box(kernel());
            t.elapsed().as_secs_f64() * 1e3
        });
        self.probes.push(times);
        self.probes.len() - 1
    }

    /// Adds another thread's probes after this one's.
    pub fn merge(&mut self, other: &Calibration) {
        self.probes.extend_from_slice(&other.probes);
    }

    /// The factor a time measured during the run is multiplied by to read
    /// as on the reference host, from the kernels' best over every probe;
    /// 1 before any probe.
    pub fn factor(&self) -> f64 {
        scale(&self.probes)
    }

    /// The factor for a time measured next to probe `i`, from the kernels'
    /// best over the `WINDOW` probes on either side of it.
    pub fn factor_at(&self, i: usize) -> f64 {
        let end = (i + WINDOW + 1).min(self.probes.len());
        scale(&self.probes[i.saturating_sub(WINDOW).min(end)..end])
    }

    /// A readable line for the stderr report.
    pub fn note(&self) -> String {
        let best = best(&self.probes);
        format!(
            "host calibration: {} probes, best kernel times {:.4} and {:.4} ms against {} and {} ms, run scale {:.4}",
            self.probes.len(),
            best[0],
            best[1],
            REFERENCE_MS[0],
            REFERENCE_MS[1],
            self.factor()
        )
    }
}

fn best(probes: &[[f64; 2]]) -> [f64; 2] {
    probes
        .iter()
        .fold([f64::INFINITY; 2], |b, t| [b[0].min(t[0]), b[1].min(t[1])])
}

fn scale(probes: &[[f64; 2]]) -> f64 {
    if probes.is_empty() {
        return 1.0;
    }
    let logs: f64 = REFERENCE_MS
        .iter()
        .zip(best(probes))
        .map(|(r, b)| (r / b).ln())
        .sum();
    (logs / REFERENCE_MS.len() as f64).exp()
}

/// A xorshift step: the kernels' inputs.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Schoolbook products of 8-limb numbers, a gcd loop, and a small ordered
/// map: carries, divisions and short-lived allocations.
fn limbs() -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    let mut acc = 0u64;
    for _ in 0..400 {
        let a: Vec<u64> = (0..8).map(|_| next(&mut x)).collect();
        let b: Vec<u64> = (0..8).map(|_| next(&mut x)).collect();
        let mut r = vec![0u64; 16];
        for i in 0..8 {
            let mut carry = 0u128;
            for j in 0..8 {
                let t = u128::from(a[i]) * u128::from(b[j]) + u128::from(r[i + j]) + carry;
                r[i + j] = t as u64;
                carry = t >> 64;
            }
            r[i + 8] = carry as u64;
        }
        let (mut p, mut q) = (r[3] | 1, r[7] | 1);
        while q != 0 {
            (p, q) = (q, p % q);
        }
        let m: std::collections::BTreeMap<u64, usize> =
            r.iter().enumerate().map(|(k, v)| (v % 97, k)).collect();
        acc = acc
            .wrapping_add(p)
            .wrapping_add(r[15])
            .wrapping_add(m.len() as u64);
    }
    acc
}

/// Fraction-free elimination of small integer matrices held in heap rows,
/// with gcd sweeps: branchy integer arithmetic over fresh allocations.
fn elimination() -> u64 {
    const N: usize = 7;
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    let mut acc = 0u64;
    for _ in 0..40 {
        let mut m: Vec<Vec<i128>> = (0..N)
            .map(|_| (0..=N).map(|_| (next(&mut x) % 19) as i128 - 9).collect())
            .collect();
        let mut prev: i128 = 1;
        for k in 0..N - 1 {
            let Some(p) = (k..N).find(|&r| m[r][k] != 0) else {
                continue;
            };
            m.swap(k, p);
            for i in k + 1..N {
                m[i] = (0..=N)
                    .map(|j| (m[i][j] * m[k][k] - m[i][k] * m[k][j]) / prev)
                    .collect();
            }
            prev = m[k][k];
            for row in &m {
                let mut g = 0i128;
                for &v in row {
                    let (mut a, mut b) = (g.abs(), v.abs());
                    while b != 0 {
                        (a, b) = (b, a % b);
                    }
                    g = a;
                }
                acc = acc.wrapping_add(g as u64);
            }
        }
        acc = acc
            .wrapping_add(m[N - 1][N] as u64)
            .wrapping_add(prev as u64);
    }
    acc
}
