//! Standard normal deviates by the ziggurat method.
//!
//! Marsaglia and Tsang, "The Ziggurat Method for Generating Random
//! Variables" (J. Stat. Softw. 5(8), 2000), with 256 layers and
//! Doornik's independent-bits fix ("An Improved Ziggurat Method to
//! Generate Normal Random Samples", 2005): the layer index and the
//! uniform come from disjoint bits of one 64-bit draw.
//!
//! The stream, per attempt: one `next_u64`. Its low 8 bits pick the
//! layer `i`, its top 52 bits give a uniform `u` in [-1, 1), and the
//! candidate is `x = u·X[i]`. When `|x| < X[i+1]` the candidate lies in
//! the layer's rectangle under the density and is returned; that is
//! about 98.5% of attempts, with no call into libm. Otherwise the
//! `#[cold]` edge path decides: in layers 1..=255 it draws one more
//! uniform and tests the wedge against `exp(-x²/2)`; in the base layer
//! it samples the tail beyond `R` by Marsaglia's 1964 method (two open
//! uniforms per try). A rejected wedge starts a whole new attempt.

use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::sync::OnceLock;

/// Number of layers (equal-area strips, the base strip included).
const LAYERS: usize = 256;

/// Right edge of the base layer's rectangle: where the tail begins.
const R: f64 = 3.654_152_885_361_009;

/// Area of every layer, for the density `exp(-x²/2)` (unnormalized).
const V: f64 = 4.928_673_233_99e-3;

/// Exponent bits that place a 52-bit mantissa in [2, 4).
const EXP_TWO: u64 = 0x4000_0000_0000_0000;

/// The layer edges `X` and the density at each edge `F = exp(-X²/2)`.
struct Tables {
    /// `x[0] = V/f(R)` (the base layer's virtual width), `x[1] = R`,
    /// decreasing to `x[256] = 0`.
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
}

fn pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

/// The tables, built on first use and shared by the whole process.
fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0; LAYERS + 1];
        x[0] = V / pdf(R);
        x[1] = R;
        // Each layer has area V: x[i+1] = f⁻¹(f(x[i]) + V/x[i]). The top
        // edge x[256] stays 0, where the last layer closes at the mode.
        for i in 1..LAYERS - 1 {
            x[i + 1] = (-2.0 * (V / x[i] + pdf(x[i])).ln()).sqrt();
        }
        Tables { x, f: x.map(pdf) }
    })
}

/// One standard normal deviate from `rng`.
#[inline]
pub(crate) fn standard_normal(rng: &mut StdRng) -> f64 {
    let t = tables();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 0xff) as usize;
        let u = f64::from_bits(EXP_TWO | (bits >> 12)) - 3.0;
        let x = u * t.x[i];
        if x.abs() < t.x[i + 1] {
            return x;
        }
        if let Some(z) = edge(t, rng, i, x) {
            return z;
        }
    }
}

/// The slow path of one attempt that fell outside its layer's
/// rectangle: `Some` deviate when accepted, `None` to start over.
#[cold]
#[inline(never)]
fn edge(t: &Tables, rng: &mut StdRng, i: usize, x: f64) -> Option<f64> {
    if i == 0 {
        return Some(tail(rng, x < 0.0));
    }
    let y = t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.gen::<f64>();
    (y < pdf(x)).then_some(x)
}

/// A deviate from the tail beyond `R` (Marsaglia 1964), negated when
/// `negative`.
fn tail(rng: &mut StdRng, negative: bool) -> f64 {
    loop {
        let a = -open_unit(rng).ln() / R;
        let b = -open_unit(rng).ln();
        if 2.0 * b > a * a {
            return if negative { -(R + a) } else { R + a };
        }
    }
}

/// A uniform in the open interval (0, 1), so its logarithm is finite.
fn open_unit(rng: &mut StdRng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// ∫ₐᵇ φ by Simpson's rule on 0.001-wide steps (error far below the
    /// binomial noise of any count checked here).
    fn normal_mass(a: f64, b: f64) -> f64 {
        let steps = (((b - a) / 1e-3).ceil() as usize).max(2) & !1;
        let h = (b - a) / steps as f64;
        let sum: f64 = (0..=steps)
            .map(|k| {
                let w = match k {
                    0 => 1.0,
                    k if k == steps => 1.0,
                    k if k % 2 == 1 => 4.0,
                    _ => 2.0,
                };
                w * pdf(a + k as f64 * h)
            })
            .sum();
        sum * h / 3.0 / (2.0 * std::f64::consts::PI).sqrt()
    }

    #[test]
    fn tables_match_the_published_ziggurat() {
        let t = tables();
        assert!((t.x[0] - 3.910_757_959_537_09).abs() < 1e-12, "{}", t.x[0]);
        assert!((t.x[2] - 3.449_278_298_560_964).abs() < 1e-12, "{}", t.x[2]);
        assert!(
            (t.x[255] - 0.215_241_895_984_875_6).abs() < 1e-9,
            "{}",
            t.x[255]
        );
        assert!(t.x.windows(2).all(|w| w[0] > w[1]));
        // The top layer's area V closes at the mode: f(x₂₅₅) + V/x₂₅₅ = 1.
        assert!((t.f[LAYERS - 1] + V / t.x[LAYERS - 1] - 1.0).abs() < 1e-9);
        // The share of attempts accepted inside a rectangle (the mean of
        // X[i+1]/X[i]) is what keeps libm off the fast path.
        let fast = (0..LAYERS).map(|i| t.x[i + 1] / t.x[i]).sum::<f64>() / LAYERS as f64;
        assert!((0.984..0.986).contains(&fast), "fast-path share {fast}");
    }

    /// 4·10⁶ deviates, binned 0.1 wide over ±4.5 with one overflow bin
    /// per side: every bin count lies within 5 binomial σ of n·Φ-mass,
    /// and so do the moments and the mass beyond R and beyond 4.
    #[test]
    fn deviates_follow_the_standard_normal() {
        const N: usize = 4_000_000;
        const EDGE: f64 = 4.5;
        const WIDTH: f64 = 0.1;
        let inner = (2.0 * EDGE / WIDTH).round() as usize;
        let mut bins = vec![0u64; inner + 2];
        let (mut sum, mut sum2, mut sum4) = (0.0, 0.0, 0.0);
        let (mut beyond_r, mut beyond_4) = (0u64, 0u64);
        let mut rng = StdRng::seed_from_u64(0x2161_17A7);
        for _ in 0..N {
            let z = standard_normal(&mut rng);
            let bin = if z < -EDGE {
                0
            } else if z >= EDGE {
                inner + 1
            } else {
                1 + (((z + EDGE) / WIDTH) as usize).min(inner - 1)
            };
            bins[bin] += 1;
            let z2 = z * z;
            sum += z;
            sum2 += z2;
            sum4 += z2 * z2;
            beyond_r += u64::from(z.abs() > R);
            beyond_4 += u64::from(z.abs() > 4.0);
        }
        let n = N as f64;
        let within = |count: u64, p: f64, what: &str| {
            let (mean, sd) = (n * p, (n * p * (1.0 - p)).sqrt());
            assert!(
                (count as f64 - mean).abs() <= 5.0 * sd,
                "{what}: {count} vs {mean:.1} ± {sd:.1}"
            );
        };
        let far = 12.0;
        for (b, &count) in bins.iter().enumerate() {
            let (lo, hi) = match b {
                0 => (-far, -EDGE),
                b if b == inner + 1 => (EDGE, far),
                b => {
                    let lo = -EDGE + (b - 1) as f64 * WIDTH;
                    (lo, lo + WIDTH)
                }
            };
            within(
                count,
                normal_mass(lo, hi),
                &format!("bin [{lo:.1}, {hi:.1})"),
            );
        }
        within(beyond_r, 2.0 * normal_mass(R, far), "mass beyond R");
        within(beyond_4, 2.0 * normal_mass(4.0, far), "mass beyond 4");
        // Sampling σ of the mean, E[z²] and E[z⁴]: √(1/n), √(2/n), √(96/n).
        let mean = sum / n;
        assert!(mean.abs() < 5.0 * (1.0 / n).sqrt(), "mean {mean}");
        let var = sum2 / n - mean * mean;
        assert!((var - 1.0).abs() < 5.0 * (2.0 / n).sqrt(), "variance {var}");
        let m4 = sum4 / n;
        assert!(
            (m4 - 3.0).abs() < 5.0 * (96.0 / n).sqrt(),
            "fourth moment {m4}"
        );
    }
}
