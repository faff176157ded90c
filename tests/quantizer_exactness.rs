//! Exactness oracle for the quantizer's power-of-two fast path.
//!
//! `QFormat` builds its step, bounds and the reciprocal of the step from
//! exponent bits, and `Quantizer::quantize` multiplies by the reciprocal
//! instead of dividing by the step. These tests check, over every legal
//! format, every rounding and overflow mode and a battery of awkward
//! inputs, that the result is bitwise the one the division-and-`powi`
//! formulation gives. That formulation is kept below as the oracle.

use krigeval::fixedpoint::{OverflowMode, QFormat, Quantizer, RoundingMode};

const ROUNDINGS: [RoundingMode; 3] = [
    RoundingMode::Nearest,
    RoundingMode::Truncate,
    RoundingMode::NearestEven,
];
const OVERFLOWS: [OverflowMode; 2] = [OverflowMode::Saturate, OverflowMode::Wrap];

/// Every legal format: integer bits 0..=62, word length 1..=63.
fn all_formats() -> Vec<QFormat> {
    let mut formats = Vec::new();
    for integer_bits in 0..=62 {
        for word_length in 1..=QFormat::MAX_WORD_LENGTH {
            formats.push(QFormat::with_word_length(integer_bits, word_length).unwrap());
        }
    }
    formats
}

/// The quantizer as it was written before the fast path: divide by a
/// `powi`-built step and clamp to `powi`-built bounds. Ties-to-even uses
/// the standard library's IEEE rounding (the quantizer's own hand-rolled
/// version returned `+0.0` for `-0.5`; that sign fix is deliberate).
fn oracle(format: QFormat, rounding: RoundingMode, overflow: OverflowMode, x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    let step = 2f64.powi(-format.fractional_bits());
    let k = x / step;
    let k = match rounding {
        RoundingMode::Truncate => k.floor(),
        RoundingMode::Nearest => k.round(),
        RoundingMode::NearestEven => k.round_ties_even(),
    };
    let v = k * step;
    let lo = -(2f64.powi(format.integer_bits()));
    let hi = 2f64.powi(format.integer_bits()) - step;
    match overflow {
        OverflowMode::Saturate => v.clamp(lo, hi),
        OverflowMode::Wrap => {
            if (lo..=hi).contains(&v) {
                v
            } else {
                let span = hi - lo + step;
                let wrapped = (v - lo).rem_euclid(span) + lo;
                wrapped.clamp(lo, hi)
            }
        }
    }
}

/// SplitMix64: a tiny deterministic generator for the random inputs.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Format-independent special values.
fn specials() -> Vec<f64> {
    let tiny = f64::from_bits(1);
    let largest_subnormal = f64::from_bits(0x000F_FFFF_FFFF_FFFF);
    let mut xs = vec![
        f64::INFINITY,
        f64::NAN,
        f64::MAX,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        tiny,
        largest_subnormal,
        0.5,
        1.5,
        2.5,
    ];
    let negated: Vec<f64> = xs.iter().map(|x| -x).collect();
    xs.extend(negated);
    xs.extend([0.0, -0.0]);
    xs
}

/// Inputs tied to one format: exact `.5` ties on its grid and values at
/// and just past both range edges.
fn format_inputs(format: QFormat, rng: &mut SplitMix) -> Vec<f64> {
    let (step, lo, hi) = (format.step(), format.min_value(), format.max_value());
    let mut xs = Vec::new();
    for k in -3..=3 {
        xs.push((k as f64 + 0.5) * step);
    }
    for edge in [lo, hi] {
        xs.extend([
            edge,
            edge - step,
            edge + step,
            edge - step / 2.0,
            edge + step / 2.0,
            f64::from_bits(edge.to_bits() + 1),
            f64::from_bits(edge.to_bits().saturating_sub(1)),
            edge * 2.0,
            edge * 3.0 + step / 2.0,
        ]);
    }
    for _ in 0..24 {
        // Mostly in and around the range, plus raw bit patterns of every
        // magnitude.
        xs.push(rng.unit() * 3.0 * -lo);
        xs.push(rng.unit() * 8.0 * step);
        xs.push(f64::from_bits(rng.next()));
    }
    xs
}

#[test]
fn power_of_two_format_values_match_powi() {
    for format in all_formats() {
        let (m, f) = (format.integer_bits(), format.fractional_bits());
        let step = 2f64.powi(-f);
        assert_eq!(format.step().to_bits(), step.to_bits(), "{format} step");
        assert_eq!(
            format.inverse_step().to_bits(),
            2f64.powi(f).to_bits(),
            "{format} inverse_step"
        );
        assert_eq!(
            format.min_value().to_bits(),
            (-(2f64.powi(m))).to_bits(),
            "{format} min_value"
        );
        assert_eq!(
            format.max_value().to_bits(),
            (2f64.powi(m) - step).to_bits(),
            "{format} max_value"
        );
        assert_eq!(format.step() * format.inverse_step(), 1.0, "{format}");
    }
}

#[test]
fn quantize_is_bitwise_equal_to_the_division_oracle() {
    let mut rng = SplitMix(0x0051_A7E5_EED5_0001);
    let specials = specials();
    for format in all_formats() {
        let mut xs = format_inputs(format, &mut rng);
        xs.extend_from_slice(&specials);
        for rounding in ROUNDINGS {
            for overflow in OVERFLOWS {
                let q = Quantizer::with_modes(format, rounding, overflow);
                for &x in &xs {
                    let got = q.quantize(x);
                    let want = oracle(format, rounding, overflow, x);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{format} {rounding:?} {overflow:?} x={x:e}: {got:e} != {want:e}"
                    );
                }
            }
        }
    }
}
