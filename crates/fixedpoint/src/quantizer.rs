//! Quantization of `f64` intermediates to a [`QFormat`].

use serde::{Deserialize, Serialize};

use crate::QFormat;

/// How values falling between two representable levels are mapped.
///
/// # Examples
///
/// ```
/// use krigeval_fixedpoint::{QFormat, Quantizer, RoundingMode};
///
/// # fn main() -> Result<(), krigeval_fixedpoint::FixedPointError> {
/// let fmt = QFormat::new(0, 2)?; // step 0.25
/// let trunc = Quantizer::with_modes(fmt, RoundingMode::Truncate, Default::default());
/// let round = Quantizer::with_modes(fmt, RoundingMode::Nearest, Default::default());
/// assert_eq!(trunc.quantize(0.3), 0.25);
/// assert_eq!(round.quantize(0.3), 0.25);
/// assert_eq!(trunc.quantize(-0.3), -0.5);  // truncation is a floor on the grid
/// assert_eq!(round.quantize(-0.3), -0.25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum RoundingMode {
    /// Round to the nearest level, ties away from zero (DSP convention,
    /// matches `(x + (1 << (s-1))) >> s` hardware rounding for positives).
    #[default]
    Nearest,
    /// Two's-complement truncation: floor on the quantization grid.
    Truncate,
    /// Round to nearest, ties to the even level ("convergent" rounding,
    /// removes the small DC bias of [`RoundingMode::Nearest`]).
    NearestEven,
}

/// What happens when a value exceeds the format's dynamic range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum OverflowMode {
    /// Clamp to `[min_value, max_value]` (saturation arithmetic).
    #[default]
    Saturate,
    /// Two's-complement wrap-around.
    Wrap,
}

/// Applies a [`QFormat`] to `f64` values, emulating a fixed-point data path.
///
/// The emulation follows the paper's simulation-based methodology (refs
/// \[12\], \[13\]): every instrumented intermediate of a benchmark kernel is
/// passed through a `Quantizer`, and the output error versus the
/// double-precision reference yields the noise power.
///
/// # Examples
///
/// ```
/// use krigeval_fixedpoint::{QFormat, Quantizer};
///
/// # fn main() -> Result<(), krigeval_fixedpoint::FixedPointError> {
/// let q = Quantizer::new(QFormat::new(0, 3)?);
/// assert_eq!(q.quantize(0.3), 0.25);
/// assert_eq!(q.quantize(10.0), q.format().max_value()); // saturates
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Quantizer {
    format: QFormat,
    rounding: RoundingMode,
    overflow: OverflowMode,
}

impl Quantizer {
    /// Creates a quantizer with the default modes
    /// ([`RoundingMode::Nearest`], [`OverflowMode::Saturate`]).
    pub fn new(format: QFormat) -> Quantizer {
        Quantizer {
            format,
            rounding: RoundingMode::default(),
            overflow: OverflowMode::default(),
        }
    }

    /// Creates a quantizer with explicit rounding and overflow behaviour.
    pub fn with_modes(
        format: QFormat,
        rounding: RoundingMode,
        overflow: OverflowMode,
    ) -> Quantizer {
        Quantizer {
            format,
            rounding,
            overflow,
        }
    }

    /// The target format.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// The rounding mode.
    pub fn rounding(&self) -> RoundingMode {
        self.rounding
    }

    /// The overflow mode.
    pub fn overflow(&self) -> OverflowMode {
        self.overflow
    }

    /// Quantizes one value.
    ///
    /// NaN inputs propagate unchanged (the benchmarks never produce them;
    /// propagating makes failures visible instead of silently saturating).
    pub fn quantize(&self, x: f64) -> f64 {
        if x.is_nan() {
            return x;
        }
        let step = self.format.step();
        // Bitwise equal to `x / step` (see `QFormat::inverse_step`).
        let k = x * self.format.inverse_step();
        let k = match self.rounding {
            RoundingMode::Truncate => k.floor(),
            RoundingMode::Nearest => k.round(), // f64::round = ties away from zero
            RoundingMode::NearestEven => k.round_ties_even(),
        };
        let v = k * step;
        let (lo, hi) = (self.format.min_value(), self.format.max_value());
        match self.overflow {
            OverflowMode::Saturate => v.clamp(lo, hi),
            OverflowMode::Wrap => {
                if (lo..=hi).contains(&v) {
                    v
                } else {
                    let span = hi - lo + step; // 2^(m+1)
                    let wrapped = (v - lo).rem_euclid(span) + lo;
                    // Guard against the representable-edge rounding case.
                    wrapped.clamp(lo, hi)
                }
            }
        }
    }

    /// Quantizes a slice into a fresh vector.
    pub fn quantize_slice(&self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.quantize(x)).collect()
    }

    /// Quantizes a slice in place (reuses the caller's buffer).
    pub fn quantize_in_place(&self, xs: &mut [f64]) {
        for x in xs {
            *x = self.quantize(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt(i: i32, f: i32) -> QFormat {
        QFormat::new(i, f).unwrap()
    }

    #[test]
    fn nearest_rounds_to_grid() {
        let q = Quantizer::new(fmt(0, 2));
        assert_eq!(q.quantize(0.3), 0.25);
        assert_eq!(q.quantize(0.4), 0.5);
        assert_eq!(q.quantize(-0.3), -0.25);
        assert_eq!(q.quantize(0.0), 0.0);
    }

    #[test]
    fn truncate_floors_on_grid() {
        let q = Quantizer::with_modes(fmt(0, 2), RoundingMode::Truncate, OverflowMode::Saturate);
        assert_eq!(q.quantize(0.49), 0.25);
        assert_eq!(q.quantize(-0.01), -0.25);
        assert_eq!(q.quantize(0.25), 0.25); // exact values pass through
    }

    #[test]
    fn nearest_even_breaks_ties_evenly() {
        let q = Quantizer::with_modes(fmt(2, 0), RoundingMode::NearestEven, OverflowMode::Saturate);
        assert_eq!(q.quantize(0.5), 0.0);
        assert_eq!(q.quantize(1.5), 2.0);
        assert_eq!(q.quantize(2.5), 2.0);
        assert_eq!(q.quantize(-0.5), 0.0);
        assert_eq!(q.quantize(-1.5), -2.0);
    }

    #[test]
    fn nearest_even_keeps_the_sign_of_a_negative_tie_to_zero() {
        // IEEE roundTiesToEven maps -0.5 to -0.0, not +0.0.
        let q = Quantizer::with_modes(fmt(2, 0), RoundingMode::NearestEven, OverflowMode::Saturate);
        assert_eq!(q.quantize(-0.5).to_bits(), (-0.0f64).to_bits());
        assert_eq!(q.quantize(0.5).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn saturation_clamps() {
        let q = Quantizer::new(fmt(0, 3));
        assert_eq!(q.quantize(5.0), q.format().max_value());
        assert_eq!(q.quantize(-5.0), -1.0);
    }

    #[test]
    fn wrap_wraps_two_complement() {
        let q = Quantizer::with_modes(fmt(0, 1), RoundingMode::Nearest, OverflowMode::Wrap);
        // Range [-1.0, 0.5], span 2.0. 1.0 wraps to -1.0.
        assert_eq!(q.quantize(1.0), -1.0);
        assert_eq!(q.quantize(1.5), -0.5);
        assert_eq!(q.quantize(-1.5), 0.5);
        // In-range values untouched.
        assert_eq!(q.quantize(0.5), 0.5);
    }

    #[test]
    fn nan_propagates() {
        let q = Quantizer::new(fmt(0, 4));
        assert!(q.quantize(f64::NAN).is_nan());
    }

    #[test]
    fn infinity_saturates() {
        let q = Quantizer::new(fmt(1, 4));
        assert_eq!(q.quantize(f64::INFINITY), q.format().max_value());
        assert_eq!(q.quantize(f64::NEG_INFINITY), q.format().min_value());
    }

    #[test]
    fn slice_helpers_agree() {
        let q = Quantizer::new(fmt(0, 2));
        let xs = [0.1, 0.2, 0.3, -0.7];
        let out = q.quantize_slice(&xs);
        let mut inplace = xs;
        q.quantize_in_place(&mut inplace);
        assert_eq!(out, inplace);
    }

    #[test]
    fn idempotence_on_representable_values() {
        let q = Quantizer::new(fmt(1, 5));
        for i in -64..=63 {
            let v = i as f64 / 32.0;
            assert_eq!(q.quantize(v), v, "value {v} should be a fixed point");
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn quantization_error_bounded_by_step(x in -0.999f64..0.999) {
                let q = Quantizer::new(fmt(0, 8));
                let y = q.quantize(x);
                if x <= q.format().max_value() {
                    // Nearest within the representable range: |err| <= step/2.
                    prop_assert!((y - x).abs() <= q.format().step() / 2.0 + 1e-15);
                } else {
                    // Above max_value (e.g. 0.998 in Q0.8) the quantizer
                    // saturates; the error stays below one full step.
                    prop_assert_eq!(y, q.format().max_value());
                    prop_assert!((y - x).abs() < q.format().step());
                }
            }

            #[test]
            fn truncation_error_bounded_and_negative_biased(x in -0.999f64..0.999) {
                let q = Quantizer::with_modes(
                    fmt(0, 8), RoundingMode::Truncate, OverflowMode::Saturate);
                let y = q.quantize(x);
                prop_assert!(y <= x + 1e-15);
                prop_assert!(x - y < q.format().step() + 1e-15);
            }

            #[test]
            fn quantize_is_idempotent(x in -4.0f64..4.0) {
                let q = Quantizer::new(fmt(2, 6));
                let once = q.quantize(x);
                prop_assert_eq!(q.quantize(once), once);
            }

            #[test]
            fn output_is_always_in_range(x in -1e6f64..1e6) {
                for overflow in [OverflowMode::Saturate, OverflowMode::Wrap] {
                    let q = Quantizer::with_modes(fmt(3, 4), RoundingMode::Nearest, overflow);
                    let y = q.quantize(x);
                    prop_assert!(y >= q.format().min_value() - 1e-12);
                    prop_assert!(y <= q.format().max_value() + 1e-12);
                }
            }

            #[test]
            fn monotone_in_word_length(x in -0.999f64..0.999, w1 in 4i32..12, extra in 1i32..8) {
                // More fractional bits can only shrink the worst-case error.
                let narrow = Quantizer::new(QFormat::with_word_length(0, w1).unwrap());
                let wide = Quantizer::new(QFormat::with_word_length(0, w1 + extra).unwrap());
                let en = (narrow.quantize(x) - x).abs();
                let ew = (wide.quantize(x) - x).abs();
                // Pointwise the wide error is bounded by step_w/2 <= step_n/2.
                prop_assert!(ew <= narrow.format().step() / 2.0 + 1e-15);
                let _ = en;
            }
        }
    }
}
