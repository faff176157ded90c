//! HEVC motion-compensation benchmark (paper Table I, `Nv = 23`).
//!
//! The paper's fourth benchmark is "the 2-D motion compensation module of an
//! HEVC codec", processing 8×8 pixel blocks with the standard's separable
//! 8-tap fractional-pel interpolation filters, with **23 variables** in the
//! word-length optimization.
//!
//! We rebuild that module from the HEVC luma filter definition (the actual
//! HM reference software is a substitution documented in `DESIGN.md`):
//! quarter/half/three-quarter-pel 8-tap filters applied horizontally then
//! vertically, on smooth synthetic image content. The 23 instrumented
//! word-length sites are:
//!
//! | index | site |
//! |-------|------|
//! | 0–7   | horizontal tap products |
//! | 8     | horizontal accumulator |
//! | 9     | horizontal intermediate row output |
//! | 10–17 | vertical tap products |
//! | 18    | vertical accumulator |
//! | 19    | vertical (2-D path) output |
//! | 20    | horizontal-only path output (`dy = 0`) |
//! | 21    | vertical-only path output (`dx = 0`) |
//! | 22    | final output register (all paths) |

use krigeval_fixedpoint::{NoiseMeter, NoisePower, QFormat, Quantizer};

use crate::signal::smooth_image;
use crate::{KernelError, WordLengthBenchmark};

/// Number of instrumented word-length sites.
pub const NUM_VARIABLES: usize = 23;
/// Block edge length in pixels.
pub const BLOCK: usize = 8;
/// Filter length.
pub const TAPS: usize = 8;

/// Pixels in one output block.
const BLOCK_PIXELS: usize = BLOCK * BLOCK;

/// HEVC luma interpolation filter coefficients (×1/64) for quarter-pel
/// phases 1–3 (phase 0 is the integer-pel identity).
pub const LUMA_FILTERS: [[f64; TAPS]; 3] = [
    // phase 1 (quarter-pel)
    [-1.0, 4.0, -10.0, 58.0, 17.0, -5.0, 1.0, 0.0],
    // phase 2 (half-pel)
    [-1.0, 4.0, -11.0, 40.0, 40.0, -11.0, 4.0, -1.0],
    // phase 3 (three-quarter-pel)
    [0.0, 1.0, -5.0, 17.0, 58.0, -10.0, 4.0, -1.0],
];

/// One motion-compensation job: block origin and fractional-pel phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McJob {
    /// Block top-left x in the source image (must leave a 3/4-pixel margin).
    pub x: usize,
    /// Block top-left y in the source image.
    pub y: usize,
    /// Horizontal quarter-pel phase, 0–3.
    pub frac_x: u8,
    /// Vertical quarter-pel phase, 0–3.
    pub frac_y: u8,
}

/// The HEVC-style motion-compensation benchmark.
///
/// # Examples
///
/// ```
/// use krigeval_kernels::{hevc::HevcMcBenchmark, WordLengthBenchmark};
///
/// # fn main() -> Result<(), krigeval_kernels::KernelError> {
/// let mc = HevcMcBenchmark::with_defaults();
/// assert_eq!(mc.num_variables(), 23);
/// let p = mc.noise_power(&vec![12; 23])?;
/// assert!(p.db() < -40.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct HevcMcBenchmark {
    image: Vec<Vec<f64>>,
    jobs: Vec<McJob>,
    references: Vec<[f64; BLOCK_PIXELS]>,
}

impl HevcMcBenchmark {
    /// Paper-faithful configuration: a 96×96 smooth synthetic frame and 24
    /// blocks covering all three fractional-pel paths.
    pub fn with_defaults() -> HevcMcBenchmark {
        HevcMcBenchmark::new(96, 24, 0x4EC0_0004)
    }

    /// Builds the benchmark on a `size × size` smooth image with
    /// `num_blocks` jobs cycling through fractional phases.
    ///
    /// # Panics
    ///
    /// Panics if `size < 32` (too small to place blocks with filter margins)
    /// or `num_blocks == 0`.
    pub fn new(size: usize, num_blocks: usize, seed: u64) -> HevcMcBenchmark {
        assert!(size >= 32, "image too small for blocks plus filter margins");
        assert!(num_blocks > 0, "need at least one block");
        let image = smooth_image(seed, size, size, 6);
        // Deterministic job placement: stride across the image, cycle the
        // nine (frac_x, frac_y) combinations that exercise all three paths.
        let phases: [(u8, u8); 9] = [
            (2, 2),
            (1, 0),
            (0, 1),
            (3, 2),
            (2, 0),
            (0, 3),
            (1, 3),
            (2, 1),
            (3, 3),
        ];
        let usable = size - BLOCK - TAPS; // margin for the 8-tap window
        let jobs: Vec<McJob> = (0..num_blocks)
            .map(|i| {
                let (frac_x, frac_y) = phases[i % phases.len()];
                McJob {
                    x: 4 + (i * 13) % usable.max(1),
                    y: 4 + (i * 29) % usable.max(1),
                    frac_x,
                    frac_y,
                }
            })
            .collect();
        let references = jobs
            .iter()
            .map(|job| interpolate_block(&image, *job, &Passthrough))
            .collect();
        HevcMcBenchmark {
            image,
            jobs,
            references,
        }
    }

    /// The motion-compensation jobs in the data set.
    pub fn jobs(&self) -> &[McJob] {
        &self.jobs
    }
}

/// Quantization hooks for the interpolation data path. The reference path
/// uses [`Passthrough`]; the fixed-point path uses [`SiteQuantizers`].
trait McQuant {
    fn product(&self, tap: usize, vertical: bool, v: f64) -> f64;
    fn accumulator(&self, vertical: bool, v: f64) -> f64;
    fn h_intermediate(&self, v: f64) -> f64;
    fn path_output(&self, path: McPath, v: f64) -> f64;
    fn output(&self, v: f64) -> f64;
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum McPath {
    TwoD,
    HorizontalOnly,
    VerticalOnly,
}

struct Passthrough;

impl McQuant for Passthrough {
    fn product(&self, _: usize, _: bool, v: f64) -> f64 {
        v
    }
    fn accumulator(&self, _: bool, v: f64) -> f64 {
        v
    }
    fn h_intermediate(&self, v: f64) -> f64 {
        v
    }
    fn path_output(&self, _: McPath, v: f64) -> f64 {
        v
    }
    fn output(&self, v: f64) -> f64 {
        v
    }
}

struct SiteQuantizers {
    h_products: Vec<Quantizer>,
    h_acc: Quantizer,
    h_out: Quantizer,
    v_products: Vec<Quantizer>,
    v_acc: Quantizer,
    v_out: Quantizer,
    h_only_out: Quantizer,
    v_only_out: Quantizer,
    final_out: Quantizer,
}

impl SiteQuantizers {
    fn from_word_lengths(w: &[i32]) -> Result<SiteQuantizers, KernelError> {
        // Pixels are in [0, 1); tap products stay below 58/64 in magnitude
        // (0 integer bits); accumulators need Σ|h| ≈ 1.75 of headroom
        // (1 integer bit); stage outputs are near-pixel-range (1 integer bit
        // of headroom for filter overshoot).
        let q0 = |wl: i32| -> Result<Quantizer, KernelError> {
            Ok(Quantizer::new(QFormat::with_word_length(0, wl)?))
        };
        let q1 = |wl: i32| -> Result<Quantizer, KernelError> {
            Ok(Quantizer::new(QFormat::with_word_length(1, wl)?))
        };
        Ok(SiteQuantizers {
            h_products: w[0..8].iter().map(|&x| q0(x)).collect::<Result<_, _>>()?,
            h_acc: q1(w[8])?,
            h_out: q1(w[9])?,
            v_products: w[10..18].iter().map(|&x| q0(x)).collect::<Result<_, _>>()?,
            v_acc: q1(w[18])?,
            v_out: q1(w[19])?,
            h_only_out: q1(w[20])?,
            v_only_out: q1(w[21])?,
            final_out: q1(w[22])?,
        })
    }
}

impl McQuant for SiteQuantizers {
    fn product(&self, tap: usize, vertical: bool, v: f64) -> f64 {
        if vertical {
            self.v_products[tap].quantize(v)
        } else {
            self.h_products[tap].quantize(v)
        }
    }
    fn accumulator(&self, vertical: bool, v: f64) -> f64 {
        if vertical {
            self.v_acc.quantize(v)
        } else {
            self.h_acc.quantize(v)
        }
    }
    fn h_intermediate(&self, v: f64) -> f64 {
        self.h_out.quantize(v)
    }
    fn path_output(&self, path: McPath, v: f64) -> f64 {
        match path {
            McPath::TwoD => self.v_out.quantize(v),
            McPath::HorizontalOnly => self.h_only_out.quantize(v),
            McPath::VerticalOnly => self.v_only_out.quantize(v),
        }
    }
    fn output(&self, v: f64) -> f64 {
        self.final_out.quantize(v)
    }
}

/// 8-tap filter at one position, with per-tap product and accumulator hooks.
fn filter8<Q: McQuant>(samples: &[f64], taps: &[f64; TAPS], vertical: bool, q: &Q) -> f64 {
    let mut acc = 0.0;
    for (t, &h) in taps.iter().enumerate() {
        // `h * 2⁻⁶` is exactly `h / 64`.
        let product = q.product(t, vertical, h * (1.0 / 64.0) * samples[t]);
        acc = q.accumulator(vertical, acc + product);
    }
    acc
}

/// Interpolates one 8×8 block (the module under test), row-major.
fn interpolate_block<Q: McQuant>(image: &[Vec<f64>], job: McJob, q: &Q) -> [f64; BLOCK_PIXELS] {
    let fx = job.frac_x as usize;
    let fy = job.frac_y as usize;
    let mut out = [0.0; BLOCK_PIXELS];
    match (fx, fy) {
        (0, 0) => {
            for dy in 0..BLOCK {
                for dx in 0..BLOCK {
                    out[dy * BLOCK + dx] = q.output(image[job.y + dy][job.x + dx]);
                }
            }
        }
        (_, 0) => {
            let taps = &LUMA_FILTERS[fx - 1];
            for dy in 0..BLOCK {
                let row = &image[job.y + dy];
                for dx in 0..BLOCK {
                    let window = &row[job.x + dx - 3..job.x + dx + 5];
                    let v = filter8(window, taps, false, q);
                    let v = q.path_output(McPath::HorizontalOnly, v);
                    out[dy * BLOCK + dx] = q.output(v);
                }
            }
        }
        (0, _) => {
            let taps = &LUMA_FILTERS[fy - 1];
            for dy in 0..BLOCK {
                for dx in 0..BLOCK {
                    let col: [f64; TAPS] =
                        std::array::from_fn(|t| image[job.y + dy + t - 3][job.x + dx]);
                    let v = filter8(&col, taps, true, q);
                    let v = q.path_output(McPath::VerticalOnly, v);
                    out[dy * BLOCK + dx] = q.output(v);
                }
            }
        }
        (_, _) => {
            let h_taps = &LUMA_FILTERS[fx - 1];
            let v_taps = &LUMA_FILTERS[fy - 1];
            // Horizontal pass over BLOCK + 7 rows.
            let mut intermediate = [[0.0; BLOCK]; BLOCK + TAPS - 1];
            for (r, row_out) in intermediate.iter_mut().enumerate() {
                let row = &image[job.y + r - 3];
                for (dx, cell) in row_out.iter_mut().enumerate() {
                    let window = &row[job.x + dx - 3..job.x + dx + 5];
                    let v = filter8(window, h_taps, false, q);
                    *cell = q.h_intermediate(v);
                }
            }
            // Vertical pass.
            for dy in 0..BLOCK {
                for dx in 0..BLOCK {
                    let col: [f64; TAPS] = std::array::from_fn(|t| intermediate[dy + t][dx]);
                    let v = filter8(&col, v_taps, true, q);
                    let v = q.path_output(McPath::TwoD, v);
                    out[dy * BLOCK + dx] = q.output(v);
                }
            }
        }
    }
    out
}

impl WordLengthBenchmark for HevcMcBenchmark {
    fn name(&self) -> &str {
        "hevc_mc"
    }

    fn num_variables(&self) -> usize {
        NUM_VARIABLES
    }

    fn noise_power(&self, word_lengths: &[i32]) -> Result<NoisePower, KernelError> {
        self.validate(word_lengths)?;
        let quantizers = SiteQuantizers::from_word_lengths(word_lengths)?;
        let mut meter = NoiseMeter::new();
        for (job, reference) in self.jobs.iter().zip(&self.references) {
            let approx = interpolate_block(&self.image, *job, &quantizers);
            meter.record_slices(reference, &approx);
        }
        Ok(meter.noise_power())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> HevcMcBenchmark {
        HevcMcBenchmark::new(48, 9, 0x4EC0_0004)
    }

    #[test]
    fn filters_have_unit_dc_gain() {
        for f in &LUMA_FILTERS {
            let sum: f64 = f.iter().sum();
            assert!((sum - 64.0).abs() < 1e-12, "{f:?}");
        }
    }

    #[test]
    fn half_pel_filter_is_symmetric() {
        let f = &LUMA_FILTERS[1];
        for i in 0..TAPS / 2 {
            assert_eq!(f[i], f[TAPS - 1 - i]);
        }
    }

    #[test]
    fn quarter_and_three_quarter_are_mirrors() {
        for i in 0..TAPS {
            assert_eq!(LUMA_FILTERS[0][i], LUMA_FILTERS[2][TAPS - 1 - i]);
        }
    }

    #[test]
    fn has_23_variables() {
        assert_eq!(small().num_variables(), 23);
    }

    #[test]
    fn interpolating_a_constant_image_returns_the_constant() {
        let image = vec![vec![0.5; 48]; 48];
        let job = McJob {
            x: 8,
            y: 8,
            frac_x: 2,
            frac_y: 2,
        };
        let out = interpolate_block(&image, job, &Passthrough);
        for v in out {
            assert!((v - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn all_three_paths_are_exercised() {
        let b = small();
        let has = |f: fn(&McJob) -> bool| b.jobs().iter().any(f);
        assert!(has(|j| j.frac_x > 0 && j.frac_y > 0), "2-D path missing");
        assert!(has(|j| j.frac_x > 0 && j.frac_y == 0), "H path missing");
        assert!(has(|j| j.frac_x == 0 && j.frac_y > 0), "V path missing");
    }

    #[test]
    fn noise_decreases_with_word_length() {
        let b = small();
        let mut prev = f64::INFINITY;
        for w in [6, 8, 10, 12] {
            let db = b.noise_power(&[w; 23]).unwrap().db();
            assert!(db < prev, "w={w}: {db} !< {prev}");
            prev = db;
        }
    }

    #[test]
    fn validates_shape() {
        let b = small();
        assert!(b.noise_power(&[10; 22]).is_err());
        assert!(b.noise_power(&[10; 24]).is_err());
        let mut w = vec![10; 23];
        w[5] = 99;
        assert!(b.noise_power(&w).is_err());
    }

    #[test]
    fn deterministic() {
        let b = small();
        let w: Vec<i32> = (0..23).map(|i| 8 + (i % 5)).collect();
        assert_eq!(
            b.noise_power(&w).unwrap().linear(),
            b.noise_power(&w).unwrap().linear()
        );
    }

    #[test]
    fn narrowing_one_site_changes_noise() {
        let b = small();
        let base = b.noise_power(&[14; 23]).unwrap().db();
        let mut w = vec![14; 23];
        w[22] = 6; // final output register
        let narrowed = b.noise_power(&w).unwrap().db();
        assert!(narrowed > base + 6.0, "base {base}, narrowed {narrowed}");
    }
}
