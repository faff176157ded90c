//! 64-point FFT benchmark (paper Table I, `Nv = 10`).
//!
//! Radix-2 decimation-in-time FFT over 64 complex points (6 butterfly
//! stages), with per-stage 1/2 scaling — the classic fixed-point FFT
//! realization that keeps every intermediate inside `(−1, 1)`.
//!
//! Ten word-lengths are optimized, matching the paper's `Nv = 10`:
//!
//! * variables 0–5: the butterfly adder/subtractor output word-length of
//!   each of the 6 stages;
//! * variables 6–9: the twiddle-multiplier output word-length of stages
//!   2–5 (stages 0 and 1 only multiply by ±1 and ∓j, which are exact).
//!
//! # Checkpoints
//!
//! The output after stage `s` depends only on the adder word lengths of
//! stages `0..=s` and the twiddle word lengths of stages `2..=s`: a prefix
//! of the pipeline. `noise_power` keeps the all-frame output of every
//! stage for the last configuration and restarts from the longest stage
//! prefix the new configuration shares with it; the `Q0.15` input
//! quantization and the bit-reverse permutation are done once, at
//! construction. Each frame's values go through the same operations in
//! the same order whatever the frame loop's position, and the noise meter
//! records them frame by frame as before, so results are bit-exact. The
//! checkpoints hold `6 × frames × 1 KiB`: 48 KiB at fast scale (8
//! frames), 384 KiB at paper scale (64 frames).

use std::f64::consts::PI;
use std::sync::OnceLock;

use krigeval_fixedpoint::{NoiseMeter, NoisePower, QFormat, Quantizer};

use crate::memo::{MemoCell, StageMemo};
use crate::signal::complex_white_noise;
use crate::{KernelError, WordLengthBenchmark};

/// Number of complex points (fixed at 64, as in the paper).
pub const FFT_SIZE: usize = 64;
/// Number of butterfly stages (`log2(FFT_SIZE)`).
pub const STAGES: usize = 6;
/// Stages whose twiddle factors are non-trivial and therefore quantized.
pub const TWIDDLE_STAGES: std::ops::Range<usize> = 2..6;

/// Complex value as a `(re, im)` pair.
pub type Complex = (f64, f64);

/// Number of word-length variables: one adder per stage plus one twiddle
/// multiplier per non-trivial stage.
const NUM_VARIABLES: usize = STAGES + (TWIDDLE_STAGES.end - TWIDDLE_STAGES.start);

/// The 64-point fixed-point FFT benchmark.
///
/// # Examples
///
/// ```
/// use krigeval_kernels::{fft::FftBenchmark, WordLengthBenchmark};
///
/// # fn main() -> Result<(), krigeval_kernels::KernelError> {
/// let fft = FftBenchmark::with_defaults();
/// assert_eq!(fft.num_variables(), 10);
/// let p = fft.noise_power(&[12; 10])?;
/// assert!(p.db() < -40.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FftBenchmark {
    /// `Q0.15`-quantized, bit-reverse-permuted input frames, back to back:
    /// every configuration starts from these.
    inputs: Vec<Complex>,
    /// Double-precision outputs, back to back in frame order.
    references: Vec<Complex>,
    checkpoints: MemoCell<Checkpoints>,
}

/// The all-frame output of every stage for the last configuration, each
/// under the word lengths it depends on ([`stage_key`]).
#[derive(Debug)]
struct Checkpoints([StageMemo<[i32; NUM_VARIABLES], Vec<Complex>>; STAGES]);

impl Default for Checkpoints {
    fn default() -> Checkpoints {
        Checkpoints(std::array::from_fn(|_| StageMemo::new(1)))
    }
}

/// The word lengths the output of `stage` depends on, with every later
/// stage's site masked to 0 (never a valid word length).
fn stage_key(word_lengths: &[i32], stage: usize) -> [i32; NUM_VARIABLES] {
    std::array::from_fn(|i| {
        let site_stage = if i < STAGES {
            i
        } else {
            TWIDDLE_STAGES.start + (i - STAGES)
        };
        if site_stage <= stage {
            word_lengths[i]
        } else {
            0
        }
    })
}

impl FftBenchmark {
    /// Paper-faithful configuration: 64 frames of 64 complex white-noise
    /// points from a fixed seed.
    pub fn with_defaults() -> FftBenchmark {
        FftBenchmark::new(64, 0xFF7_0003)
    }

    /// Builds the benchmark with `num_frames` input frames from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `num_frames == 0`.
    pub fn new(num_frames: usize, seed: u64) -> FftBenchmark {
        assert!(num_frames > 0, "need at least one input frame");
        let frames = input_frames(num_frames, seed);
        let q_in = Quantizer::new(QFormat::new(0, 15).expect("Q0.15 is a valid format"));
        let inputs = frames
            .iter()
            .flat_map(|frame| {
                let quantized: Vec<Complex> = frame
                    .iter()
                    .map(|&(re, im)| (q_in.quantize(re), q_in.quantize(im)))
                    .collect();
                bit_reverse_permute(&quantized)
            })
            .collect();
        let references = frames.iter().flat_map(|f| fft_reference(f)).collect();
        FftBenchmark {
            inputs,
            references,
            checkpoints: MemoCell::new(),
        }
    }

    /// Number of input frames in the data set.
    pub fn num_frames(&self) -> usize {
        self.references.len() / FFT_SIZE
    }
}

/// The benchmark's `num_frames` white-noise input frames from `seed`.
fn input_frames(num_frames: usize, seed: u64) -> Vec<Vec<Complex>> {
    (0..num_frames)
        .map(|i| complex_white_noise(seed.wrapping_add(i as u64), FFT_SIZE, 0.95))
        .collect()
}

/// Double-precision scaled FFT (the reference path): radix-2 DIT with the
/// same 1/2 per-stage scaling as the fixed-point path, so both compute
/// `X[k] / N`.
///
/// # Panics
///
/// Panics if `input.len() != FFT_SIZE`.
///
/// # Examples
///
/// ```
/// use krigeval_kernels::fft::{fft_reference, FFT_SIZE};
///
/// // FFT of a DC signal: all energy lands in bin 0 (scaled by 1/N · N = 1).
/// let dc = vec![(1.0, 0.0); FFT_SIZE];
/// let x = fft_reference(&dc);
/// assert!((x[0].0 - 1.0).abs() < 1e-12);
/// assert!(x[1..].iter().all(|(re, im)| re.abs() < 1e-12 && im.abs() < 1e-12));
/// ```
pub fn fft_reference(input: &[Complex]) -> Vec<Complex> {
    assert_eq!(input.len(), FFT_SIZE, "expected {FFT_SIZE} points");
    let mut data = bit_reverse_permute(input);
    for stage in 0..STAGES {
        run_stage(&mut data, stage, |v| v, |v| v);
    }
    data
}

/// Naive `O(N²)` DFT of the same scaled transform, for testing the fast path.
///
/// # Panics
///
/// Panics if `input.len() != FFT_SIZE`.
pub fn dft_naive(input: &[Complex]) -> Vec<Complex> {
    assert_eq!(input.len(), FFT_SIZE, "expected {FFT_SIZE} points");
    let n = input.len();
    (0..n)
        .map(|k| {
            let (mut re, mut im) = (0.0, 0.0);
            for (t, &(xr, xi)) in input.iter().enumerate() {
                let ang = -2.0 * PI * (k * t) as f64 / n as f64;
                let (c, s) = (ang.cos(), ang.sin());
                re += xr * c - xi * s;
                im += xr * s + xi * c;
            }
            (re / n as f64, im / n as f64)
        })
        .collect()
}

fn bit_reverse_permute(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    let bits = n.trailing_zeros();
    let mut out = vec![(0.0, 0.0); n];
    for (i, &v) in input.iter().enumerate() {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        out[j] = v;
    }
    out
}

/// The twiddle factors of every stage: stage `s` owns entries
/// `2^s − 1 .. 2^(s+1) − 1`, entry `k` being `e^(−2πjk / 2^(s+1))`. Each is
/// the `cos`/`sin` of the same angle expression the butterflies evaluate,
/// so the table is bit-identical to computing it inline.
fn twiddles() -> &'static [Complex; FFT_SIZE - 1] {
    static TABLE: OnceLock<[Complex; FFT_SIZE - 1]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [(0.0, 0.0); FFT_SIZE - 1];
        for stage in 0..STAGES {
            let half = 1 << stage;
            let span = half << 1;
            for k in 0..half {
                let ang = -2.0 * PI * k as f64 / span as f64;
                table[half - 1 + k] = (ang.cos(), ang.sin());
            }
        }
        table
    })
}

/// Runs one DIT stage in place over whole frames (`data.len()` a multiple
/// of `FFT_SIZE`). `q_mpy` quantizes twiddle-product components of the
/// twiddle stages, `q_add` butterfly-output components; the identity
/// closures give the double-precision reference.
fn run_stage(
    data: &mut [Complex],
    stage: usize,
    q_mpy: impl Fn(f64) -> f64,
    q_add: impl Fn(f64) -> f64,
) {
    let half = 1 << stage; // butterflies per group
    let span = half << 1; // group size
    let twiddles = &twiddles()[half - 1..span - 1];
    for group in data.chunks_exact_mut(span) {
        let (tops, bottoms) = group.split_at_mut(half);
        for ((top, bottom), &(wr, wi)) in tops.iter_mut().zip(bottoms).zip(twiddles) {
            let (ar, ai) = *top;
            let (br, bi) = *bottom;
            // Twiddle product; trivial for stages whose twiddles are ±1/∓j.
            let (tr, ti) = if stage < TWIDDLE_STAGES.start {
                // w ∈ {1, -j}: exact data moves, no rounding in hardware.
                (br * wr - bi * wi, br * wi + bi * wr)
            } else {
                (q_mpy(br * wr - bi * wi), q_mpy(br * wi + bi * wr))
            };
            // Butterfly with 1/2 scaling to prevent overflow.
            *top = (q_add((ar + tr) * 0.5), q_add((ai + ti) * 0.5));
            *bottom = (q_add((ar - tr) * 0.5), q_add((ai - ti) * 0.5));
        }
    }
}

impl WordLengthBenchmark for FftBenchmark {
    fn name(&self) -> &str {
        "fft64"
    }

    fn num_variables(&self) -> usize {
        NUM_VARIABLES
    }

    fn noise_power(&self, word_lengths: &[i32]) -> Result<NoisePower, KernelError> {
        self.validate(word_lengths)?;
        // Scaled data stays in (−1, 1): 0 integer bits everywhere.
        let add_q: Vec<Quantizer> = (0..STAGES)
            .map(|s| {
                Ok(Quantizer::new(QFormat::with_word_length(
                    0,
                    word_lengths[s],
                )?))
            })
            .collect::<Result<_, KernelError>>()?;
        let mpy_q: Vec<Quantizer> = TWIDDLE_STAGES
            .map(|s| {
                let idx = STAGES + (s - TWIDDLE_STAGES.start);
                Ok(Quantizer::new(QFormat::with_word_length(
                    0,
                    word_lengths[idx],
                )?))
            })
            .collect::<Result<_, KernelError>>()?;
        let keys: [_; STAGES] = std::array::from_fn(|s| stage_key(word_lengths, s));

        self.checkpoints.with(|Checkpoints(stages)| {
            // Every stored checkpoint belongs to the last configuration, and
            // a longer prefix key contains every shorter one: the stages
            // above the highest hit all miss.
            let done = (0..STAGES)
                .rev()
                .find(|&s| stages[s].get(&keys[s]).is_some())
                .map_or(0, |s| s + 1);
            for s in done..STAGES {
                let mut data = match s {
                    0 => self.inputs.clone(),
                    _ => stages[s - 1]
                        .get(&keys[s - 1])
                        .expect("the previous stage was just matched or stored")
                        .clone(),
                };
                run_stage(
                    &mut data,
                    s,
                    |v| mpy_q[s - TWIDDLE_STAGES.start].quantize(v),
                    |v| add_q[s].quantize(v),
                );
                stages[s].get_or_insert_with(keys[s], || data);
            }
            let output = stages[STAGES - 1]
                .get(&keys[STAGES - 1])
                .expect("the last stage was just matched or stored");
            let mut meter = NoiseMeter::new();
            for (&(fr, fi), &(rr, ri)) in output.iter().zip(&self.references) {
                meter.record(rr, fr);
                meter.record(ri, fi);
            }
            Ok(meter.noise_power())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small() -> FftBenchmark {
        FftBenchmark::new(8, 0xFF7_0003)
    }

    /// The unstaged stage loop, twiddles computed per butterfly.
    fn oracle_stage(
        data: &mut [Complex],
        stage: usize,
        q_mpy: &mut dyn FnMut(usize, f64) -> f64,
        q_add: &mut dyn FnMut(usize, f64) -> f64,
    ) {
        let n = data.len();
        let half = 1 << stage;
        let span = half << 1;
        for group in (0..n).step_by(span) {
            for k in 0..half {
                let ang = -2.0 * PI * k as f64 / span as f64;
                let (wr, wi) = (ang.cos(), ang.sin());
                let (ar, ai) = data[group + k];
                let (br, bi) = data[group + k + half];
                let (tr, ti) = if stage < TWIDDLE_STAGES.start {
                    (br * wr - bi * wi, br * wi + bi * wr)
                } else {
                    (
                        q_mpy(stage, br * wr - bi * wi),
                        q_mpy(stage, br * wi + bi * wr),
                    )
                };
                data[group + k] = (q_add(stage, (ar + tr) * 0.5), q_add(stage, (ai + ti) * 0.5));
                data[group + k + half] =
                    (q_add(stage, (ar - tr) * 0.5), q_add(stage, (ai - ti) * 0.5));
            }
        }
    }

    fn oracle_reference(input: &[Complex]) -> Vec<Complex> {
        let mut data = bit_reverse_permute(input);
        for stage in 0..STAGES {
            oracle_stage(&mut data, stage, &mut |_, v| v, &mut |_, v| v);
        }
        data
    }

    /// The unstaged noise power: each frame quantized, permuted and
    /// transformed afresh on every call.
    fn oracle_noise_power(frames: &[Vec<Complex>], w: &[i32]) -> NoisePower {
        let q = |wl: i32| Quantizer::new(QFormat::with_word_length(0, wl).unwrap());
        let add_q: Vec<Quantizer> = (0..STAGES).map(|s| q(w[s])).collect();
        let mpy_q: Vec<Quantizer> = TWIDDLE_STAGES
            .map(|s| q(w[STAGES + s - TWIDDLE_STAGES.start]))
            .collect();
        let q_in = Quantizer::new(QFormat::new(0, 15).unwrap());
        let mut meter = NoiseMeter::new();
        for frame in frames {
            let reference = oracle_reference(frame);
            let quantized: Vec<Complex> = frame
                .iter()
                .map(|&(re, im)| (q_in.quantize(re), q_in.quantize(im)))
                .collect();
            let mut data = bit_reverse_permute(&quantized);
            for stage in 0..STAGES {
                oracle_stage(
                    &mut data,
                    stage,
                    &mut |s, v| mpy_q[s - TWIDDLE_STAGES.start].quantize(v),
                    &mut |s, v| add_q[s].quantize(v),
                );
            }
            for (&(fr, fi), &(rr, ri)) in data.iter().zip(&reference) {
                meter.record(rr, fr);
                meter.record(ri, fi);
            }
        }
        meter.noise_power()
    }

    #[test]
    fn checkpointed_kernel_equals_the_unstaged_oracle_bit_for_bit() {
        let (num_frames, seed) = (8, 0xFF7_0003);
        let b = FftBenchmark::new(num_frames, seed);
        let frames = input_frames(num_frames, seed);
        let mut rng = StdRng::seed_from_u64(3);
        let mut w = vec![12; NUM_VARIABLES];
        let mut seen = vec![w.clone()];
        for step in 0..200 {
            if rng.gen_range(0..5) == 0 {
                w = seen[rng.gen_range(0..seen.len())].clone();
            } else {
                let i = rng.gen_range(0..NUM_VARIABLES);
                w[i] = rng.gen_range(4..17);
                seen.push(w.clone());
            }
            let checkpointed = b.noise_power(&w).unwrap().linear();
            let oracle = oracle_noise_power(&frames, &w).linear();
            assert_eq!(
                checkpointed.to_bits(),
                oracle.to_bits(),
                "step {step}: {w:?}"
            );
        }
    }

    #[test]
    fn twiddle_table_reference_equals_the_inline_oracle() {
        for seed in 0..4 {
            let x = complex_white_noise(seed, FFT_SIZE, 0.9);
            for (a, o) in fft_reference(&x).iter().zip(&oracle_reference(&x)) {
                assert_eq!(
                    (a.0.to_bits(), a.1.to_bits()),
                    (o.0.to_bits(), o.1.to_bits())
                );
            }
        }
    }

    #[test]
    fn stage_keys_mask_exactly_the_later_stages() {
        let w: Vec<i32> = (2..12).collect();
        assert_eq!(stage_key(&w, 0), [2, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(stage_key(&w, 2), [2, 3, 4, 0, 0, 0, 8, 0, 0, 0]);
        assert_eq!(
            stage_key(&w, STAGES - 1),
            *<&[i32; 10]>::try_from(&w[..]).unwrap()
        );
    }

    #[test]
    fn fft_matches_naive_dft() {
        let x = complex_white_noise(99, FFT_SIZE, 0.9);
        let fast = fft_reference(&x);
        let slow = dft_naive(&x);
        for ((fr, fi), (sr, si)) in fast.iter().zip(&slow) {
            assert!((fr - sr).abs() < 1e-10 && (fi - si).abs() < 1e-10);
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let mut x = vec![(0.0, 0.0); FFT_SIZE];
        x[0] = (1.0, 0.0);
        let spec = fft_reference(&x);
        for (re, im) in spec {
            assert!((re - 1.0 / FFT_SIZE as f64).abs() < 1e-12);
            assert!(im.abs() < 1e-12);
        }
    }

    #[test]
    fn parseval_holds_for_scaled_transform() {
        // For X[k] = (1/N)·Σ x e^{-j...}: Σ|x|²/N = Σ|X|²·N/N = N·Σ|X|².
        let x = complex_white_noise(5, FFT_SIZE, 0.9);
        let spec = fft_reference(&x);
        let ex: f64 = x.iter().map(|(r, i)| r * r + i * i).sum();
        let es: f64 = spec.iter().map(|(r, i)| r * r + i * i).sum();
        assert!((ex / FFT_SIZE as f64 - es).abs() < 1e-10, "{ex} vs {es}");
    }

    #[test]
    fn has_ten_variables() {
        assert_eq!(small().num_variables(), 10);
    }

    #[test]
    fn noise_decreases_with_word_length() {
        let b = small();
        let mut prev = f64::INFINITY;
        for w in [6, 8, 10, 12, 14] {
            let db = b.noise_power(&[w; 10]).unwrap().db();
            assert!(db < prev, "w={w}: {db} !< {prev}");
            prev = db;
        }
    }

    #[test]
    fn late_stage_quantization_hurts_more() {
        // Noise injected at stage 5 hits the output directly; stage-0 noise
        // is attenuated by five subsequent 1/2 scalings.
        let b = small();
        let narrow_first = b
            .noise_power(&[8, 14, 14, 14, 14, 14, 14, 14, 14, 14])
            .unwrap();
        let narrow_last = b
            .noise_power(&[14, 14, 14, 14, 14, 8, 14, 14, 14, 14])
            .unwrap();
        assert!(
            narrow_last.db() > narrow_first.db(),
            "first {} dB, last {} dB",
            narrow_first.db(),
            narrow_last.db()
        );
    }

    #[test]
    fn validates_shape() {
        let b = small();
        assert!(b.noise_power(&[12; 9]).is_err());
        assert!(b.noise_power(&[12; 11]).is_err());
    }

    #[test]
    fn deterministic() {
        let b = small();
        let w = [9, 10, 11, 12, 13, 9, 10, 11, 12, 13];
        assert_eq!(
            b.noise_power(&w).unwrap().linear(),
            b.noise_power(&w).unwrap().linear()
        );
    }

    #[test]
    fn bit_reverse_is_an_involution() {
        let x = complex_white_noise(7, FFT_SIZE, 1.0);
        let once = bit_reverse_permute(&x);
        let twice = bit_reverse_permute(&once);
        assert_eq!(x, twice);
    }
}
