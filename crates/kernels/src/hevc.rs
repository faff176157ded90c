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
//!
//! # Stages
//!
//! A block takes one of four paths, fixed by its fractional phase. Each
//! path runs as a stage over all of its blocks, and each stage reads only
//! some of the sites:
//!
//! | stage | path | sites read |
//! |-------|------|------------|
//! | horizontal intermediates | 2-D | 0–9 |
//! | pre-final output | 2-D | 0–19 |
//! | pre-final output | horizontal-only | 0–8, 20 |
//! | pre-final output | vertical-only | 10–18, 21 |
//! | pre-final output | integer-pel (`(0, 0)`) | none |
//! | final output, noise meter | all | 22 |
//!
//! `noise_power` keeps the last 16 outputs of each keyed stage in a stage
//! memo under the exact sites it read (a 2-D output hit skips the
//! intermediate lookup), then applies the `w[22]` quantizer and records
//! every pixel in job order — the same chain of roundings as computing
//! every block afresh. The memo holds at most 16 × (1 472 B per 2-D
//! block plus 512 B per one-directional block): ~150 KB at fast scale (9
//! blocks), ~380 KB at paper scale (24 blocks).

use krigeval_fixedpoint::{NoiseMeter, NoisePower, QFormat, Quantizer};

use crate::memo::{MemoCell, StageMemo};
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

/// One block, row-major.
type Block = [f64; BLOCK_PIXELS];

/// Horizontal-pass rows of one 2-D block (`BLOCK + TAPS − 1` rows).
type Intermediate = [[f64; BLOCK]; BLOCK + TAPS - 1];

/// Entries each keyed stage memo keeps. Sized on the Table-I workload:
/// 16 entries removed more simulation time than 1 or 4, and 64 added
/// little more at four times the memory.
const MEMO_CAPACITY: usize = 16;

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
    paths: PathGroups,
    references: Vec<Block>,
    memo: MemoCell<HevcMemo>,
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
        HevcMcBenchmark::from_jobs(image, jobs)
    }

    /// Groups `jobs` by path and computes their double-precision references.
    fn from_jobs(image: Vec<Vec<f64>>, jobs: Vec<McJob>) -> HevcMcBenchmark {
        let paths = PathGroups::new(&image, &jobs);
        let q = &Passthrough;
        let intermediates = horizontal_intermediates(&image, &paths.two_d, q);
        let two_d = two_d_outputs(&paths.two_d, &intermediates, q);
        let h_only = horizontal_only_outputs(&image, &paths.h_only, q);
        let v_only = vertical_only_outputs(&image, &paths.v_only, q);
        let references = paths
            .slots
            .iter()
            .map(|&slot| *paths.block(slot, &two_d, &h_only, &v_only))
            .collect();
        HevcMcBenchmark {
            image,
            jobs,
            paths,
            references,
            memo: MemoCell::new(),
        }
    }

    /// The motion-compensation jobs in the data set.
    pub fn jobs(&self) -> &[McJob] {
        &self.jobs
    }
}

/// Where a job's pre-final block lives: its path, and its index among
/// that path's jobs.
#[derive(Debug, Clone, Copy)]
enum Slot {
    TwoD(usize),
    HorizontalOnly(usize),
    VerticalOnly(usize),
    IntegerPel(usize),
}

/// The jobs grouped by path once, at construction.
#[derive(Debug, Clone)]
struct PathGroups {
    two_d: Vec<McJob>,
    h_only: Vec<McJob>,
    v_only: Vec<McJob>,
    /// Integer-pel blocks are plain image copies: no site touches them
    /// before the final register, so they are stored ready-made.
    integer_pel: Vec<Block>,
    /// One slot per job, in job order.
    slots: Vec<Slot>,
}

impl PathGroups {
    fn new(image: &[Vec<f64>], jobs: &[McJob]) -> PathGroups {
        let mut groups = PathGroups {
            two_d: Vec::new(),
            h_only: Vec::new(),
            v_only: Vec::new(),
            integer_pel: Vec::new(),
            slots: Vec::with_capacity(jobs.len()),
        };
        for &job in jobs {
            let slot = match (job.frac_x, job.frac_y) {
                (0, 0) => {
                    groups.integer_pel.push(std::array::from_fn(|i| {
                        image[job.y + i / BLOCK][job.x + i % BLOCK]
                    }));
                    Slot::IntegerPel(groups.integer_pel.len() - 1)
                }
                (_, 0) => {
                    groups.h_only.push(job);
                    Slot::HorizontalOnly(groups.h_only.len() - 1)
                }
                (0, _) => {
                    groups.v_only.push(job);
                    Slot::VerticalOnly(groups.v_only.len() - 1)
                }
                (_, _) => {
                    groups.two_d.push(job);
                    Slot::TwoD(groups.two_d.len() - 1)
                }
            };
            groups.slots.push(slot);
        }
        groups
    }

    /// The pre-final block of the job at `slot`, given each path's stage
    /// output.
    fn block<'a>(
        &'a self,
        slot: Slot,
        two_d: &'a [Block],
        h_only: &'a [Block],
        v_only: &'a [Block],
    ) -> &'a Block {
        match slot {
            Slot::TwoD(i) => &two_d[i],
            Slot::HorizontalOnly(i) => &h_only[i],
            Slot::VerticalOnly(i) => &v_only[i],
            Slot::IntegerPel(i) => &self.integer_pel[i],
        }
    }
}

/// Stage memos of one instance, each keyed by the exact sites its stage
/// reads (see the module docs).
#[derive(Debug)]
struct HevcMemo {
    intermediates: StageMemo<[i32; 10], Vec<Intermediate>>,
    two_d: StageMemo<[i32; 20], Vec<Block>>,
    h_only: StageMemo<[i32; 10], Vec<Block>>,
    v_only: StageMemo<[i32; 10], Vec<Block>>,
}

impl Default for HevcMemo {
    fn default() -> HevcMemo {
        HevcMemo {
            intermediates: StageMemo::new(MEMO_CAPACITY),
            two_d: StageMemo::new(MEMO_CAPACITY),
            h_only: StageMemo::new(MEMO_CAPACITY),
            v_only: StageMemo::new(MEMO_CAPACITY),
        }
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

/// Horizontal pass of each 2-D job over its `BLOCK + 7` rows (sites 0–9).
fn horizontal_intermediates<Q: McQuant>(
    image: &[Vec<f64>],
    jobs: &[McJob],
    q: &Q,
) -> Vec<Intermediate> {
    jobs.iter()
        .map(|job| {
            let taps = &LUMA_FILTERS[job.frac_x as usize - 1];
            let mut intermediate = [[0.0; BLOCK]; BLOCK + TAPS - 1];
            for (r, row_out) in intermediate.iter_mut().enumerate() {
                let row = &image[job.y + r - 3];
                for (dx, cell) in row_out.iter_mut().enumerate() {
                    let window = &row[job.x + dx - 3..job.x + dx + 5];
                    *cell = q.h_intermediate(filter8(window, taps, false, q));
                }
            }
            intermediate
        })
        .collect()
}

/// Vertical pass of each 2-D job over its intermediates (sites 10–19).
fn two_d_outputs<Q: McQuant>(jobs: &[McJob], intermediates: &[Intermediate], q: &Q) -> Vec<Block> {
    jobs.iter()
        .zip(intermediates)
        .map(|(job, intermediate)| {
            let taps = &LUMA_FILTERS[job.frac_y as usize - 1];
            std::array::from_fn(|i| {
                let (dy, dx) = (i / BLOCK, i % BLOCK);
                let col: [f64; TAPS] = std::array::from_fn(|t| intermediate[dy + t][dx]);
                q.path_output(McPath::TwoD, filter8(&col, taps, true, q))
            })
        })
        .collect()
}

/// Horizontal-only jobs (sites 0–8 and 20).
fn horizontal_only_outputs<Q: McQuant>(image: &[Vec<f64>], jobs: &[McJob], q: &Q) -> Vec<Block> {
    jobs.iter()
        .map(|job| {
            let taps = &LUMA_FILTERS[job.frac_x as usize - 1];
            std::array::from_fn(|i| {
                let (dy, dx) = (i / BLOCK, i % BLOCK);
                let window = &image[job.y + dy][job.x + dx - 3..job.x + dx + 5];
                q.path_output(McPath::HorizontalOnly, filter8(window, taps, false, q))
            })
        })
        .collect()
}

/// Vertical-only jobs (sites 10–18 and 21).
fn vertical_only_outputs<Q: McQuant>(image: &[Vec<f64>], jobs: &[McJob], q: &Q) -> Vec<Block> {
    jobs.iter()
        .map(|job| {
            let taps = &LUMA_FILTERS[job.frac_y as usize - 1];
            std::array::from_fn(|i| {
                let (dy, dx) = (i / BLOCK, i % BLOCK);
                let col: [f64; TAPS] =
                    std::array::from_fn(|t| image[job.y + dy + t - 3][job.x + dx]);
                q.path_output(McPath::VerticalOnly, filter8(&col, taps, true, q))
            })
        })
        .collect()
}

/// The memo keys of the four keyed stages: exactly the sites each reads.
fn stage_keys(w: &[i32]) -> ([i32; 10], [i32; 20], [i32; 10], [i32; 10]) {
    let site = |i: usize| w[i];
    (
        std::array::from_fn(site),
        std::array::from_fn(site),
        std::array::from_fn(|i| if i < 9 { w[i] } else { w[20] }),
        std::array::from_fn(|i| if i < 9 { w[10 + i] } else { w[21] }),
    )
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
        let q = SiteQuantizers::from_word_lengths(word_lengths)?;
        let (h_key, two_d_key, h_only_key, v_only_key) = stage_keys(word_lengths);
        let (image, paths) = (&self.image, &self.paths);
        self.memo.with(|memo| {
            let HevcMemo {
                intermediates,
                two_d,
                h_only,
                v_only,
            } = memo;
            let two_d = two_d.get_or_insert_with(two_d_key, || {
                let intermediates = intermediates.get_or_insert_with(h_key, || {
                    horizontal_intermediates(image, &paths.two_d, &q)
                });
                two_d_outputs(&paths.two_d, intermediates, &q)
            });
            let h_only = h_only.get_or_insert_with(h_only_key, || {
                horizontal_only_outputs(image, &paths.h_only, &q)
            });
            let v_only = v_only.get_or_insert_with(v_only_key, || {
                vertical_only_outputs(image, &paths.v_only, &q)
            });
            let mut meter = NoiseMeter::new();
            for (&slot, reference) in paths.slots.iter().zip(&self.references) {
                let block = paths.block(slot, two_d, h_only, v_only);
                for (&r, &v) in reference.iter().zip(block) {
                    meter.record(r, q.output(v));
                }
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

    fn small() -> HevcMcBenchmark {
        HevcMcBenchmark::new(48, 9, 0x4EC0_0004)
    }

    /// The unstaged kernel: interpolates one 8×8 block, row-major.
    fn interpolate_block<Q: McQuant>(image: &[Vec<f64>], job: McJob, q: &Q) -> Block {
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

    /// The unstaged, unmemoized noise power, references included.
    fn oracle_noise_power(b: &HevcMcBenchmark, w: &[i32]) -> Result<NoisePower, KernelError> {
        b.validate(w)?;
        let q = SiteQuantizers::from_word_lengths(w)?;
        let mut meter = NoiseMeter::new();
        for job in &b.jobs {
            let reference = interpolate_block(&b.image, *job, &Passthrough);
            let approx = interpolate_block(&b.image, *job, &q);
            meter.record_slices(&reference, &approx);
        }
        Ok(meter.noise_power())
    }

    /// A min+1-like walk: one site moves per step, with occasional jumps
    /// back to an earlier configuration.
    fn assert_matches_oracle(b: &HevcMcBenchmark, seed: u64, steps: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = vec![12; NUM_VARIABLES];
        let mut seen = vec![w.clone()];
        for step in 0..steps {
            if rng.gen_range(0..5) == 0 {
                w = seen[rng.gen_range(0..seen.len())].clone();
            } else {
                let i = rng.gen_range(0..NUM_VARIABLES);
                w[i] = rng.gen_range(4..17);
                seen.push(w.clone());
            }
            let staged = b.noise_power(&w).unwrap().linear();
            let oracle = oracle_noise_power(b, &w).unwrap().linear();
            assert_eq!(staged.to_bits(), oracle.to_bits(), "step {step}: {w:?}");
        }
    }

    #[test]
    fn staged_kernel_equals_the_unstaged_oracle_bit_for_bit() {
        assert_matches_oracle(&small(), 1, 120);
    }

    #[test]
    fn integer_pel_path_equals_the_oracle() {
        // The phase cycle never places a (0, 0) job; build one directly.
        let image = smooth_image(7, 48, 48, 6);
        let jobs = [(0, 0), (2, 2), (0, 0), (1, 0), (0, 3)]
            .iter()
            .enumerate()
            .map(|(i, &(frac_x, frac_y))| McJob {
                x: 4 + 5 * i,
                y: 6 + 3 * i,
                frac_x,
                frac_y,
            })
            .collect();
        let b = HevcMcBenchmark::from_jobs(image, jobs);
        assert_matches_oracle(&b, 2, 60);
    }

    #[test]
    fn references_equal_the_oracle_passthrough() {
        let b = small();
        for (job, reference) in b.jobs.iter().zip(&b.references) {
            let oracle = interpolate_block(&b.image, *job, &Passthrough);
            assert!(reference
                .iter()
                .zip(&oracle)
                .all(|(a, o)| a.to_bits() == o.to_bits()));
        }
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
        let intermediates = horizontal_intermediates(&image, &[job], &Passthrough);
        let out = two_d_outputs(&[job], &intermediates, &Passthrough);
        for v in out[0] {
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
