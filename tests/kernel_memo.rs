//! Warm-instance equivalence for the memoized kernels (HEVC, FFT).
//!
//! One instance is driven through a seeded min+1-style walk — frontier
//! sweeps (every variable one bit wider), moves to a frontier member,
//! audit-style revisits of earlier configurations out of order, exact
//! repeats and an invalid configuration mid-stream — so its stage memo
//! is warm with neighbouring configurations. Every result must equal, bit
//! for bit, what a never-used instance computes for the same
//! configuration, and an invalid configuration must return its typed
//! error without disturbing the calls after it.

use krigeval::kernels::fft::FftBenchmark;
use krigeval::kernels::hevc::HevcMcBenchmark;
use krigeval::kernels::{KernelError, WordLengthBenchmark};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Compares `warm` with a pristine clone of `pristine` on `w`.
fn check<B: WordLengthBenchmark + Clone>(warm: &B, pristine: &B, w: &[i32], what: &str) {
    let fresh = pristine.clone();
    let got = warm.noise_power(w).map(|p| p.linear().to_bits());
    let want = fresh.noise_power(w).map(|p| p.linear().to_bits());
    assert_eq!(got, want, "{} {what}: {w:?}", warm.name());
}

/// Walks `moves` min+1 steps from a narrow start on one warm instance.
fn walk<B: WordLengthBenchmark + Clone>(bench: B, seed: u64, moves: usize) {
    let warm = bench.clone();
    let nv = bench.num_variables();
    let (lo, hi) = (bench.min_word_length(), bench.max_word_length());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current: Vec<i32> = (0..nv).map(|_| rng.gen_range(lo + 4..lo + 9)).collect();
    let mut history = vec![current.clone()];
    check(&warm, &bench, &current, "start");
    for step in 0..moves {
        // Frontier sweep: every variable one bit wider, in order.
        let frontier: Vec<Vec<i32>> = (0..nv)
            .map(|i| {
                let mut candidate = current.clone();
                candidate[i] = (candidate[i] + 1).min(hi);
                candidate
            })
            .collect();
        for candidate in &frontier {
            check(&warm, &bench, candidate, "frontier");
        }
        if step == moves / 2 {
            // An invalid configuration mid-stream: typed error, and the
            // walk carries on against the same memo.
            let mut bad = current.clone();
            bad[nv / 2] = hi + 1;
            let err = warm.noise_power(&bad).unwrap_err();
            assert_eq!(
                err,
                KernelError::WordLengthOutOfRange {
                    index: nv / 2,
                    word_length: hi + 1,
                    min: lo,
                    max: hi,
                }
            );
            check(&warm, &bench, &bad, "invalid");
            check(&warm, &bench, &current[..nv - 1], "short");
        }
        // Audit-style revisits of earlier configurations, out of order.
        for _ in 0..3 {
            let earlier = history[rng.gen_range(0..history.len())].clone();
            check(&warm, &bench, &earlier, "revisit");
        }
        // Move to a random frontier member, evaluated twice (an exact
        // repeat hits every stage).
        current = frontier[rng.gen_range(0..nv)].clone();
        check(&warm, &bench, &current, "move");
        check(&warm, &bench, &current, "repeat");
        history.push(current.clone());
    }
}

#[test]
fn hevc_fast_warm_instance_matches_fresh() {
    walk(HevcMcBenchmark::new(48, 9, 0x4EC0_0004), 11, 10);
}

#[test]
fn hevc_paper_warm_instance_matches_fresh() {
    walk(HevcMcBenchmark::with_defaults(), 12, 5);
}

#[test]
fn fft_fast_warm_instance_matches_fresh() {
    walk(FftBenchmark::new(8, 0xFF7_0003), 13, 12);
}

#[test]
fn fft_paper_warm_instance_matches_fresh() {
    walk(FftBenchmark::with_defaults(), 14, 6);
}
