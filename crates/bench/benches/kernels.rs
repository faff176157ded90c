//! Criterion benchmarks of one simulation-based metric evaluation per
//! benchmark — the `t_o · N_o` cost kriging amortizes (paper Eq. 2).
//!
//! The FFT and HEVC kernels memoize stage outputs per instance, so calling
//! one configuration over and over would time a memo hit. Their benches
//! time each call on a fresh clone (clones start with an empty memo),
//! built outside the timed region: every timed call is a cold simulation.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use krigeval_kernels::fft::FftBenchmark;
use krigeval_kernels::fir::FirBenchmark;
use krigeval_kernels::hevc::HevcMcBenchmark;
use krigeval_kernels::iir::IirBenchmark;
use krigeval_kernels::WordLengthBenchmark;
use krigeval_neural::SensitivityBenchmark;

fn bench_simulations(c: &mut Criterion) {
    let fir = FirBenchmark::new(64, 0.2, 512, 1);
    c.bench_function("sim_fir64_512samples", |b| {
        b.iter(|| black_box(fir.noise_power(black_box(&[10, 10])).expect("valid")))
    });

    let iir = IirBenchmark::new(8, 0.1, 512, 2);
    c.bench_function("sim_iir8_512samples", |b| {
        b.iter(|| black_box(iir.noise_power(black_box(&[10; 5])).expect("valid")))
    });

    let fft = FftBenchmark::new(8, 3);
    c.bench_function("sim_fft64_8frames", |b| {
        b.iter_batched_ref(
            || fft.clone(),
            |fresh| black_box(fresh.noise_power(black_box(&[10; 10])).expect("valid")),
            BatchSize::SmallInput,
        )
    });

    let hevc = HevcMcBenchmark::new(48, 9, 4);
    c.bench_function("sim_hevc_9blocks", |b| {
        b.iter_batched_ref(
            || hevc.clone(),
            |fresh| black_box(fresh.noise_power(black_box(&[10; 23])).expect("valid")),
            BatchSize::SmallInput,
        )
    });
}

fn bench_squeezenet(c: &mut Criterion) {
    let bench = SensitivityBenchmark::new(16, 12, 5);
    let powers = vec![-30.0; 10];
    c.bench_function("sim_squeezenet_16imgs", |b| {
        b.iter(|| {
            black_box(
                bench
                    .classification_rate(black_box(&powers))
                    .expect("valid"),
            )
        })
    });
}

criterion_group!(benches, bench_simulations, bench_squeezenet);
criterion_main!(benches);
