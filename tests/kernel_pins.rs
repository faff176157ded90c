//! Known-answer pins for the six noise-power kernels.
//!
//! Each kernel is built at its fast-scale constructor arguments (as
//! `krigeval-engine`'s suite builds it at seed 0) and simulated at three
//! configurations: every site at the minimum word length, every site at
//! the maximum, and a fixed mixed pattern. The pinned values are the bit
//! patterns of `noise_power(w).linear()` captured before the quantizer's
//! power-of-two fast path and the allocation-free HEVC data path went in,
//! so any speed-up of the simulation layer must reproduce them exactly.

use krigeval::kernels::dct::DctBenchmark;
use krigeval::kernels::fft::FftBenchmark;
use krigeval::kernels::fir::FirBenchmark;
use krigeval::kernels::hevc::HevcMcBenchmark;
use krigeval::kernels::iir::IirBenchmark;
use krigeval::kernels::lms::LmsBenchmark;
use krigeval::kernels::WordLengthBenchmark;

/// Checks `[all-min, all-max, mixed]` against the pinned bit patterns.
fn check_pins(bench: &dyn WordLengthBenchmark, expected: [u64; 3]) {
    let n = bench.num_variables();
    let (lo, hi) = (bench.min_word_length(), bench.max_word_length());
    // Neighbouring sites get different widths (6..=12 for the 2..=16
    // kernels), so a quantizer dropped from a chain does not hide behind an
    // equally narrow one downstream, as it would at a uniform width.
    let mixed: Vec<i32> = (0..n)
        .map(|i| (lo + hi) / 2 + (i * 5 % 7) as i32 - 3)
        .collect();
    let got: Vec<u64> = [vec![lo; n], vec![hi; n], mixed]
        .iter()
        .map(|w| bench.noise_power(w).unwrap().linear().to_bits())
        .collect();
    let shown: Vec<String> = got.iter().map(|b| format!("0x{b:016X}")).collect();
    assert_eq!(
        got,
        expected,
        "{}: noise powers moved, got [{}]",
        bench.name(),
        shown.join(", ")
    );
}

#[test]
fn fir_noise_power_pins() {
    check_pins(
        &FirBenchmark::new(64, 0.2, 512, 0xF1E6_4001),
        [
            0x3FD4_09C2_84CF_0D2E,
            0x3E8A_A211_74CF_4403,
            0x3F75_9361_409E_3A79,
        ],
    );
}

#[test]
fn iir_noise_power_pins() {
    check_pins(
        &IirBenchmark::new(8, 0.1, 1024, 0x11E8_0002),
        [
            0x3FAC_2CB4_35ED_61CB,
            0x3E47_2C8A_A306_B367,
            0x3F6F_C1B8_3420_B5FF,
        ],
    );
}

#[test]
fn fft_noise_power_pins() {
    check_pins(
        &FftBenchmark::new(8, 0xFF7_0003),
        [
            0x3FC1_9967_7F4B_040B,
            0x3E02_4D9B_ED19_BA5F,
            0x3EED_B8CE_EEFC_077E,
        ],
    );
}

#[test]
fn hevc_noise_power_pins() {
    check_pins(
        &HevcMcBenchmark::new(48, 9, 0x4EC0_0004),
        [
            0x3FC8_5D23_814A_0B87,
            0x3E4D_B65C_6672_3302,
            0x3F37_D7BC_2B3A_99AC,
        ],
    );
}

#[test]
fn dct_noise_power_pins() {
    check_pins(
        &DctBenchmark::new(8, 0xDC78_0005),
        [
            0x3F9C_806C_0DB2_42AF,
            0x3E64_29E6_BDE9_1226,
            0x3F61_8830_5D34_EAB4,
        ],
    );
}

#[test]
fn lms_noise_power_pins() {
    check_pins(
        &LmsBenchmark::new(8, 1024, 0.04, 0x1335_0006),
        [
            0x3FA7_D153_6731_7BC5,
            0x3E4F_1AF9_7D37_9C39,
            0x3F93_A2FD_2EAA_C567,
        ],
    );
}
