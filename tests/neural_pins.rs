//! Known-answer pins for the CNN simulators.
//!
//! The pinned values are bit patterns captured from the output-stationary
//! `Conv2d::forward` loop, before the weight-stationary kernel replaced it.
//! Any speed-up of the convolution, pooling or injection layers must
//! reproduce them exactly; they are never re-pinned.
//!
//! Pinned here:
//! - `MiniSqueezeNet` logits of two images: clean, through
//!   `classify_with_injection` at −80, −20 and 0 dB on every site, and
//!   through `forward_with` with a local quantizing hook at a uniform and
//!   a mixed word length;
//! - both CNN benchmarks' classification rates at their fast-scale
//!   constructors (as `krigeval-engine`'s suite builds them at seed 0), for
//!   the optimizers' floor, maximum and a mixed configuration.

use krigeval::fixedpoint::{QFormat, Quantizer};
use krigeval::neural::{
    synthetic_images, MiniSqueezeNet, QuantizedNetBenchmark, SensitivityBenchmark, SiteHook,
    Tensor3, NUM_INJECTION_SITES,
};
use krigeval_bench::suite::level_to_db;

const NET_SEED: u64 = 0x59EE_2E05;

/// Compares bit patterns, printing what was computed on a mismatch.
fn check_bits(label: &str, got: &[f64], expected: &[u64]) {
    let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
    let shown: Vec<String> = got.iter().map(|b| format!("0x{b:016X}")).collect();
    assert_eq!(
        got,
        expected,
        "{label}: values moved, got [{}]",
        shown.join(", ")
    );
}

fn net_and_images() -> (MiniSqueezeNet, Vec<Tensor3>) {
    let net = MiniSqueezeNet::seeded(NET_SEED);
    let images = synthetic_images(2, 12, NET_SEED.wrapping_add(1));
    (net, images)
}

/// Quantizes every site to `Q4.(w-5)`: four integer bits cover the
/// activations and the calibrated logits of this network.
struct QuantizeHook {
    quantizers: Vec<Quantizer>,
}

impl QuantizeHook {
    fn new(word_lengths: &[i32; NUM_INJECTION_SITES]) -> QuantizeHook {
        let quantizers = word_lengths
            .iter()
            .map(|&w| Quantizer::new(QFormat::with_word_length(4, w).unwrap()))
            .collect();
        QuantizeHook { quantizers }
    }
}

impl SiteHook for QuantizeHook {
    fn tensor(&mut self, site: usize, t: &mut Tensor3) {
        self.quantizers[site].quantize_in_place(t.as_mut_slice());
    }

    fn vector(&mut self, site: usize, v: &mut [f64]) {
        self.quantizers[site].quantize_in_place(v);
    }
}

/// Logits of both images, concatenated, under `f`.
fn logits_of(f: impl Fn(&MiniSqueezeNet, usize, &Tensor3) -> Vec<f64>) -> Vec<f64> {
    let (net, images) = net_and_images();
    images
        .iter()
        .enumerate()
        .flat_map(|(i, img)| f(&net, i, img))
        .collect()
}

fn injected_logits(power_db: f64) -> Vec<f64> {
    logits_of(|net, i, img| {
        net.classify_with_injection(img, &[power_db; NUM_INJECTION_SITES], i as u64)
            .1
    })
}

fn quantized_logits(word_lengths: &[i32; NUM_INJECTION_SITES]) -> Vec<f64> {
    logits_of(|net, _, img| net.forward_with(img, &mut QuantizeHook::new(word_lengths)))
}

#[test]
fn clean_logits_pins() {
    check_bits(
        "clean",
        &logits_of(|net, _, img| net.logits(img)),
        &[
            0x3FE9_5B38_75CB_6261,
            0x3FC4_7A85_C837_19F1,
            0x3FEB_E789_9EAF_3F1A,
            0xBFD0_EE4D_B67D_C2D8,
            0x3FD0_944B_47C7_2449,
            0xBFC1_2B0F_569F_E09E,
            0x3FA3_3173_CF50_2B14,
            0xBFDD_EC5F_5AC2_44C7,
            0xBFD6_8235_6C3F_092B,
            0x3FD0_C714_6D31_D78D,
            0x3FF4_2D3E_5AE2_529E,
            0x3FE0_7162_214B_00A2,
            0xBFDA_1480_CD72_F5BF,
            0xBFF5_ECDE_C352_BA50,
            0x3FE0_30E2_C62D_FAE1,
            0xBFE6_FD46_1B75_9D44,
            0x3FF5_2B40_443B_518B,
            0x3FD3_C752_9224_A247,
            0xBFE0_7EC5_FE51_1E4E,
            0x3FC9_ADE9_EF4E_A405,
        ],
    );
}

#[test]
fn injected_logits_at_minus_80_db_pins() {
    check_bits(
        "-80 dB",
        &injected_logits(-80.0),
        &[
            0x3FE9_4C0D_B6DC_B6D3,
            0x3FC4_709B_CB68_03E8,
            0x3FEB_B68B_C9B6_A829,
            0xBFD1_0297_3B4A_9A22,
            0x3FD0_7C49_DCC5_7089,
            0xBFC0_F24A_9004_C2D8,
            0x3FA2_CCBA_7267_CD00,
            0xBFDD_B7C1_6959_89A5,
            0xBFD6_6D43_F837_1A06,
            0x3FD0_AB23_5500_AF16,
            0x3FF4_2A48_6ADF_92BB,
            0x3FE0_6090_6D22_B457,
            0xBFDA_2233_ECBA_7F5C,
            0xBFF5_E9CC_45FC_4CBC,
            0x3FE0_1E4F_D3E1_1402,
            0xBFE6_E81C_DC17_9301,
            0x3FF5_240B_7515_4D8B,
            0x3FD3_D01A_6BA3_0ADF,
            0xBFE0_6458_9584_75C3,
            0x3FC9_340E_D379_A732,
        ],
    );
}

#[test]
fn injected_logits_at_minus_20_db_pins() {
    check_bits(
        "-20 dB",
        &injected_logits(-20.0),
        &[
            0xBFF8_A7C5_A3DF_EB45,
            0xBFEA_6A53_C720_E234,
            0xC017_B603_6601_1CF4,
            0xBFEF_8F77_561E_A4BB,
            0xC001_B3C7_D049_0627,
            0x4004_3E97_21A7_09FA,
            0xBFEC_BFB4_4A03_9A72,
            0x400C_D3D2_0B20_6A1E,
            0x3FFA_46B6_0CFE_8046,
            0xC006_0E8E_C577_ABF1,
            0xBFF6_F9DD_4D39_0EF0,
            0xC005_E0AD_6D41_881A,
            0xC000_8DA1_EA18_153E,
            0x3FFC_F3A3_2C1A_AB6F,
            0xC009_25A8_7DB3_0D44,
            0x400B_6668_4226_A008,
            0xC004_1E2A_7011_CBB7,
            0x3FCE_1F7F_F867_84E4,
            0x4012_832E_5595_C4E5,
            0xC014_6D42_B289_5CEB,
        ],
    );
}

#[test]
fn injected_logits_at_0_db_pins() {
    check_bits(
        "0 dB",
        &injected_logits(0.0),
        &[
            0xC081_1304_CA72_8AD6,
            0x4086_818E_64E4_925F,
            0xC091_BB9C_119B_7F88,
            0xC06B_928B_B992_0FA6,
            0xC07D_7C33_F635_9596,
            0x4073_DFCC_299B_664A,
            0x4074_A3E3_91EA_BEC3,
            0x4079_D693_0389_D129,
            0xC070_1FB3_0D51_26DA,
            0xC081_7BDC_9E26_C1F5,
            0x406B_342B_DC68_1D0C,
            0x4070_15C7_F96D_A36A,
            0xC077_DB6A_ED24_ADE6,
            0x407A_CC4E_6A01_0CA6,
            0xC05A_B365_0265_2FB4,
            0x4059_B78C_873F_0E42,
            0xC071_DD0D_BCB9_6C35,
            0xC087_B6DD_21C5_787F,
            0x406F_A6FC_67B4_E602,
            0xC082_5932_D297_62BA,
        ],
    );
}

#[test]
fn quantized_logits_uniform_pins() {
    check_bits(
        "uniform 16 bits",
        &quantized_logits(&[16; 10]),
        &[
            0x3FE9_5C00_0000_0000,
            0x3FC4_4000_0000_0000,
            0x3FEB_CC00_0000_0000,
            0xBFD0_B800_0000_0000,
            0x3FD0_8000_0000_0000,
            0xBFC1_5000_0000_0000,
            0x3FA3_C000_0000_0000,
            0xBFDD_B800_0000_0000,
            0xBFD6_8800_0000_0000,
            0x3FD1_0000_0000_0000,
            0x3FF4_1E00_0000_0000,
            0x3FE0_6000_0000_0000,
            0xBFDA_1800_0000_0000,
            0xBFF5_EA00_0000_0000,
            0x3FE0_3000_0000_0000,
            0xBFE6_FC00_0000_0000,
            0x3FF5_3600_0000_0000,
            0x3FD3_F800_0000_0000,
            0xBFE0_7C00_0000_0000,
            0x3FC9_9000_0000_0000,
        ],
    );
}

#[test]
fn quantized_logits_mixed_pins() {
    check_bits(
        "mixed",
        &quantized_logits(&[12, 20, 14, 24, 16, 13, 22, 18, 15, 21]),
        &[
            0x3FE9_D800_0000_0000,
            0x3FC4_6000_0000_0000,
            0x3FEB_7800_0000_0000,
            0xBFD1_B000_0000_0000,
            0x3FD0_4000_0000_0000,
            0xBFC1_4000_0000_0000,
            0x3FAB_0000_0000_0000,
            0xBFDE_1000_0000_0000,
            0xBFD6_3000_0000_0000,
            0x3FD0_6000_0000_0000,
            0x3FF4_2C00_0000_0000,
            0x3FE0_2800_0000_0000,
            0xBFDA_3000_0000_0000,
            0xBFF5_C400_0000_0000,
            0x3FDF_D000_0000_0000,
            0xBFE6_C800_0000_0000,
            0x3FF5_1C00_0000_0000,
            0x3FD3_C000_0000_0000,
            0xBFE0_3800_0000_0000,
            0x3FC8_C000_0000_0000,
        ],
    );
}

#[test]
fn sensitivity_rate_pins() {
    let bench = SensitivityBenchmark::new(48, 12, 0x59EE_2E05);
    // The descent's level floor (0), its maximum (12) and a mix.
    let configs: [[i32; 10]; 3] = [[0; 10], [12; 10], [3, 9, 5, 11, 2, 8, 6, 12, 4, 10]];
    let rates: Vec<f64> = configs
        .iter()
        .map(|c| {
            let powers: Vec<f64> = c.iter().map(|&l| level_to_db(l)).collect();
            bench.classification_rate(&powers).unwrap()
        })
        .collect();
    check_bits(
        "squeezenet p_cl",
        &rates,
        &[
            0x3FEF_5555_5555_5555,
            0x3FBA_AAAA_AAAA_AAAB,
            0x3FC5_5555_5555_5555,
        ],
    );
}

#[test]
fn quantized_rate_pins() {
    let bench = QuantizedNetBenchmark::new(48, 12, 0xBEE5);
    // The min+1 floor (3 bits), its maximum (16 bits) and a mix.
    let configs: [[i32; 10]; 3] = [[3; 10], [16; 10], [8, 11, 9, 12, 10, 8, 13, 11, 9, 12]];
    let rates: Vec<f64> = configs
        .iter()
        .map(|c| bench.classification_rate(c).unwrap())
        .collect();
    check_bits(
        "quantized_cnn p_cl",
        &rates,
        &[
            0x3FB5_5555_5555_5555,
            0x3FEF_5555_5555_5555,
            0x3FED_5555_5555_5555,
        ],
    );
}
