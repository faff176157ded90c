//! Convolution, pooling and activation layers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Tensor3;

/// A 2-D convolution with square kernel, stride 1 and "same" padding for
/// odd kernels (padding `k/2`).
///
/// Weights are He-scaled uniform pseudo-random values from a fixed seed —
/// the substitution network is not trained (see `DESIGN.md`); sensitivity
/// analysis only needs a deterministic nonlinear layered map.
///
/// # Examples
///
/// ```
/// use krigeval_neural::{Conv2d, Tensor3};
///
/// let conv = Conv2d::seeded(3, 8, 3, 42);
/// let x = Tensor3::zeros(3, 8, 8);
/// let y = conv.forward(&x);
/// assert_eq!(y.shape(), (8, 8, 8));
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    /// `[out][in][ky][kx]` flattened.
    weights: Vec<f64>,
    bias: Vec<f64>,
}

impl Conv2d {
    /// Creates a convolution with pseudo-random weights from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `kernel` is even.
    pub fn seeded(in_channels: usize, out_channels: usize, kernel: usize, seed: u64) -> Conv2d {
        assert!(
            in_channels > 0 && out_channels > 0,
            "channel counts must be positive"
        );
        assert!(kernel % 2 == 1, "kernel must be odd for same-padding");
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = (in_channels * kernel * kernel) as f64;
        // He-uniform: Var = 2/fan_in requires a uniform range of ±√(6/fan_in).
        // Under-scaled weights would let the biases dominate and collapse the
        // activations to input-independent constants by the deeper layers.
        let scale = (6.0 / fan_in).sqrt();
        let weights = (0..out_channels * in_channels * kernel * kernel)
            .map(|_| rng.gen_range(-scale..scale))
            .collect();
        let bias = (0..out_channels)
            .map(|_| rng.gen_range(-0.01..0.01))
            .collect();
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            weights,
            bias,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Runs the convolution (stride 1, same padding).
    ///
    /// Weight-stationary: each output plane starts at its bias, then every
    /// tap `(ic, ky, kx)` in ascending order adds `w · input` over the
    /// output rectangle whose source pixels lie inside the image. Each
    /// output thus sees its bias and then the in-range products in the
    /// same `(ic, ky, kx)` order as a per-pixel accumulator would, so the
    /// result is bitwise that of the output-stationary loop.
    ///
    /// # Panics
    ///
    /// Panics if `input.channels() != in_channels`.
    pub fn forward(&self, input: &Tensor3) -> Tensor3 {
        assert_eq!(input.channels(), self.in_channels, "input channel mismatch");
        let (h, w) = (input.height(), input.width());
        let (k, pad) = (self.kernel, self.kernel / 2);
        let plane = h * w;
        let mut out = Tensor3::zeros(self.out_channels, h, w);
        let filters = self.weights.chunks_exact(self.in_channels * k * k);
        let planes = out.as_mut_slice().chunks_exact_mut(plane);
        for ((out_plane, filter), &bias) in planes.zip(filters).zip(&self.bias) {
            out_plane.fill(bias);
            let sources = input.as_slice().chunks_exact(plane);
            for (in_plane, taps) in sources.zip(filter.chunks_exact(k * k)) {
                for (ky, row_taps) in taps.chunks_exact(k).enumerate() {
                    // Output rows `y` with source row `y + ky - pad` in `0..h`.
                    let (y0, y1) = (pad.saturating_sub(ky), (h + pad).saturating_sub(ky).min(h));
                    for (kx, &wgt) in row_taps.iter().enumerate() {
                        let (x0, x1) =
                            (pad.saturating_sub(kx), (w + pad).saturating_sub(kx).min(w));
                        // A kernel wider than the image inverts the range.
                        if x0 >= x1 {
                            continue;
                        }
                        for y in y0..y1 {
                            let src = (y + ky - pad) * w + x0 + kx - pad;
                            let dst = &mut out_plane[y * w + x0..y * w + x1];
                            for (o, &v) in dst.iter_mut().zip(&in_plane[src..src + x1 - x0]) {
                                *o += wgt * v;
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// In-place ReLU.
///
/// # Examples
///
/// ```
/// use krigeval_neural::{relu_in_place, Tensor3};
///
/// let mut t = Tensor3::from_vec(1, 1, 3, vec![-1.0, 0.0, 2.0]);
/// relu_in_place(&mut t);
/// assert_eq!(t.as_slice(), &[0.0, 0.0, 2.0]);
/// ```
pub fn relu_in_place(t: &mut Tensor3) {
    for v in t.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// 2×2 max pooling with stride 2 (floor semantics on odd dimensions).
///
/// # Panics
///
/// Panics if the input is smaller than 2×2.
///
/// # Examples
///
/// ```
/// use krigeval_neural::{max_pool2, Tensor3};
///
/// let t = Tensor3::from_vec(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
/// let p = max_pool2(&t);
/// assert_eq!(p.shape(), (1, 1, 1));
/// assert_eq!(p[(0, 0, 0)], 4.0);
/// ```
pub fn max_pool2(input: &Tensor3) -> Tensor3 {
    assert!(
        input.height() >= 2 && input.width() >= 2,
        "input too small for 2x2 pooling"
    );
    let (c, h, w) = input.shape();
    let (oh, ow) = (h / 2, w / 2);
    let mut out = Tensor3::zeros(c, oh, ow);
    for ch in 0..c {
        for y in 0..oh {
            for x in 0..ow {
                let m = input[(ch, 2 * y, 2 * x)]
                    .max(input[(ch, 2 * y, 2 * x + 1)])
                    .max(input[(ch, 2 * y + 1, 2 * x)])
                    .max(input[(ch, 2 * y + 1, 2 * x + 1)]);
                out[(ch, y, x)] = m;
            }
        }
    }
    out
}

/// Global average pooling: one scalar per channel.
///
/// # Examples
///
/// ```
/// use krigeval_neural::{global_avg_pool, Tensor3};
///
/// let t = Tensor3::from_vec(2, 1, 2, vec![1.0, 3.0, 10.0, 20.0]);
/// assert_eq!(global_avg_pool(&t), vec![2.0, 15.0]);
/// ```
pub fn global_avg_pool(input: &Tensor3) -> Vec<f64> {
    let (c, h, w) = input.shape();
    let n = (h * w) as f64;
    (0..c)
        .map(|ch| {
            let mut sum = 0.0;
            for y in 0..h {
                for x in 0..w {
                    sum += input[(ch, y, x)];
                }
            }
            sum / n
        })
        .collect()
}

/// Index of the largest logit (ties broken toward the lower index).
///
/// # Panics
///
/// Panics if `logits` is empty.
///
/// # Examples
///
/// ```
/// assert_eq!(krigeval_neural::argmax(&[0.1, 0.9, 0.3]), 1);
/// ```
pub fn argmax(logits: &[f64]) -> usize {
    assert!(!logits.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The output-stationary loop `forward` replaced: one accumulator per
    /// output pixel, seeded with the bias, summing every in-range tap in
    /// `(ic, ky, kx)` order.
    fn output_stationary(conv: &Conv2d, input: &Tensor3) -> Tensor3 {
        let (h, w) = (input.height(), input.width());
        let pad = conv.kernel / 2;
        let mut out = Tensor3::zeros(conv.out_channels, h, w);
        for oc in 0..conv.out_channels {
            for y in 0..h {
                for x in 0..w {
                    let mut acc = conv.bias[oc];
                    for ic in 0..conv.in_channels {
                        for ky in 0..conv.kernel {
                            let sy = y as isize + ky as isize - pad as isize;
                            if sy < 0 || sy >= h as isize {
                                continue;
                            }
                            for kx in 0..conv.kernel {
                                let sx = x as isize + kx as isize - pad as isize;
                                if sx < 0 || sx >= w as isize {
                                    continue;
                                }
                                let wgt =
                                    conv.weights[((oc * conv.in_channels + ic) * conv.kernel + ky)
                                        * conv.kernel
                                        + kx];
                                acc += wgt * input[(ic, sy as usize, sx as usize)];
                            }
                        }
                    }
                    out[(oc, y, x)] = acc;
                }
            }
        }
        out
    }

    #[test]
    fn forward_is_bitwise_the_output_stationary_loop() {
        // (in, out, kernel, height, width)
        let shapes = [
            // The network's layers at fast (12×12) and paper (16×16) scale:
            // conv1, fire squeeze / expand1 / expand3, class conv.
            (3, 8, 3, 12, 12),
            (3, 8, 3, 16, 16),
            (8, 4, 1, 6, 6),
            (16, 4, 1, 6, 6),
            (16, 4, 1, 3, 3),
            (4, 8, 1, 6, 6),
            (4, 8, 3, 6, 6),
            (4, 8, 3, 3, 3),
            (4, 8, 3, 8, 8),
            (4, 8, 3, 4, 4),
            (16, 10, 1, 3, 3),
            (16, 10, 1, 4, 4),
            // 5×5 kernels.
            (2, 3, 5, 7, 7),
            (2, 3, 5, 4, 9),
            // 1×1 images.
            (2, 3, 1, 1, 1),
            (2, 3, 3, 1, 1),
            (2, 3, 5, 1, 1),
            // Non-square images.
            (3, 2, 3, 5, 9),
            (3, 2, 3, 9, 5),
            (1, 2, 3, 1, 7),
            (1, 2, 3, 7, 1),
            // Kernels wider than the image (`pad > w`: inverted column range).
            (2, 2, 5, 3, 1),
            (2, 2, 7, 2, 2),
            (1, 1, 9, 3, 2),
        ];
        let mut rng = StdRng::seed_from_u64(0xC0_4D);
        for (case, &(ic, oc, k, h, w)) in shapes.iter().enumerate() {
            let conv = Conv2d::seeded(ic, oc, k, case as u64);
            for _ in 0..3 {
                let data = (0..ic * h * w).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let x = Tensor3::from_vec(ic, h, w, data);
                let bits =
                    |t: &Tensor3| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&conv.forward(&x)),
                    bits(&output_stationary(&conv, &x)),
                    "shape {:?}",
                    (ic, oc, k, h, w)
                );
            }
        }
    }

    #[test]
    fn conv_is_deterministic_per_seed() {
        let a = Conv2d::seeded(2, 3, 3, 7);
        let b = Conv2d::seeded(2, 3, 3, 7);
        let x = Tensor3::from_vec(2, 4, 4, (0..32).map(|i| i as f64 / 32.0).collect());
        assert_eq!(a.forward(&x), b.forward(&x));
        let c = Conv2d::seeded(2, 3, 3, 8);
        assert_ne!(a.forward(&x), c.forward(&x));
    }

    #[test]
    fn conv_1x1_is_channel_mixing_only() {
        let conv = Conv2d::seeded(2, 1, 1, 3);
        let mut x = Tensor3::zeros(2, 3, 3);
        x[(0, 1, 1)] = 1.0;
        let y = conv.forward(&x);
        // Only position (1,1) can differ from the bias response.
        let bias_only = conv.forward(&Tensor3::zeros(2, 3, 3));
        for yy in 0..3 {
            for xx in 0..3 {
                if (yy, xx) != (1, 1) {
                    assert_eq!(y[(0, yy, xx)], bias_only[(0, yy, xx)]);
                }
            }
        }
        assert_ne!(y[(0, 1, 1)], bias_only[(0, 1, 1)]);
    }

    #[test]
    fn conv_same_padding_preserves_spatial_shape() {
        let conv = Conv2d::seeded(1, 4, 3, 1);
        let x = Tensor3::zeros(1, 5, 7);
        assert_eq!(conv.forward(&x).shape(), (4, 5, 7));
    }

    #[test]
    fn conv_linearity() {
        // conv(2x) - bias-response == 2·(conv(x) - bias-response)
        let conv = Conv2d::seeded(1, 2, 3, 9);
        let x = Tensor3::from_vec(1, 4, 4, (0..16).map(|i| i as f64 / 16.0).collect());
        let x2 = Tensor3::from_vec(1, 4, 4, x.as_slice().iter().map(|v| v * 2.0).collect());
        let zero = conv.forward(&Tensor3::zeros(1, 4, 4));
        let y1 = conv.forward(&x);
        let y2 = conv.forward(&x2);
        for i in 0..y1.len() {
            let lin1 = y1.as_slice()[i] - zero.as_slice()[i];
            let lin2 = y2.as_slice()[i] - zero.as_slice()[i];
            assert!((lin2 - 2.0 * lin1).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_panics() {
        let _ = Conv2d::seeded(1, 1, 2, 0);
    }

    #[test]
    fn max_pool_halves_dimensions() {
        let t = Tensor3::zeros(3, 8, 6);
        assert_eq!(max_pool2(&t).shape(), (3, 4, 3));
    }

    #[test]
    fn relu_clamps_negatives_only() {
        let mut t = Tensor3::from_vec(1, 1, 4, vec![-5.0, -0.1, 0.1, 5.0]);
        relu_in_place(&mut t);
        assert_eq!(t.as_slice(), &[0.0, 0.0, 0.1, 5.0]);
    }

    #[test]
    fn argmax_ties_break_low() {
        assert_eq!(argmax(&[1.0, 1.0, 0.5]), 0);
    }
}
