//! Minimal 3-D tensor (channels × height × width).

use std::ops::{Index, IndexMut};

/// Dense `f64` tensor in CHW layout — the only activation/weight container
/// the mini network needs.
///
/// # Examples
///
/// ```
/// use krigeval_neural::Tensor3;
///
/// let mut t = Tensor3::zeros(2, 3, 4);
/// t[(1, 2, 3)] = 7.0;
/// assert_eq!(t[(1, 2, 3)], 7.0);
/// assert_eq!(t.shape(), (2, 3, 4));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor3 {
    channels: usize,
    height: usize,
    width: usize,
    data: Vec<f64>,
}

impl Tensor3 {
    /// Creates a zero-filled tensor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(channels: usize, height: usize, width: usize) -> Tensor3 {
        Tensor3::from_vec(
            channels,
            height,
            width,
            vec![0.0; channels * height * width],
        )
    }

    /// Builds a tensor from a flat CHW vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != channels * height * width` or any dimension
    /// is zero.
    pub fn from_vec(channels: usize, height: usize, width: usize, data: Vec<f64>) -> Tensor3 {
        assert_eq!(
            data.len(),
            channels * height * width,
            "data length does not match dimensions"
        );
        assert!(
            channels > 0 && height > 0 && width > 0,
            "tensor dimensions must be positive"
        );
        Tensor3 {
            channels,
            height,
            width,
            data,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Spatial height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Spatial width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// `(channels, height, width)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.channels, self.height, self.width)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the tensor holds no elements (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat CHW view.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat CHW view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Concatenates two tensors along the channel axis.
    ///
    /// # Panics
    ///
    /// Panics if the spatial dimensions disagree.
    pub fn concat_channels(&self, other: &Tensor3) -> Tensor3 {
        assert_eq!(
            (self.height, self.width),
            (other.height, other.width),
            "spatial shape mismatch in channel concat"
        );
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Tensor3::from_vec(
            self.channels + other.channels,
            self.height,
            self.width,
            data,
        )
    }

    /// Root-mean-square of all elements (used to scale injected noise
    /// relative to activation energy).
    pub fn rms(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        (self.data.iter().map(|v| v * v).sum::<f64>() / self.data.len() as f64).sqrt()
    }
}

impl Index<(usize, usize, usize)> for Tensor3 {
    type Output = f64;

    fn index(&self, (c, y, x): (usize, usize, usize)) -> &f64 {
        debug_assert!(c < self.channels && y < self.height && x < self.width);
        &self.data[(c * self.height + y) * self.width + x]
    }
}

impl IndexMut<(usize, usize, usize)> for Tensor3 {
    fn index_mut(&mut self, (c, y, x): (usize, usize, usize)) -> &mut f64 {
        debug_assert!(c < self.channels && y < self.height && x < self.width);
        &mut self.data[(c * self.height + y) * self.width + x]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_chw() {
        let t = Tensor3::from_vec(2, 2, 2, (0..8).map(f64::from).collect());
        assert_eq!(t[(0, 0, 0)], 0.0);
        assert_eq!(t[(0, 1, 1)], 3.0);
        assert_eq!(t[(1, 0, 0)], 4.0);
        assert_eq!(t[(1, 1, 1)], 7.0);
    }

    #[test]
    fn concat_stacks_channels() {
        let a = Tensor3::from_vec(1, 2, 2, vec![1.0; 4]);
        let b = Tensor3::from_vec(2, 2, 2, vec![2.0; 8]);
        let c = a.concat_channels(&b);
        assert_eq!(c.shape(), (3, 2, 2));
        assert_eq!(c[(0, 0, 0)], 1.0);
        assert_eq!(c[(1, 0, 0)], 2.0);
        assert_eq!(c[(2, 1, 1)], 2.0);
    }

    #[test]
    #[should_panic(expected = "spatial shape mismatch")]
    fn concat_rejects_mismatched_spatial() {
        let a = Tensor3::zeros(1, 2, 2);
        let b = Tensor3::zeros(1, 3, 2);
        let _ = a.concat_channels(&b);
    }

    #[test]
    fn rms_of_constant_tensor() {
        let t = Tensor3::from_vec(1, 2, 2, vec![3.0; 4]);
        assert!((t.rms() - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        let _ = Tensor3::zeros(0, 2, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn from_vec_zero_dimension_panics() {
        let _ = Tensor3::from_vec(0, 2, 2, vec![]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_validates_length() {
        let _ = Tensor3::from_vec(1, 2, 2, vec![0.0; 5]);
    }
}
