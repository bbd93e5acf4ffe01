//! Row-decomposed 2-D convolutions — the functional model of the dataflow.
//!
//! These functions rebuild the three training-stage convolutions exactly as
//! the accelerator executes them: each 2-D convolution is disassembled into
//! channel-level and then row-level 1-D operations (Fig. 6), dispatched to
//! the SRC/MSRC/OSRC primitives. They must produce bit-identical results to
//! the dense references in [`sparsetrain_tensor::conv`] (up to f32
//! accumulation order), which the tests verify.
//!
//! Execution is delegated to a [`KernelEngine`]: the plain functions keep
//! the original signatures and run on [`crate::engine::ScalarEngine`],
//! while arbitrary engines are driven through the trait's own convenience
//! methods ([`KernelEngine::forward`], [`KernelEngine::input_grad`],
//! [`KernelEngine::weight_grad`] and their batched variants).
//! All engines accumulate through the kernels' scratch APIs, so no per-row
//! heap allocation happens on any path.
//!
//! Operands travel as [`SparseFeatureMap`]s: one flat CSR buffer per map
//! (`row_ptr` of `channels · height + 1` prefix counts into map-wide
//! `offsets` and `values`), built by one exactly-sized compression pass.
//! Kernels read one row at a time through the borrowed [`SparseRow`] view
//! that [`SparseFeatureMap::row`] returns; every engine sees the same
//! `(offset, value)` sequence per row that a per-row layout would give.

use crate::compressed::SparseRow;
use crate::engine::{KernelEngine, ScalarEngine};
use crate::mask::RowMask;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::{Tensor3, Tensor4};

/// A feature map stored as compressed rows — the on-chip layout of sparse
/// activations and gradients.
///
/// The rows live in one flat CSR buffer: row `r = c·height + y` holds the
/// entries `row_ptr[r]..row_ptr[r + 1]` of the map-wide `offsets` and
/// `values` arrays, so a map costs three allocations whatever its shape.
/// [`SparseFeatureMap::row`] lends one row as a [`SparseRow`] view.
///
/// ```
/// use sparsetrain_sparse::rowconv::SparseFeatureMap;
/// use sparsetrain_tensor::Tensor3;
///
/// let t = Tensor3::from_fn(2, 2, 4, |_, _, x| if x % 2 == 0 { 1.0 } else { 0.0 });
/// let fm = SparseFeatureMap::from_tensor(&t);
/// assert_eq!(fm.density(), 0.5);
/// assert_eq!(fm.row(1, 0).offsets(), &[0, 2]);
/// assert_eq!(fm.to_tensor(), t);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseFeatureMap {
    channels: usize,
    height: usize,
    width: usize,
    /// `channels · height + 1` prefix counts into `offsets` / `values`.
    row_ptr: Box<[usize]>,
    offsets: Box<[u32]>,
    values: Box<[f32]>,
}

impl SparseFeatureMap {
    /// Compresses a dense feature map, dropping exact zeros.
    ///
    /// A counting pass sizes the buffers exactly; one branch-free pass then
    /// fills them, writing every element to the next free slot and
    /// advancing past it only when it is non-zero.
    pub fn from_tensor(t: &Tensor3) -> Self {
        let (c, h, w) = t.shape();
        let data = t.as_slice();
        let nnz = data.iter().filter(|&&v| v != 0.0).count();
        // The fill stops after the last non-zero: before it, fewer than
        // `nnz` slots are taken, so every write lands in range.
        let end = data.iter().rposition(|&v| v != 0.0).map_or(0, |i| i + 1);
        let mut row_ptr = Vec::with_capacity(c * h + 1);
        let mut offsets = vec![0u32; nnz];
        let mut values = vec![0.0f32; nnz];
        let mut n = 0;
        row_ptr.push(0);
        // `end > 0` implies `w > 0`.
        if end > 0 {
            for row in data[..end].chunks(w) {
                for (x, &v) in row.iter().enumerate() {
                    offsets[n] = x as u32;
                    values[n] = v;
                    n += usize::from(v != 0.0);
                }
                row_ptr.push(n);
            }
        }
        row_ptr.resize(c * h + 1, n);
        Self {
            channels: c,
            height: h,
            width: w,
            row_ptr: row_ptr.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
            values: values.into_boxed_slice(),
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

    /// The compressed row for channel `c`, spatial row `y`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row(&self, c: usize, y: usize) -> SparseRow<'_> {
        assert!(c < self.channels && y < self.height);
        self.row_at(c * self.height + y)
    }

    /// Row `r` in channel-major order.
    fn row_at(&self, r: usize) -> SparseRow<'_> {
        let span = self.row_ptr[r]..self.row_ptr[r + 1];
        SparseRow::from_parts(self.width, &self.offsets[span.clone()], &self.values[span])
    }

    /// Every row in channel-major order (`(c, y)` at index `c·height + y`).
    pub fn rows(&self) -> impl ExactSizeIterator<Item = SparseRow<'_>> + '_ {
        (0..self.channels * self.height).map(|r| self.row_at(r))
    }

    /// The stored values of channel `c`, in row-major order.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn channel_values(&self, c: usize) -> &[f32] {
        assert!(c < self.channels);
        &self.values[self.row_ptr[c * self.height]..self.row_ptr[(c + 1) * self.height]]
    }

    /// Total non-zero count.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Overall density (1.0 if the map has no elements).
    pub fn density(&self) -> f64 {
        let total = self.channels * self.height * self.width;
        if total == 0 {
            1.0
        } else {
            self.nnz() as f64 / total as f64
        }
    }

    /// Expands back to a dense tensor.
    pub fn to_tensor(&self) -> Tensor3 {
        let mut t = Tensor3::zeros(self.channels, self.height, self.width);
        let w = self.width;
        for (r, row) in self.rows().enumerate() {
            let dense = &mut t.as_mut_slice()[r * w..(r + 1) * w];
            for (x, v) in row.iter() {
                dense[x] = v;
            }
        }
        t
    }

    /// Returns a copy with every stored value mapped through `f`; values
    /// that map to exactly `0.0` are dropped from the compressed rows
    /// (quantization underflow produces genuinely empty positions, exactly
    /// as a fixed-point datapath would store them).
    pub fn map_values(&self, f: impl Fn(f32) -> f32) -> Self {
        let mut row_ptr = Vec::with_capacity(self.row_ptr.len());
        let mut offsets = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        row_ptr.push(0);
        for row in self.rows() {
            for (x, v) in row.iter() {
                let m = f(v);
                if m != 0.0 {
                    offsets.push(x as u32);
                    values.push(m);
                }
            }
            row_ptr.push(values.len());
        }
        Self {
            channels: self.channels,
            height: self.height,
            width: self.width,
            row_ptr: row_ptr.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
            values: values.into_boxed_slice(),
        }
    }

    /// Per-row non-zero masks (the Forward-step masks consumed by GTA).
    pub fn masks(&self) -> Vec<RowMask> {
        self.rows()
            .map(|r| RowMask::from_offsets(r.len(), r.offsets()))
            .collect()
    }

    /// Size of the compressed representation in 16-bit words.
    pub fn storage_words(&self) -> usize {
        2 * self.nnz()
    }
}

/// Forward step on the reference [`ScalarEngine`].
///
/// Equivalent to [`sparsetrain_tensor::conv::forward`]; every output row is
/// the accumulation of `C × K` SRC operations.
///
/// # Panics
///
/// Panics on shape mismatches between `input`, `weights` and `geom`.
pub fn forward_rows(
    input: &SparseFeatureMap,
    weights: &Tensor4,
    bias: Option<&[f32]>,
    geom: ConvGeometry,
) -> Tensor3 {
    ScalarEngine.forward(input, weights, bias, geom)
}

/// GTA step on the reference [`ScalarEngine`].
///
/// `dout` is the (sparse) output-gradient map; `masks` are the per-row
/// non-zero masks of the layer's forward *input* (one per `(channel, row)`
/// in channel-major order, as produced by [`SparseFeatureMap::masks`]).
/// Positions absent from the mask are skipped and left zero — exactly the
/// ReLU-backward fusion of the paper.
///
/// Equivalent to [`sparsetrain_tensor::conv::input_grad`] followed by
/// masking.
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn input_grad_rows(
    dout: &SparseFeatureMap,
    weights: &Tensor4,
    geom: ConvGeometry,
    in_h: usize,
    in_w: usize,
    masks: &[RowMask],
) -> Tensor3 {
    ScalarEngine.input_grad(dout, weights, geom, in_h, in_w, masks)
}

/// GTW step on the reference [`ScalarEngine`].
///
/// Equivalent to [`sparsetrain_tensor::conv::weight_grad`]; each kernel row
/// of `dW[fi][ci]` accumulates `Ho` OSRC results in place (no per-row tap
/// scratch).
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn weight_grad_rows(input: &SparseFeatureMap, dout: &SparseFeatureMap, geom: ConvGeometry) -> Tensor4 {
    ScalarEngine.weight_grad(input, dout, geom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsetrain_tensor::conv;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
                "mismatch at {i}: {x} vs {y}"
            );
        }
    }

    fn pseudo(seed: &mut u64) -> f32 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        ((*seed % 2000) as f32 / 1000.0) - 1.0
    }

    fn sparse_tensor(c: usize, h: usize, w: usize, density_pct: u64, seed: &mut u64) -> Tensor3 {
        Tensor3::from_fn(c, h, w, |_, _, _| {
            let v = pseudo(seed);
            let keep = {
                *seed ^= *seed << 13;
                *seed ^= *seed >> 7;
                *seed % 100 < density_pct
            };
            if keep {
                v
            } else {
                0.0
            }
        })
    }

    #[test]
    fn forward_rows_matches_dense() {
        for &(stride, pad) in &[(1usize, 1usize), (2, 1), (1, 0)] {
            let geom = ConvGeometry::new(3, stride, pad);
            let mut seed = 42;
            let input = sparse_tensor(3, 8, 8, 40, &mut seed);
            let weights = Tensor4::from_fn(4, 3, 3, 3, |_, _, _, _| pseudo(&mut seed));
            let bias: Vec<f32> = (0..4).map(|_| pseudo(&mut seed)).collect();
            let want = conv::forward(&input, &weights, Some(&bias), geom);
            let fm = SparseFeatureMap::from_tensor(&input);
            let got = forward_rows(&fm, &weights, Some(&bias), geom);
            assert_close(got.as_slice(), want.as_slice(), 1e-5);
        }
    }

    #[test]
    fn input_grad_rows_matches_dense_with_full_mask() {
        for &(stride, pad) in &[(1usize, 1usize), (2, 1)] {
            let geom = ConvGeometry::new(3, stride, pad);
            let mut seed = 7;
            let (h, w) = (8, 8);
            let oh = geom.output_extent(h);
            let dout = sparse_tensor(4, oh, oh, 35, &mut seed);
            let weights = Tensor4::from_fn(4, 3, 3, 3, |_, _, _, _| pseudo(&mut seed));
            let want = conv::input_grad(&dout, &weights, geom, h, w);
            let fm = SparseFeatureMap::from_tensor(&dout);
            let masks: Vec<RowMask> = (0..3 * h).map(|_| RowMask::full(w)).collect();
            let got = input_grad_rows(&fm, &weights, geom, h, w, &masks);
            assert_close(got.as_slice(), want.as_slice(), 1e-5);
        }
    }

    #[test]
    fn input_grad_rows_respects_masks() {
        let geom = ConvGeometry::new(3, 1, 1);
        let mut seed = 17;
        let dout = sparse_tensor(2, 6, 6, 50, &mut seed);
        let weights = Tensor4::from_fn(2, 2, 3, 3, |_, _, _, _| pseudo(&mut seed));
        let forward_input = sparse_tensor(2, 6, 6, 50, &mut seed);
        let in_fm = SparseFeatureMap::from_tensor(&forward_input);
        let masks = in_fm.masks();
        let fm = SparseFeatureMap::from_tensor(&dout);
        let got = input_grad_rows(&fm, &weights, geom, 6, 6, &masks);
        // Reference: dense input grad, then zero where forward input was zero
        // (the ReLU-backward rule).
        let mut want = conv::input_grad(&dout, &weights, geom, 6, 6);
        for c in 0..2 {
            for y in 0..6 {
                for x in 0..6 {
                    if forward_input.get(c, y, x) == 0.0 {
                        want.set(c, y, x, 0.0);
                    }
                }
            }
        }
        assert_close(got.as_slice(), want.as_slice(), 1e-5);
    }

    #[test]
    fn weight_grad_rows_matches_dense() {
        for &(stride, pad) in &[(1usize, 1usize), (2, 1)] {
            let geom = ConvGeometry::new(3, stride, pad);
            let mut seed = 23;
            let input = sparse_tensor(3, 8, 8, 45, &mut seed);
            let oh = geom.output_extent(8);
            let dout = sparse_tensor(2, oh, oh, 30, &mut seed);
            let want = conv::weight_grad(&input, &dout, geom);
            let got = weight_grad_rows(
                &SparseFeatureMap::from_tensor(&input),
                &SparseFeatureMap::from_tensor(&dout),
                geom,
            );
            assert_close(got.as_slice(), want.as_slice(), 1e-5);
        }
    }

    #[test]
    fn feature_map_roundtrip_and_masks() {
        let t = Tensor3::from_fn(2, 3, 4, |c, y, x| if (c + y + x) % 3 == 0 { 1.0 } else { 0.0 });
        let fm = SparseFeatureMap::from_tensor(&t);
        assert_eq!(fm.to_tensor(), t);
        let masks = fm.masks();
        assert_eq!(masks.len(), 6);
        assert_eq!(
            masks.iter().map(RowMask::count).sum::<usize>(),
            t.as_slice().iter().filter(|&&v| v != 0.0).count()
        );
    }
}
