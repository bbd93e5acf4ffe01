//! Runtime-dispatched vectorized kernel engine (`"simd"`).
//!
//! [`SimdEngine`] executes the SRC / MSRC / OSRC inner loops across wide
//! lanes while staying **bitwise identical** to
//! [`crate::engine::ScalarEngine`]. The trick is the choice of vector
//! axis: lanes always run across *independent output elements* — output
//! pixels for Forward, input-gradient channels for GTA, weight-gradient
//! cells for GTW — with the scalar operand (one kernel tap, one gradient
//! value) broadcast, and never across a reduction dimension. Each output
//! element therefore accumulates its contributions in exactly the scalar
//! engine's per-element order, one two-rounding `acc + x·w` at a time (the
//! scalar kernels never fuse into `mul_add`, so neither does this engine —
//! an FMA would change the rounding):
//!
//! * **SRC (Forward)** — for each kernel tap `v` (ascending, the scalar
//!   per-element order), the whole output row takes
//!   `out[ox] += in_dense[ox − pad + v] · w[v]`: a shifted contiguous
//!   *axpy* sweep with the tap broadcast.
//! * **MSRC (GTA)** — lanes span the channel axis. The weights are
//!   repacked once per call to `(f, u, v, c)` order (sliced to a channel
//!   band's channels), and each sample's band accumulates in a
//!   channel-last `H × W × C` buffer seeded from `din`. For each filter
//!   (ascending) and each output-gradient non-zero `(oy, ox)` (ascending),
//!   every in-bounds kernel row `u` takes one sweep
//!   `acc[iy][ix_lo..ix_hi][·] += W[f][u][v_lo..v_hi][·] · g` of length
//!   `(v_hi − v_lo)·C`: all taps and all band channels at once. Per input
//!   element the contributions arrive in `(f, oy, ox)` order — the scalar
//!   order — at any stride. Only positions inside the forward mask are
//!   written back, so masked positions keep their seed exactly.
//! * **OSRC (GTW)** — lanes span a whole patch row. Each sample's
//!   output-gradient non-zeros are regrouped position-major in
//!   `O(nnz)` (filters ascending within a position). For each output
//!   position with entries (ascending), one `(c, u, v)` patch row of
//!   `C·K²` inputs (zero outside the map) is gathered from the densified
//!   input and swept into the `dW` block of every listed filter, which is
//!   already `(c, u, v)`-ordered — `dw` itself is the accumulator. Per
//!   weight-gradient cell the contributions arrive in `(sample, oy, ox)`
//!   order — the scalar order — at any stride.
//!
//! Both backward kernels do work proportional to the output gradient's
//! non-zeros (GTW adds one `C·K²` gather per output position that has
//! any), and neither materializes a patch matrix.
//!
//! The sweeps touch terms the scalar kernels skip — stored zeros, zero
//! taps, padding, masked GTA positions (accumulated, never written back).
//! Those contribute `x + (±0.0·w) = x` exactly on finite data, because an
//! accumulator that starts at anything but `-0.0` can never become `-0.0`
//! under round-to-nearest (an exactly cancelling sum rounds to `+0.0`).
//! The one representable hazard — a caller-supplied literal `-0.0` in the
//! bias or the pre-seeded accumulator — falls back to the scalar band (a
//! cheap one-pass bit scan guards every band), as do strides ≠ 1 on the
//! forward row sweeps (the gather would be non-contiguous) and forward
//! rows too sparse to be worth densifying (fewer than one non-zero per
//! lane block on average); every fallback is the scalar code itself, so
//! parity is unconditional.
//!
//! Per-call operand work is hoisted **above the band fan-out**: the
//! engine's `prepare_*` hooks build the densified forward input and the
//! GTW densified input plus position-major gradient once per engine call
//! into a [`crate::engine::BandContext`], and every band worker borrows
//! it. A band invoked without a prepared context (direct band calls)
//! prepares locally, so results never depend on who prepared. The GTA
//! weight repack needs no context: each channel band repacks only its own
//! channels, and the engine's batched GTA entry point repacks once for
//! the whole batch.
//!
//! Two implementations sit behind one runtime dispatch:
//!
//! * a **portable** lane-blocked path (fixed `[f32; 8]` blocks that LLVM
//!   autovectorizes on every target), and
//! * an **x86_64 AVX2+FMA** path (`#[target_feature]` + `std::arch`
//!   intrinsics, selected per process via `is_x86_feature_detected!`;
//!   `vmulps`/`vaddps` only — the FMA feature is enabled for the encoder
//!   but never used to contract, see above).
//!
//! Both produce identical bits; [`SimdEngine::portable`] pins the portable
//! path for tests and cross-checks. Thread-level parallelism composes
//! through [`crate::engine::ParallelEngine::over`]: the registry's
//! `"parallel:simd"` runs these band workers inside each rayon band.

use crate::compressed::SparseRow;
use crate::engine::{
    check_input_grad, check_weight_grad, scalar_forward_band, scalar_input_grad_band,
    scalar_weight_grad_band, BandContext, KernelEngine,
};
use crate::mask::RowMask;
use crate::rowconv::SparseFeatureMap;
use crate::src::src_accumulate;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::{Tensor3, Tensor4};

/// Vector lane-block width of the portable path (f32 lanes per block, one
/// AVX2 register). Also the chunk-alignment granularity of the parallel
/// element seam.
pub(crate) const LANES: usize = 8;

/// A sparse row is worth the dense sweep once it averages at least one
/// non-zero per vector block: the sweep costs `len / LANES` block ops
/// where the sparse kernel costs `nnz` scalar ops.
const DENSE_CUTOFF_LANES: usize = LANES;

fn dense_worthwhile(nnz: usize, len: usize) -> bool {
    nnz * DENSE_CUTOFF_LANES >= len
}

pub(crate) fn contains_negative_zero(values: &[f32]) -> bool {
    values.iter().any(|v| v.to_bits() == (-0.0f32).to_bits())
}

/// Whether the seed every forward output element starts from — the bias,
/// or with none the pre-seeded accumulator — holds a literal `-0.0`, which
/// only the scalar skip of zero inputs preserves (shared with the im2row
/// engine).
pub(crate) fn seeds_negative_zero(bias: Option<&[f32]>, out_band: &[f32]) -> bool {
    match bias {
        Some(b) => contains_negative_zero(b),
        None => contains_negative_zero(out_band),
    }
}

/// Whether this process supports the AVX2+FMA fast path (shared with the
/// im2row engine's dispatch).
pub(crate) fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static DETECTED: OnceLock<bool> = OnceLock::new();
        *DETECTED.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// The vector primitive (portable + AVX2)
// ---------------------------------------------------------------------------

/// `dst[i] += src[i] * w` — multiply then add, two roundings, exactly the
/// scalar kernels' arithmetic.
fn saxpy(avx2: bool, dst: &mut [f32], src: &[f32], w: f32) {
    debug_assert_eq!(dst.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: `avx2` is only true when runtime detection reported
        // AVX2+FMA support for this process.
        unsafe { saxpy_avx2(dst, src, w) };
        return;
    }
    let _ = avx2;
    saxpy_portable(dst, src, w);
}

/// Portable lane-blocked axpy: fixed-width `[f32; LANES]` blocks keep the
/// loop free of trip-count surprises so LLVM emits one vector multiply and
/// one vector add per block on every target.
fn saxpy_portable(dst: &mut [f32], src: &[f32], w: f32) {
    let mut d = dst.chunks_exact_mut(LANES);
    let mut s = src.chunks_exact(LANES);
    for (db, sb) in (&mut d).zip(&mut s) {
        let db: &mut [f32; LANES] = db.try_into().expect("exact chunk");
        let sb: &[f32; LANES] = sb.try_into().expect("exact chunk");
        for i in 0..LANES {
            db[i] += sb[i] * w;
        }
    }
    for (d1, s1) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *d1 += *s1 * w;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn saxpy_avx2(dst: &mut [f32], src: &[f32], w: f32) {
    use std::arch::x86_64::*;
    let n = dst.len();
    let wv = _mm256_set1_ps(w);
    let mut i = 0usize;
    while i + LANES <= n {
        let d = _mm256_loadu_ps(dst.as_ptr().add(i));
        let s = _mm256_loadu_ps(src.as_ptr().add(i));
        // Deliberately vmulps + vaddps, not vfmadd: the scalar reference
        // rounds the product before the add.
        let r = _mm256_add_ps(d, _mm256_mul_ps(s, wv));
        _mm256_storeu_ps(dst.as_mut_ptr().add(i), r);
        i += LANES;
    }
    while i < n {
        *dst.get_unchecked_mut(i) += *src.get_unchecked(i) * w;
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Operand preparation
// ---------------------------------------------------------------------------

/// Writes the rows of `fm` selected by `select` into a dense channel-major
/// buffer zero-padded by `pad` on every side
/// (`channels × (height + 2·pad) × (width + 2·pad)`); unselected rows are
/// left zero (they are only read through the sparse fallback).
pub(crate) fn densify_map(
    fm: &SparseFeatureMap,
    pad: usize,
    select: impl Fn(SparseRow<'_>) -> bool,
) -> Vec<f32> {
    let (h, w) = (fm.height(), fm.width());
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let mut dense = vec![0.0f32; fm.channels() * hp * wp];
    for (r, row) in fm.rows().enumerate() {
        if select(row) {
            let (ci, iy) = (r / h, r % h);
            let out = &mut dense[ci * hp * wp + (iy + pad) * wp + pad..][..w];
            for (ix, val) in row.iter() {
                out[ix] = val;
            }
        }
    }
    dense
}

/// Densifies every dense-worthy row of `fm`, or `None` when no row
/// qualifies for the vector sweeps (the whole map routes to the sparse
/// kernels and no buffer is needed).
fn densify_worthy(fm: &SparseFeatureMap) -> Option<Vec<f32>> {
    let worthy = |row: SparseRow<'_>| dense_worthwhile(row.nnz(), row.len());
    fm.rows().any(worthy).then(|| densify_map(fm, 0, worthy))
}

/// The GTA weights of channels `c_lo..c_lo + n_c`, repacked to
/// `(f, u, v, c)` order so one kernel row's taps and channels are one
/// contiguous run.
fn repack_gta_weights(weights: &Tensor4, c_lo: usize, n_c: usize) -> Vec<f32> {
    let (f, _, k, _) = weights.shape();
    let mut packed = vec![0.0f32; f * k * k * n_c];
    for fi in 0..f {
        for j in 0..n_c {
            for u in 0..k {
                for (v, &w) in weights.kernel_row(fi, c_lo + j, u).iter().enumerate() {
                    packed[((fi * k + u) * k + v) * n_c + j] = w;
                }
            }
        }
    }
    packed
}

/// One sample's output-gradient non-zeros regrouped by output position
/// `p = oy · width + ox`: entries `starts[p]..starts[p + 1]` are position
/// `p`'s `(filter, value)` pairs, filters ascending.
struct PositionMajor {
    width: usize,
    starts: Vec<usize>,
    filters: Vec<usize>,
    values: Vec<f32>,
}

impl PositionMajor {
    /// A counting-sort transpose, `O(nnz + positions)`.
    fn of(dout: &SparseFeatureMap) -> Self {
        let (oh, ow) = (dout.height(), dout.width());
        let mut starts = vec![0usize; oh * ow + 1];
        for fi in 0..dout.channels() {
            for oy in 0..oh {
                for &ox in dout.row(fi, oy).offsets() {
                    starts[oy * ow + ox as usize + 1] += 1;
                }
            }
        }
        for p in 0..oh * ow {
            starts[p + 1] += starts[p];
        }
        let nnz = starts[oh * ow];
        let mut filters = vec![0usize; nnz];
        let mut values = vec![0.0f32; nnz];
        let mut cursor = starts[..oh * ow].to_vec();
        // Filters outermost, so each position's entries land ascending.
        for fi in 0..dout.channels() {
            for oy in 0..oh {
                for (ox, g) in dout.row(fi, oy).iter() {
                    let slot = &mut cursor[oy * ow + ox];
                    filters[*slot] = fi;
                    values[*slot] = g;
                    *slot += 1;
                }
            }
        }
        Self {
            width: ow,
            starts,
            filters,
            values,
        }
    }
}

/// The GTW operands of one sample: its input densified in full
/// (channel-major `C × H × W`) and its output gradient position-major.
struct GtwOperands {
    input: Vec<f32>,
    dout: PositionMajor,
}

impl GtwOperands {
    fn of(input: &SparseFeatureMap, dout: &SparseFeatureMap) -> Self {
        Self {
            input: densify_map(input, 0, |_| true),
            dout: PositionMajor::of(dout),
        }
    }
}

// ---------------------------------------------------------------------------
// Backward kernels
// ---------------------------------------------------------------------------

/// GTA over one sample's channel band `c_lo..c_lo + n_c`, given the band's
/// repacked weights. `din_band` must hold no `-0.0` (the caller guards).
#[allow(clippy::too_many_arguments)]
fn gta_band(
    avx2: bool,
    packed: &[f32],
    dout: &SparseFeatureMap,
    geom: ConvGeometry,
    masks: &[RowMask],
    in_h: usize,
    in_w: usize,
    c_lo: usize,
    din_band: &mut [f32],
) {
    let plane = in_h * in_w;
    let n_c = din_band.len() / plane;
    let (k, stride, pad) = (geom.kernel, geom.stride as isize, geom.pad as isize);
    // Channel-last accumulator seeded from the caller's din.
    let mut acc = vec![0.0f32; plane * n_c];
    for (j, src) in din_band.chunks(plane).enumerate() {
        for (p, &x) in src.iter().enumerate() {
            acc[p * n_c + j] = x;
        }
    }
    // (f, oy, ox) ascending is the scalar per-element order; each u then
    // reaches a distinct input row, so it may sit anywhere inside.
    for fi in 0..dout.channels() {
        for oy in 0..dout.height() {
            let grow = dout.row(fi, oy);
            if grow.nnz() == 0 {
                continue;
            }
            for u in 0..k {
                let iy = oy as isize * stride - pad + u as isize;
                if iy < 0 || iy >= in_h as isize {
                    continue;
                }
                let acc_row = &mut acc[iy as usize * in_w * n_c..(iy as usize + 1) * in_w * n_c];
                let w_row = &packed[(fi * k + u) * k * n_c..(fi * k + u + 1) * k * n_c];
                for (ox, g) in grow.iter() {
                    let base = ox as isize * stride - pad;
                    let v_lo = (-base).clamp(0, k as isize) as usize;
                    let v_hi = (in_w as isize - base).clamp(0, k as isize) as usize;
                    if v_lo < v_hi {
                        let ix_lo = (base + v_lo as isize) as usize;
                        let dst = &mut acc_row[ix_lo * n_c..(ix_lo + v_hi - v_lo) * n_c];
                        saxpy(avx2, dst, &w_row[v_lo * n_c..v_hi * n_c], g);
                    }
                }
            }
        }
    }
    for (j, dst) in din_band.chunks_mut(plane).enumerate() {
        for iy in 0..in_h {
            for ix in masks[(c_lo + j) * in_h + iy].iter() {
                dst[iy * in_w + ix] = acc[(iy * in_w + ix) * n_c + j];
            }
        }
    }
}

/// GTW of one sample into the filter band `f_lo..`, accumulating straight
/// into `dw_band`. `dw_band` must hold no `-0.0` (the caller guards).
fn gtw_band(
    avx2: bool,
    ops: &GtwOperands,
    input: &SparseFeatureMap,
    geom: ConvGeometry,
    f_lo: usize,
    dw_band: &mut [f32],
) {
    let (c, h, w_in) = (input.channels(), input.height(), input.width());
    let (k, stride, pad) = (geom.kernel, geom.stride as isize, geom.pad as isize);
    let patch_len = c * k * k;
    let f_hi = f_lo + dw_band.len() / patch_len;
    let pm = &ops.dout;
    let mut patch = vec![0.0f32; patch_len];
    for p in 0..pm.starts.len() - 1 {
        let entries = pm.starts[p]..pm.starts[p + 1];
        let filters = &pm.filters[entries.clone()];
        let lo = filters.partition_point(|&fi| fi < f_lo);
        let hi = filters.partition_point(|&fi| fi < f_hi);
        if lo == hi {
            continue;
        }
        // Gather the (c, u, v) patch row; padding stays zero.
        let (oy, ox) = ((p / pm.width) as isize, (p % pm.width) as isize);
        let base = ox * stride - pad;
        let v_lo = (-base).clamp(0, k as isize) as usize;
        let v_hi = (w_in as isize - base).clamp(0, k as isize) as usize;
        patch.fill(0.0);
        for ci in 0..c {
            for u in 0..k {
                let iy = oy * stride - pad + u as isize;
                if iy < 0 || iy >= h as isize || v_lo >= v_hi {
                    continue;
                }
                let row = (ci * h + iy as usize) * w_in;
                let src =
                    &ops.input[row + (base + v_lo as isize) as usize..row + (base + v_hi as isize) as usize];
                patch[(ci * k + u) * k + v_lo..(ci * k + u) * k + v_hi].copy_from_slice(src);
            }
        }
        for e in entries.start + lo..entries.start + hi {
            let fi = pm.filters[e] - f_lo;
            saxpy(
                avx2,
                &mut dw_band[fi * patch_len..(fi + 1) * patch_len],
                &patch,
                pm.values[e],
            );
        }
    }
}

// ---------------------------------------------------------------------------
// SimdEngine
// ---------------------------------------------------------------------------

/// The runtime-dispatched vectorized engine, registered as `"simd"` (and,
/// banded across threads, as `"parallel:simd"`).
///
/// ```
/// use sparsetrain_sparse::{registry, SimdEngine};
///
/// let handle = registry::lookup("simd").unwrap();
/// assert_eq!(handle.engine().name(), "simd");
/// // The portable path is always available and bitwise-equal to AVX2.
/// assert_eq!(SimdEngine::portable().active_path(), "portable");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SimdEngine {
    force_portable: bool,
}

impl SimdEngine {
    /// Engine dispatching to AVX2+FMA when the CPU reports it, the
    /// portable lane-blocked path otherwise.
    pub const fn auto() -> Self {
        Self {
            force_portable: false,
        }
    }

    /// Engine pinned to the portable lane-blocked path (tests,
    /// cross-checks, reproducing non-x86 behaviour on x86).
    pub const fn portable() -> Self {
        Self { force_portable: true }
    }

    fn use_avx2(&self) -> bool {
        !self.force_portable && avx2_available()
    }

    /// Which implementation this engine's sweeps run on right now:
    /// `"avx2"` or `"portable"`. When AVX2 (or FMA) is reported absent —
    /// or the engine was built with [`SimdEngine::portable`] — this is
    /// always `"portable"`.
    pub fn active_path(&self) -> &'static str {
        if self.use_avx2() {
            "avx2"
        } else {
            "portable"
        }
    }

    /// GTA of one sample's channel band on `packed` (the band's repacked
    /// weights), or the scalar band when a literal `-0.0` is pre-seeded —
    /// only the scalar skips preserve it.
    #[allow(clippy::too_many_arguments)]
    fn input_grad_guarded(
        &self,
        packed: &[f32],
        dout: &SparseFeatureMap,
        weights: &Tensor4,
        geom: ConvGeometry,
        masks: &[RowMask],
        in_h: usize,
        in_w: usize,
        c_lo: usize,
        din_band: &mut [f32],
    ) {
        if contains_negative_zero(din_band) {
            scalar_input_grad_band(dout, weights, geom, masks, in_h, in_w, c_lo, din_band);
        } else {
            gta_band(
                self.use_avx2(),
                packed,
                dout,
                geom,
                masks,
                in_h,
                in_w,
                c_lo,
                din_band,
            );
        }
    }
}

impl KernelEngine for SimdEngine {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn prepare_forward(
        &self,
        input: &SparseFeatureMap,
        _weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
    ) -> BandContext {
        let mut ctx = BandContext::empty();
        // When every band will take the scalar fallback anyway (stride ≠ 1,
        // literal -0.0 bias), densifying would be wasted work.
        if geom.stride == 1 && !bias.is_some_and(contains_negative_zero) {
            if let Some(dense) = densify_worthy(input) {
                ctx.set_dense(dense);
            }
        }
        ctx
    }

    fn forward_band(
        &self,
        ctx: &BandContext,
        input: &SparseFeatureMap,
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
        oh: usize,
        ow: usize,
        f_lo: usize,
        out_band: &mut [f32],
    ) {
        // Stride ≠ 1 would make the row gather non-contiguous; a literal
        // -0.0 in the bias (or, with no bias to overwrite it, in the
        // pre-seeded accumulator) is only preserved by the scalar skip of
        // zero inputs.
        if geom.stride != 1 || seeds_negative_zero(bias, out_band) {
            scalar_forward_band(input, weights, bias, geom, oh, ow, f_lo, out_band, |_| true);
            return;
        }
        let avx2 = self.use_avx2();
        let (h, w_in, k, pad) = (input.height(), input.width(), geom.kernel, geom.pad);
        // Borrow the densified map the call prepared once above the band
        // fan-out; densify locally only when invoked without one.
        let local;
        let idense: &[f32] = if !ctx.dense().is_empty() {
            ctx.dense()
        } else {
            local = densify_worthy(input).unwrap_or_default();
            &local
        };
        for (bf, plane) in out_band.chunks_mut(oh * ow).enumerate() {
            let fi = f_lo + bf;
            if let Some(b) = bias {
                plane.fill(b[fi]);
            }
            for (oy, out_row) in plane.chunks_mut(ow).enumerate() {
                for u in 0..k {
                    let iy = oy as isize - pad as isize + u as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    for ci in 0..input.channels() {
                        let row = input.row(ci, iy);
                        let krow = weights.kernel_row(fi, ci, u);
                        if !dense_worthwhile(row.nnz(), row.len()) {
                            src_accumulate(row, krow, geom, out_row);
                            continue;
                        }
                        let in_row = &idense[(ci * h + iy) * w_in..(ci * h + iy + 1) * w_in];
                        // Taps ascending: for a fixed output pixel, ascending
                        // tap index is ascending input index — the scalar
                        // per-element accumulation order.
                        for (v, &w) in krow.iter().enumerate() {
                            if w == 0.0 {
                                continue;
                            }
                            // out[ox] += in[ox - pad + v] * w over the ox
                            // range whose input index is in bounds.
                            let shift = v as isize - pad as isize;
                            let lo = (-shift).max(0) as usize;
                            let hi = (w_in as isize - shift).clamp(0, ow as isize) as usize;
                            if lo < hi {
                                let src =
                                    &in_row[(lo as isize + shift) as usize..(hi as isize + shift) as usize];
                                saxpy(avx2, &mut out_row[lo..hi], src, w);
                            }
                        }
                    }
                }
            }
        }
    }

    fn input_grad_band(
        &self,
        _ctx: &BandContext,
        dout: &SparseFeatureMap,
        weights: &Tensor4,
        geom: ConvGeometry,
        masks: &[RowMask],
        in_h: usize,
        in_w: usize,
        c_lo: usize,
        din_band: &mut [f32],
    ) {
        // Each band repacks only its own channels, so the bands of one
        // call repack the weights once between them, in parallel.
        let packed = repack_gta_weights(weights, c_lo, din_band.len() / (in_h * in_w));
        self.input_grad_guarded(&packed, dout, weights, geom, masks, in_h, in_w, c_lo, din_band);
    }

    fn input_grad_batch_into(
        &self,
        douts: &[SparseFeatureMap],
        weights: &Tensor4,
        geom: ConvGeometry,
        masks: &[Vec<RowMask>],
        dins: &mut [Tensor3],
    ) {
        assert_eq!(douts.len(), dins.len(), "batch length mismatch");
        assert_eq!(douts.len(), masks.len(), "batch mask length mismatch");
        // The repack depends on the weights alone: once for the batch.
        let packed = repack_gta_weights(weights, 0, weights.channels());
        for ((dout, mask), din) in douts.iter().zip(masks).zip(dins.iter_mut()) {
            check_input_grad(dout, weights, geom, mask, din);
            let (_, in_h, in_w) = din.shape();
            self.input_grad_guarded(
                &packed,
                dout,
                weights,
                geom,
                mask,
                in_h,
                in_w,
                0,
                din.as_mut_slice(),
            );
        }
    }

    fn prepare_weight_grad(
        &self,
        input: &SparseFeatureMap,
        dout: &SparseFeatureMap,
        _geom: ConvGeometry,
    ) -> BandContext {
        let mut ctx = BandContext::empty();
        ctx.set_ext(GtwOperands::of(input, dout));
        ctx
    }

    fn weight_grad_band(
        &self,
        ctx: &BandContext,
        input: &SparseFeatureMap,
        dout: &SparseFeatureMap,
        geom: ConvGeometry,
        f_lo: usize,
        dw_band: &mut [f32],
    ) {
        // A pre-seeded -0.0 in the accumulator is only preserved by the
        // scalar skip of zero window positions.
        if contains_negative_zero(dw_band) {
            scalar_weight_grad_band(input, dout, geom, f_lo, dw_band);
            return;
        }
        let local;
        let ops = match ctx.ext::<GtwOperands>() {
            Some(ops) => ops,
            None => {
                local = GtwOperands::of(input, dout);
                &local
            }
        };
        gtw_band(self.use_avx2(), ops, input, geom, f_lo, dw_band);
    }

    fn weight_grad_batch_into(
        &self,
        inputs: &[SparseFeatureMap],
        douts: &[SparseFeatureMap],
        geom: ConvGeometry,
        dw: &mut Tensor4,
    ) {
        assert_eq!(inputs.len(), douts.len(), "batch length mismatch");
        // Accumulation never turns a non-(-0.0) cell into -0.0, so one
        // scan before the batch guards every sample.
        if contains_negative_zero(dw.as_slice()) {
            for (input, dout) in inputs.iter().zip(douts) {
                check_weight_grad(input, dout, geom, dw);
                scalar_weight_grad_band(input, dout, geom, 0, dw.as_mut_slice());
            }
            return;
        }
        let avx2 = self.use_avx2();
        for (input, dout) in inputs.iter().zip(douts) {
            check_weight_grad(input, dout, geom, dw);
            let ops = GtwOperands::of(input, dout);
            gtw_band(avx2, &ops, input, geom, 0, dw.as_mut_slice());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{ParallelEngine, ScalarEngine};
    use sparsetrain_tensor::Tensor3;

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

    type Fixtures = (SparseFeatureMap, Tensor4, Vec<f32>, SparseFeatureMap);

    /// A 3-channel 9 × 11 input, 4 filters, bias and a matching output
    /// gradient.
    fn fixtures(seed: u64, density_pct: u64, geom: ConvGeometry) -> Fixtures {
        fixtures_sized(seed, density_pct, geom, 3, 4)
    }

    fn fixtures_sized(seed: u64, density_pct: u64, geom: ConvGeometry, c: usize, f: usize) -> Fixtures {
        let mut s = seed;
        let input = sparse_tensor(c, 9, 11, density_pct, &mut s);
        let weights = Tensor4::from_fn(f, c, geom.kernel, geom.kernel, |_, _, _, _| {
            // Sprinkle exact zeros so the w == 0 tap skip is exercised.
            let v = pseudo(&mut s);
            if v.abs() < 0.1 {
                0.0
            } else {
                v
            }
        });
        let bias: Vec<f32> = (0..f).map(|_| pseudo(&mut s)).collect();
        let oh = geom.output_extent(9);
        let ow = geom.output_extent(11);
        let dout = sparse_tensor(f, oh, ow, density_pct, &mut s);
        (
            SparseFeatureMap::from_tensor(&input),
            weights,
            bias,
            SparseFeatureMap::from_tensor(&dout),
        )
    }

    fn engines() -> Vec<(&'static str, SimdEngine)> {
        vec![("auto", SimdEngine::auto()), ("portable", SimdEngine::portable())]
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Dense and very sparse fixtures at every kernel size, stride and pad
    /// the layers use — K = 1 shortcuts, stride-2 downsampling, windows
    /// hanging off both edges — on the vector paths and the forward's
    /// sparse-row and stride fallbacks: every stage matches the scalar
    /// reference bit for bit.
    #[test]
    fn simd_matches_scalar_bitwise_on_all_paths() {
        for (k, stride, pad) in
            (1..=3).flat_map(|k| (1..=2).flat_map(move |s| (0..=1).map(move |p| (k, s, p))))
        {
            let geom = ConvGeometry::new(k, stride, pad);
            for density in [5u64, 40, 90] {
                let (input, weights, bias, dout) = fixtures(11 + density + k as u64, density, geom);
                let masks = input.masks();
                for (label, simd) in engines() {
                    let ctx = format!("{label} k={k} s={stride} p={pad} d={density}");
                    let want = ScalarEngine.forward(&input, &weights, Some(&bias), geom);
                    let got = simd.forward(&input, &weights, Some(&bias), geom);
                    assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "forward {ctx}");

                    let want = ScalarEngine.input_grad(&dout, &weights, geom, 9, 11, &masks);
                    let got = simd.input_grad(&dout, &weights, geom, 9, 11, &masks);
                    assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "input_grad {ctx}");

                    let want = ScalarEngine.weight_grad(&input, &dout, geom);
                    let got = simd.weight_grad(&input, &dout, geom);
                    assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "weight_grad {ctx}");
                }
            }
        }
    }

    /// Output-gradient rows that are all empty, a filter with no non-zero
    /// at all, and channels whose forward mask is empty: masked positions
    /// keep their pre-seeded value exactly and everything matches scalar.
    #[test]
    fn empty_gradient_rows_and_fully_masked_channels() {
        let geom = ConvGeometry::new(3, 1, 1);
        let (input, weights, _, dout) = fixtures(91, 50, geom);
        let mut g = dout.to_tensor();
        for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
            let (fi, oy) = (i / (9 * 11), i / 11 % 9);
            if fi == 2 || oy % 2 == 1 {
                *v = 0.0;
            }
        }
        let dout = SparseFeatureMap::from_tensor(&g);
        let mut masks = input.masks();
        for (row, mask) in masks.iter_mut().enumerate() {
            match row / 9 {
                0 => *mask = RowMask::empty(11),
                1 => *mask = RowMask::full(11),
                _ => {}
            }
        }
        let mut seeded = Tensor3::zeros(3, 9, 11);
        for (i, v) in seeded.as_mut_slice().iter_mut().enumerate() {
            *v = 0.5 + i as f32;
        }
        for (label, simd) in engines() {
            let mut want = seeded.clone();
            ScalarEngine.input_grad_into(&dout, &weights, geom, &masks, &mut want);
            let mut got = seeded.clone();
            simd.input_grad_into(&dout, &weights, geom, &masks, &mut got);
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "input_grad {label}");
            assert_eq!(
                &got.as_slice()[..99],
                &seeded.as_slice()[..99],
                "masked channel {label}"
            );

            let want = ScalarEngine.weight_grad(&input, &dout, geom);
            let got = simd.weight_grad(&input, &dout, geom);
            assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "weight_grad {label}");
            assert!(
                got.as_slice()[2 * 27..3 * 27].iter().all(|&v| v == 0.0),
                "empty filter {label}"
            );
        }
    }

    /// The portable and AVX2 implementations agree bitwise on every stage
    /// (trivially true off x86_64, where both are the portable path).
    #[test]
    fn portable_and_dispatched_paths_agree() {
        for geom in [
            ConvGeometry::new(3, 1, 1),
            ConvGeometry::new(3, 2, 0),
            ConvGeometry::new(1, 1, 0),
        ] {
            let (input, weights, bias, dout) = fixtures_sized(77, 55, geom, 11, 5);
            let masks = input.masks();
            let auto = SimdEngine::auto();
            let portable = SimdEngine::portable();
            assert_eq!(
                bits(auto.forward(&input, &weights, Some(&bias), geom).as_slice()),
                bits(portable.forward(&input, &weights, Some(&bias), geom).as_slice()),
            );
            assert_eq!(
                bits(auto.input_grad(&dout, &weights, geom, 9, 11, &masks).as_slice()),
                bits(
                    portable
                        .input_grad(&dout, &weights, geom, 9, 11, &masks)
                        .as_slice()
                ),
            );
            assert_eq!(
                bits(auto.weight_grad(&input, &dout, geom).as_slice()),
                bits(portable.weight_grad(&input, &dout, geom).as_slice()),
            );
        }
    }

    /// Dispatch contract: forcing portable always reports portable, and
    /// when the CPU does not report AVX2+FMA the auto engine must take the
    /// portable path too.
    #[test]
    fn dispatch_reports_portable_when_avx2_absent() {
        assert_eq!(SimdEngine::portable().active_path(), "portable");
        if !avx2_available() {
            assert_eq!(SimdEngine::auto().active_path(), "portable");
        } else {
            assert_eq!(SimdEngine::auto().active_path(), "avx2");
        }
    }

    /// A literal -0.0 bias takes the scalar fallback and survives exactly.
    #[test]
    fn negative_zero_bias_is_preserved() {
        let geom = ConvGeometry::new(3, 1, 1);
        // All-zero input: the output is exactly the bias fill.
        let input = SparseFeatureMap::from_tensor(&Tensor3::zeros(2, 5, 5));
        let weights = Tensor4::from_fn(2, 2, 3, 3, |_, _, _, _| 0.5);
        let bias = [-0.0f32, 1.0];
        for (label, simd) in engines() {
            let want = ScalarEngine.forward(&input, &weights, Some(&bias), geom);
            let got = simd.forward(&input, &weights, Some(&bias), geom);
            let want_bits: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
            let got_bits: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "{label}");
        }
    }

    /// Accumulators pre-seeded with literal -0.0 take the scalar fallback
    /// on every stage, so `*_into` accumulation parity is bitwise even for
    /// that representable corner (the dense sweeps' spurious `+0.0` adds
    /// would otherwise flip the sign bit).
    #[test]
    fn negative_zero_preseeded_accumulators_are_preserved() {
        let geom = ConvGeometry::new(3, 1, 1);
        let (input, weights, _, dout) = fixtures(31, 60, geom);
        let masks = input.masks();
        let seed = |slice: &mut [f32]| {
            for (i, v) in slice.iter_mut().enumerate() {
                *v = if i % 3 == 0 { -0.0 } else { 0.25 };
            }
        };
        for (label, simd) in engines() {
            let mut want = Tensor3::zeros(4, 9, 11);
            seed(want.as_mut_slice());
            let mut got = want.clone();
            ScalarEngine.forward_into(&input, &weights, None, geom, &mut want);
            simd.forward_into(&input, &weights, None, geom, &mut got);
            let bits = |t: &Tensor3| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "forward {label}");

            let mut want = Tensor3::zeros(3, 9, 11);
            seed(want.as_mut_slice());
            let mut got = want.clone();
            ScalarEngine.input_grad_into(&dout, &weights, geom, &masks, &mut want);
            simd.input_grad_into(&dout, &weights, geom, &masks, &mut got);
            assert_eq!(bits(&got), bits(&want), "input_grad {label}");

            let mut want = Tensor4::zeros(4, 3, 3, 3);
            seed(want.as_mut_slice());
            let mut got = want.clone();
            ScalarEngine.weight_grad_into(&input, &dout, geom, &mut want);
            simd.weight_grad_into(&input, &dout, geom, &mut got);
            let bits4 = |t: &Tensor4| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits4(&got), bits4(&want), "weight_grad {label}");
        }
    }

    /// `parallel:simd` composition: simd bands under thread-parallel
    /// banding stay bitwise equal to scalar at 1, 2 and 7 bands — GTA
    /// bands slice their own channels out of the weights — on the
    /// per-sample and the batched entry points.
    #[test]
    fn banded_simd_matches_scalar() {
        static SIMD: SimdEngine = SimdEngine::auto();
        for geom in [ConvGeometry::new(3, 1, 1), ConvGeometry::new(3, 2, 1)] {
            let (input, weights, bias, dout) = fixtures_sized(5, 45, geom, 8, 9);
            let (input2, _, _, dout2) = fixtures_sized(6, 30, geom, 8, 9);
            let masks = input.masks();
            let batch_masks = vec![input.masks(), input2.masks()];
            for threads in [1usize, 2, 7] {
                let ctx = format!("threads {threads} s={}", geom.stride);
                let banded = ParallelEngine::over("test:parallel-simd", &SIMD).banded(threads);
                let want = ScalarEngine.forward(&input, &weights, Some(&bias), geom);
                let got = banded.forward(&input, &weights, Some(&bias), geom);
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "forward {ctx}");

                let want = ScalarEngine.input_grad(&dout, &weights, geom, 9, 11, &masks);
                let got = banded.input_grad(&dout, &weights, geom, 9, 11, &masks);
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "input_grad {ctx}");

                let douts = [dout.clone(), dout2.clone()];
                let want = ScalarEngine.input_grad_batch(&douts, &weights, geom, 9, 11, &batch_masks);
                let got = banded.input_grad_batch(&douts, &weights, geom, 9, 11, &batch_masks);
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(bits(g.as_slice()), bits(w.as_slice()), "input_grad batch {ctx}");
                }

                let want = ScalarEngine.weight_grad(&input, &dout, geom);
                let got = banded.weight_grad(&input, &dout, geom);
                assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "weight_grad {ctx}");

                let inputs = [input.clone(), input2.clone()];
                let mut want = Tensor4::zeros(9, 8, 3, 3);
                ScalarEngine.weight_grad_batch_into(&inputs, &douts, geom, &mut want);
                let mut got = Tensor4::zeros(9, 8, 3, 3);
                banded.weight_grad_batch_into(&inputs, &douts, geom, &mut got);
                assert_eq!(
                    bits(got.as_slice()),
                    bits(want.as_slice()),
                    "weight_grad batch {ctx}"
                );
            }
        }
    }
}
