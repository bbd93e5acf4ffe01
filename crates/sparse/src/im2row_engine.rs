//! Register-blocked implicit-GEMM dense kernel engine (`"im2row"`).
//!
//! Early convolution layers are exactly where the sparse row kernels have
//! the least to skip: activations enter nearly dense (the raw image, or a
//! map before much ReLU sparsity has developed) and rows are wide. There a
//! classic dense lowering wins — reduce every output position's receptive
//! field (its **patch row**, in im2row terms) against the kernel as one
//! GEMM, blocked so each loaded weight vector feeds [`MR`] output
//! positions and each loaded input element feeds [`TILE`] filters.
//!
//! The lowering is **implicit**: no patch matrix is ever materialised.
//! Each sample's input is staged once into a zero-padded dense buffer
//! `(C, H + 2·pad, W + 2·pad)`, and the micro-kernel reads patch element
//! `(u, ci, v)` of output position `(oy, ox)` straight from it at padded
//! coordinates `(ci, oy·stride + u, ox·stride + v)` — a fixed column offset
//! plus a per-position base — so every stride, kernel size and pad takes
//! the same kernel.
//!
//! [`Im2RowEngine`] does that lowering *without giving up bitwise parity*
//! with [`crate::engine::ScalarEngine`]:
//!
//! * **Columns walk the scalar order.** The scalar forward accumulates
//!   each output pixel as `(kernel row u ascending, channel ci ascending,
//!   tap v ascending)`, so the micro-kernel's columns run `(u, ci, v)` —
//!   *not* the `(ci, u, v)` of a textbook im2row
//!   (`sparsetrain_tensor::im2row`) — and the per-filter kernel weights
//!   are packed to match. Every output element therefore accumulates its
//!   contributions in exactly the scalar engine's per-element order, one
//!   two-rounding `acc + x·w` at a time (multiply then add; no FMA
//!   contraction). The [`MR`] positions of a block are independent
//!   accumulator chains, so the adds pipeline without reordering any one
//!   element's sum.
//! * **Extra zero terms are exact.** The dense reduction includes terms
//!   the scalar kernels skip (stored-zero activations, zero kernel taps,
//!   zero-padded window positions); each contributes `±0.0`, and an
//!   accumulator that does not start as literal `-0.0` can never become
//!   `-0.0` under round-to-nearest, so those adds are bit-exact no-ops.
//! * **Everything else falls back to the scalar code itself**: a literal
//!   `-0.0` bias (or pre-seeded accumulator) runs the scalar band, and any
//!   output row fed by a row sparser than the density cutoff runs the
//!   scalar row kernel ([`crate::src::src_accumulate`]) — so parity is
//!   unconditional, enforced by the unmodified `engine_parity` and
//!   `prune_determinism` suites.
//!
//! The staged buffer and the per-output-row classification are built
//! **once per engine call** into the [`BandContext`] by
//! [`KernelEngine::prepare_forward`], above the band fan-out, and every
//! band borrows them — under `"parallel:im2row"` the rayon bands share one
//! staging. Each band packs its filters' weights into `TILE`-wide
//! interleaved tiles (`F·C·K²` floats per sample, against the
//! `Oh·Ow·F·C·K²` multiply-adds they feed). Inside a band the loop order
//! is filter tile ⇒ position block: the packed tile (`C·K² × TILE`
//! floats) stays cache-resident while the blocks of every dense output
//! row stream past it.
//!
//! The **density cutoff** is the knob deciding when a row is worth the
//! dense treatment: output row `oy` takes the micro-kernel only when every
//! in-bounds input row feeding it (`iy = oy·stride − pad + u`) carries at
//! least one non-zero per `cutoff` elements (density ≥ 1/cutoff, default
//! 1/8 — the same break-even as the simd engine's sweeps) **or is empty**
//! (empty rows cost the reduction only exact zero terms, so they never
//! veto a row). [`Im2RowEngine::with_cutoff`] tunes it; output rows fed by
//! below-cutoff rows keep the work-proportional sparse kernel.
//!
//! GTA and GTW inherit the scalar band defaults: the backward operand (the
//! pruned output gradient) is sparse by construction, which is the regime
//! the SRC-family kernels and the simd sweeps already serve; lowering it
//! densely would do strictly more work. Use `"simd"` / `"parallel:simd"`
//! when the backward stages dominate.
//!
//! Like the simd engine, the micro-kernel is runtime-dispatched between an
//! x86_64 AVX2 implementation (`vmulps`/`vaddps`, never `vfmadd`) and a
//! portable `[[f32; TILE]; MR]` block the autovectorizer handles
//! everywhere else; both produce identical bits and
//! [`Im2RowEngine::portable`] pins the portable path.

use crate::compressed::SparseRow;
use crate::engine::{scalar_forward_band, BandContext, KernelEngine};
use crate::rowconv::SparseFeatureMap;
use crate::simd_engine::{avx2_available, contains_negative_zero, densify_map, seeds_negative_zero};
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::Tensor4;

/// Filters reduced per micro-kernel invocation (one AVX2 register of
/// accumulators per output position; the portable path uses the same
/// block width).
pub const TILE: usize = 8;

/// Output positions per micro-kernel invocation: `MR` independent
/// accumulator chains, enough to hide the add latency behind the
/// multiply/add throughput.
pub const MR: usize = 8;

/// Default density cutoff: a row qualifies for the dense lowering when it
/// averages at least one non-zero per `8` elements — the break-even where
/// an 8-lane dense sweep costs what the sparse kernel's per-non-zero work
/// does.
pub const DEFAULT_CUTOFF: usize = 8;

// ---------------------------------------------------------------------------
// Micro-kernel
// ---------------------------------------------------------------------------

/// One `MR × TILE` block of the implicit GEMM:
/// `acc[m][l] += wt[idx·TILE + l] · src[bases[m] + offs[idx]]` for all
/// `idx` ascending. Each accumulator's chain is the scalar per-element
/// order; positions and lanes are independent.
///
/// # Panics
///
/// Panics if a read would fall outside `src` or `wt` is shorter than
/// `offs.len() · TILE`.
fn block_kernel(
    avx2: bool,
    acc: &mut [[f32; TILE]; MR],
    src: &[f32],
    bases: &[usize; MR],
    cols: &Columns,
    wt: &[f32],
) {
    let top = bases.iter().max().expect("MR > 0");
    assert!(top + cols.reach < src.len(), "block reads past the staged input");
    assert!(wt.len() >= cols.offs.len() * TILE, "weight tile too short");
    #[cfg(target_arch = "x86_64")]
    if avx2 {
        // SAFETY: `avx2` is only true when runtime detection reported
        // AVX2+FMA support for this process, and the asserts above bound
        // every read: `bases[m] + offs[idx] ≤ top + reach < src.len()` and
        // `idx·TILE + TILE ≤ wt.len()`.
        unsafe { block_kernel_avx2(acc, src, bases, &cols.offs, wt) };
        return;
    }
    let _ = avx2;
    block_kernel_portable(acc, src, bases, &cols.offs, wt);
}

/// Portable block micro-kernel: the fixed `[f32; TILE]` rows keep the
/// inner loop trip-count-free so LLVM emits one vector multiply and one
/// vector add per (column, position) on every target.
fn block_kernel_portable(
    acc: &mut [[f32; TILE]; MR],
    src: &[f32],
    bases: &[usize; MR],
    offs: &[usize],
    wt: &[f32],
) {
    for (&o, wv) in offs.iter().zip(wt.chunks_exact(TILE)) {
        let wv: &[f32; TILE] = wv.try_into().expect("exact chunk");
        for (a, &b) in acc.iter_mut().zip(bases) {
            let x = src[b + o];
            for l in 0..TILE {
                a[l] += wv[l] * x;
            }
        }
    }
}

/// The AVX2 twin of [`block_kernel_portable`], bitwise equal to it.
///
/// # Safety
///
/// The CPU must support AVX2, every `bases[m] + offs[idx]` must index
/// into `src`, and `wt` must hold at least `offs.len() · TILE` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn block_kernel_avx2(
    acc: &mut [[f32; TILE]; MR],
    src: &[f32],
    bases: &[usize; MR],
    offs: &[usize],
    wt: &[f32],
) {
    use std::arch::x86_64::*;
    let mut a = [_mm256_setzero_ps(); MR];
    for (r, row) in a.iter_mut().zip(acc.iter()) {
        *r = _mm256_loadu_ps(row.as_ptr());
    }
    for (idx, &o) in offs.iter().enumerate() {
        let wv = _mm256_loadu_ps(wt.as_ptr().add(idx * TILE));
        let col = src.as_ptr().add(o);
        for (r, &b) in a.iter_mut().zip(bases) {
            let xv = _mm256_broadcast_ss(&*col.add(b));
            // Deliberately vmulps + vaddps, not vfmadd: the scalar
            // reference rounds the product before the add.
            *r = _mm256_add_ps(*r, _mm256_mul_ps(wv, xv));
        }
    }
    for (r, row) in a.iter().zip(acc.iter_mut()) {
        _mm256_storeu_ps(row.as_mut_ptr(), *r);
    }
}

/// The implicit-GEMM column walk of one geometry: `offs[idx]` is the
/// staged-buffer offset of patch column `idx = (u·C + ci)·K + v`, relative
/// to an output position's base, and `reach` the largest of them.
struct Columns {
    offs: Vec<usize>,
    reach: usize,
}

impl Columns {
    fn new(c: usize, k: usize, hp: usize, wp: usize) -> Self {
        let mut offs = Vec::with_capacity(c * k * k);
        for u in 0..k {
            for ci in 0..c {
                let row = ci * hp * wp + u * wp;
                offs.extend(row..row + k);
            }
        }
        let reach = offs.iter().copied().max().unwrap_or(0);
        Self { offs, reach }
    }
}

// ---------------------------------------------------------------------------
// Operand preparation
// ---------------------------------------------------------------------------

/// The forward classification an im2row preparation attaches to its
/// [`BandContext`]: `rows[oy]` says whether output row `oy` takes the
/// micro-kernel. Its presence also marks `ctx.dense()` as this engine's
/// zero-padded staging (empty when no row qualifies), so a context
/// prepared by another engine is never misread.
struct DenseRows(Vec<bool>);

/// Packs filters `f_lo..f_lo + n` into `TILE`-wide interleaved tiles:
/// tile `t` holds filters `f_lo + t·TILE ..`, laid out
/// `wt[idx · TILE + lane] = W[filter lane][idx]` with `idx` walking the
/// column order `(u, ci, v)`; lanes past the last filter stay zero.
fn pack_weights(weights: &Tensor4, f_lo: usize, n: usize) -> Vec<f32> {
    let (_, c, k, _) = weights.shape();
    let plen = c * k * k;
    if plen == 0 {
        return Vec::new();
    }
    let mut wt = vec![0.0f32; n.div_ceil(TILE) * plen * TILE];
    for (t, dst) in wt.chunks_mut(plen * TILE).enumerate() {
        for l in 0..TILE.min(n - t * TILE) {
            let fi = f_lo + t * TILE + l;
            for u in 0..k {
                for ci in 0..c {
                    let base = (u * c + ci) * k * TILE;
                    for (v, &wv) in weights.kernel_row(fi, ci, u).iter().enumerate() {
                        dst[base + v * TILE + l] = wv;
                    }
                }
            }
        }
    }
    wt
}

// ---------------------------------------------------------------------------
// Band computation
// ---------------------------------------------------------------------------

/// The output rows `oy` with `rows[oy]` of the `n` pre-seeded `oh × ow`
/// filter planes in `out_band`, as the implicit GEMM: `padded` is the
/// call's staged `(c, h, w)` input and `packed` the band's weight tiles
/// from [`pack_weights`].
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    avx2: bool,
    padded: &[f32],
    rows: &[bool],
    packed: &[f32],
    (c, h, w): (usize, usize, usize),
    geom: ConvGeometry,
    ow: usize,
    out_band: &mut [f32],
) {
    let plane = rows.len() * ow;
    let n = out_band.len() / plane;
    let (k, stride, pad) = (geom.kernel, geom.stride, geom.pad);
    // Every position of those rows, blocked MR at a time across row ends;
    // a short final block repeats the last position, whose repeats'
    // results are never stored.
    let out_pos: Vec<usize> = (0..rows.len())
        .filter(|&oy| rows[oy])
        .flat_map(|oy| oy * ow..(oy + 1) * ow)
        .collect();
    let Some(&last) = out_pos.last() else { return };
    let wp = w + 2 * pad;
    let bases: Vec<usize> = out_pos
        .iter()
        .chain(std::iter::repeat(&last))
        .take(out_pos.len().next_multiple_of(MR))
        .map(|&pos| (pos / ow) * stride * wp + (pos % ow) * stride)
        .collect();
    let cols = Columns::new(c, k, h + 2 * pad, wp);
    // Position-major accumulators of one filter tile: each block's
    // `MR × TILE` seeds are contiguous, and the filter planes are read and
    // written once per tile in a streaming pass.
    let mut acc = vec![[0.0f32; TILE]; bases.len()];
    for (t, wtile) in packed.chunks_exact(cols.offs.len() * TILE).enumerate() {
        let t0 = t * TILE;
        let tile_n = TILE.min(n - t0);
        for l in 0..tile_n {
            let p = &out_band[(t0 + l) * plane..(t0 + l + 1) * plane];
            for (a, &pos) in acc.iter_mut().zip(&out_pos) {
                a[l] = p[pos];
            }
        }
        for (block, bases) in acc.chunks_exact_mut(MR).zip(bases.chunks_exact(MR)) {
            let block: &mut [[f32; TILE]; MR] = block.try_into().expect("exact chunk");
            let bases: &[usize; MR] = bases.try_into().expect("exact chunk");
            block_kernel(avx2, block, padded, bases, &cols, wtile);
        }
        for l in 0..tile_n {
            let p = &mut out_band[(t0 + l) * plane..(t0 + l + 1) * plane];
            for (a, &pos) in acc.iter().zip(&out_pos) {
                p[pos] = a[l];
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Im2RowEngine
// ---------------------------------------------------------------------------

/// The register-blocked implicit-GEMM engine, registered as `"im2row"`
/// (and, banded across threads, as `"parallel:im2row"`).
///
/// ```
/// use sparsetrain_sparse::{registry, Im2RowEngine};
///
/// let handle = registry::lookup("im2row").unwrap();
/// assert_eq!(handle.engine().name(), "im2row");
/// // The portable micro-kernel is always available and bitwise-equal to
/// // the AVX2 one.
/// assert_eq!(Im2RowEngine::portable().active_path(), "portable");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Im2RowEngine {
    cutoff: usize,
    force_portable: bool,
}

impl Default for Im2RowEngine {
    fn default() -> Self {
        Self::auto()
    }
}

impl Im2RowEngine {
    /// Engine with the default density cutoff, dispatching to AVX2 when
    /// the CPU reports it.
    pub const fn auto() -> Self {
        Self {
            cutoff: DEFAULT_CUTOFF,
            force_portable: false,
        }
    }

    /// Engine pinned to the portable micro-kernel (tests, cross-checks).
    pub const fn portable() -> Self {
        Self {
            cutoff: DEFAULT_CUTOFF,
            force_portable: true,
        }
    }

    /// This engine with an explicit density cutoff: a row qualifies for
    /// the dense lowering when `nnz · cutoff ≥ len` (density ≥ 1/cutoff).
    /// `1` restricts the micro-kernel to fully dense rows; larger values
    /// lower the entry bar. A cutoff of `0` is treated as `1`.
    pub const fn with_cutoff(self, cutoff: usize) -> Self {
        Self {
            cutoff: if cutoff == 0 { 1 } else { cutoff },
            ..self
        }
    }

    /// The configured density cutoff (see [`Im2RowEngine::with_cutoff`]).
    pub const fn cutoff(&self) -> usize {
        self.cutoff
    }

    fn use_avx2(&self) -> bool {
        !self.force_portable && avx2_available()
    }

    /// Which micro-kernel this engine runs right now: `"avx2"` or
    /// `"portable"`.
    pub fn active_path(&self) -> &'static str {
        if self.use_avx2() {
            "avx2"
        } else {
            "portable"
        }
    }

    fn row_worthy(&self, row: SparseRow<'_>) -> bool {
        row.nnz().saturating_mul(self.cutoff) >= row.len()
    }

    /// Which of the `oh` output rows take the micro-kernel: those whose
    /// every in-bounds input row (all channels, all `K` kernel rows)
    /// meets the density cutoff or is empty. Empty rows cost the
    /// micro-kernel only exact `±0.0` terms, so they must not disqualify a
    /// row — on 8-wide mid-stack layers a single empty row among hundreds
    /// of contributors would otherwise veto every output row.
    /// A map without channels has nothing to reduce and takes no row.
    fn dense_rows(&self, input: &SparseFeatureMap, geom: ConvGeometry, oh: usize) -> Vec<bool> {
        let h = input.height();
        if input.channels() == 0 {
            return vec![false; oh];
        }
        let row_ok: Vec<bool> = (0..h)
            .map(|iy| {
                (0..input.channels()).all(|ci| {
                    let row = input.row(ci, iy);
                    row.nnz() == 0 || self.row_worthy(row)
                })
            })
            .collect();
        (0..oh)
            .map(|oy| {
                (0..geom.kernel).all(|u| {
                    let iy = (oy * geom.stride + u) as isize - geom.pad as isize;
                    iy < 0 || iy >= h as isize || row_ok[iy as usize]
                })
            })
            .collect()
    }
}

impl KernelEngine for Im2RowEngine {
    fn name(&self) -> &'static str {
        "im2row"
    }

    fn prepare_forward(
        &self,
        input: &SparseFeatureMap,
        _weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
    ) -> BandContext {
        let oh = geom.output_extent(input.height());
        // A literal -0.0 bias sends every band to the scalar code, so no
        // row is classified dense and nothing is staged.
        let rows = if bias.is_some_and(contains_negative_zero) {
            vec![false; oh]
        } else {
            self.dense_rows(input, geom, oh)
        };
        let mut ctx = BandContext::empty();
        if rows.contains(&true) {
            ctx.set_dense(densify_map(input, geom.pad, |_| true));
        }
        ctx.set_ext(DenseRows(rows));
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
        if seeds_negative_zero(bias, out_band) {
            scalar_forward_band(input, weights, bias, geom, oh, ow, f_lo, out_band, |_| true);
            return;
        }
        // Borrow the staging the call prepared once above the band
        // fan-out; prepare locally only when invoked without one.
        let local;
        let ctx = if ctx.ext::<DenseRows>().is_some() {
            ctx
        } else {
            local = self.prepare_forward(input, weights, bias, geom);
            &local
        };
        let DenseRows(rows) = ctx
            .ext::<DenseRows>()
            .expect("im2row preparation attaches its rows");
        // Bias fill for every plane, then the output rows below the
        // cutoff through the scalar row loops themselves —
        // work-proportional on sparse data, bitwise the reference.
        scalar_forward_band(input, weights, bias, geom, oh, ow, f_lo, out_band, |oy| !rows[oy]);
        if rows.contains(&true) {
            let packed = pack_weights(weights, f_lo, out_band.len() / (oh * ow));
            let shape = (input.channels(), input.height(), input.width());
            gemm_rows(
                self.use_avx2(),
                ctx.dense(),
                rows,
                &packed,
                shape,
                geom,
                ow,
                out_band,
            );
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

    fn fixtures(seed: u64, density_pct: u64, geom: ConvGeometry) -> (SparseFeatureMap, Tensor4, Vec<f32>) {
        fixtures_sized(seed, density_pct, geom, (3, 9, 11), 10)
    }

    /// A `(c, h, w)` input at `density_pct` and `f` filters.
    fn fixtures_sized(
        seed: u64,
        density_pct: u64,
        geom: ConvGeometry,
        (c, h, w): (usize, usize, usize),
        f: usize,
    ) -> (SparseFeatureMap, Tensor4, Vec<f32>) {
        let mut s = seed;
        let input = sparse_tensor(c, h, w, density_pct, &mut s);
        let weights = Tensor4::from_fn(f, c, geom.kernel, geom.kernel, |_, _, _, _| {
            // Sprinkle exact zeros so the scalar w == 0 tap skip meets the
            // dense reduction's zero terms.
            let v = pseudo(&mut s);
            if v.abs() < 0.1 {
                0.0
            } else {
                v
            }
        });
        let bias: Vec<f32> = (0..f).map(|_| pseudo(&mut s)).collect();
        (SparseFeatureMap::from_tensor(&input), weights, bias)
    }

    fn engines() -> Vec<(&'static str, Im2RowEngine)> {
        vec![
            ("auto", Im2RowEngine::auto()),
            ("portable", Im2RowEngine::portable()),
        ]
    }

    /// Dense, mixed and very sparse fixtures across geometries (micro-
    /// kernel, mixed dense/sparse rows, whole-call sparse fallback, stride
    /// 2): every path must match the scalar reference bitwise. A filter
    /// count of 10 exercises the partial final tile (10 = 8 + 2).
    #[test]
    fn im2row_matches_scalar_bitwise_on_all_paths() {
        for geom in [
            ConvGeometry::new(3, 1, 1),
            ConvGeometry::new(3, 2, 1),
            ConvGeometry::new(2, 1, 0),
            ConvGeometry::new(1, 1, 0),
        ] {
            for density in [3u64, 20, 55, 100] {
                let (input, weights, bias) = fixtures(7 + density, density, geom);
                for (label, engine) in engines() {
                    let ctx = format!("{label} k={} s={} d={density}", geom.kernel, geom.stride);
                    let want = ScalarEngine.forward(&input, &weights, Some(&bias), geom);
                    let got = engine.forward(&input, &weights, Some(&bias), geom);
                    assert_eq!(got.as_slice(), want.as_slice(), "forward {ctx}");
                    // Without bias (accumulate into zeros) too.
                    let want = ScalarEngine.forward(&input, &weights, None, geom);
                    let got = engine.forward(&input, &weights, None, geom);
                    assert_eq!(got.as_slice(), want.as_slice(), "forward no-bias {ctx}");
                }
            }
        }
    }

    /// Rows exactly at the density cutoff take the micro-kernel; one
    /// non-zero fewer routes the fed output rows to the sparse fallback.
    /// Both sides of the boundary must match the scalar reference bitwise.
    #[test]
    fn cutoff_boundary_rows_match_scalar() {
        let geom = ConvGeometry::new(3, 1, 1);
        const W: usize = 2 * DEFAULT_CUTOFF; // boundary: exactly 2 non-zeros per row
        let w = W;
        let at_boundary = |y: usize, x: usize| (x + y).is_multiple_of(DEFAULT_CUTOFF);
        let below = |y: usize, x: usize| (x + y).is_multiple_of(W);
        for (label, keep) in [("at", at_boundary as fn(usize, usize) -> bool), ("below", below)] {
            let input = SparseFeatureMap::from_tensor(&Tensor3::from_fn(2, 6, w, |c, y, x| {
                if keep(y, x) {
                    // Strictly positive so compression never drops a kept
                    // position and the nnz classification stays exact.
                    0.5 + (c + y) as f32 * 0.125 + x as f32 * 0.0625
                } else {
                    0.0
                }
            }));
            let weights = Tensor4::from_fn(9, 2, 3, 3, |f, c, u, v| {
                ((f * 5 + c * 3 + u * 2 + v) % 7) as f32 * 0.25 - 0.75
            });
            for (path, engine) in engines() {
                let want = ScalarEngine.forward(&input, &weights, None, geom);
                let got = engine.forward(&input, &weights, None, geom);
                assert_eq!(got.as_slice(), want.as_slice(), "{label} boundary, {path}");
            }
            // Sanity-pin the classification itself, not just the result.
            let row = input.row(0, 0);
            let expect_worthy = label == "at";
            assert_eq!(Im2RowEngine::auto().row_worthy(row), expect_worthy, "{label}");
        }
    }

    /// The cutoff knob moves the dense/sparse split without moving a bit
    /// of the result.
    #[test]
    fn cutoff_knob_preserves_parity() {
        let geom = ConvGeometry::new(3, 1, 1);
        let (input, weights, bias) = fixtures(91, 30, geom);
        let want = ScalarEngine.forward(&input, &weights, Some(&bias), geom);
        for cutoff in [0usize, 1, 2, 8, 64, usize::MAX] {
            let engine = Im2RowEngine::auto().with_cutoff(cutoff);
            assert_eq!(engine.cutoff(), cutoff.max(1));
            let got = engine.forward(&input, &weights, Some(&bias), geom);
            assert_eq!(got.as_slice(), want.as_slice(), "cutoff {cutoff}");
        }
    }

    /// A literal -0.0 bias takes the scalar fallback and survives exactly.
    #[test]
    fn negative_zero_bias_is_preserved() {
        let geom = ConvGeometry::new(3, 1, 1);
        let input = SparseFeatureMap::from_tensor(&Tensor3::zeros(2, 5, 5));
        let weights = Tensor4::from_fn(2, 2, 3, 3, |_, _, _, _| 0.5);
        let bias = [-0.0f32, 1.0];
        for (label, engine) in engines() {
            let want = ScalarEngine.forward(&input, &weights, Some(&bias), geom);
            let got = engine.forward(&input, &weights, Some(&bias), geom);
            let bits = |t: &Tensor3| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{label}");
        }
    }

    /// Accumulators pre-seeded with literal -0.0 take the scalar fallback,
    /// so `forward_into` accumulation parity is bitwise even there.
    #[test]
    fn negative_zero_preseeded_accumulators_are_preserved() {
        let geom = ConvGeometry::new(3, 1, 1);
        let (input, weights, _) = fixtures(17, 70, geom);
        for (label, engine) in engines() {
            let mut want = Tensor3::zeros(10, 9, 11);
            for (i, v) in want.as_mut_slice().iter_mut().enumerate() {
                *v = if i % 3 == 0 { -0.0 } else { 0.25 };
            }
            let mut got = want.clone();
            ScalarEngine.forward_into(&input, &weights, None, geom, &mut want);
            engine.forward_into(&input, &weights, None, geom, &mut got);
            let bits = |t: &Tensor3| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{label}");
        }
    }

    /// `parallel:im2row` composition: im2row bands under thread-parallel
    /// banding stay bitwise equal to scalar at every band count.
    #[test]
    fn banded_im2row_matches_scalar() {
        static IM2ROW: Im2RowEngine = Im2RowEngine::auto();
        let geom = ConvGeometry::new(3, 1, 1);
        let (input, weights, bias) = fixtures(5, 60, geom);
        for threads in [0usize, 1, 2, 3, 8] {
            let banded = ParallelEngine::over("test:parallel-im2row", &IM2ROW).banded(threads);
            let want = ScalarEngine.forward(&input, &weights, Some(&bias), geom);
            let got = banded.forward(&input, &weights, Some(&bias), geom);
            assert_eq!(got.as_slice(), want.as_slice(), "threads {threads}");
        }
    }

    /// The portable and AVX2 micro-kernels agree bitwise (trivially true
    /// off x86_64, where both are the portable path), and the dispatch
    /// contract mirrors the simd engine's.
    #[test]
    fn portable_and_dispatched_paths_agree() {
        let geom = ConvGeometry::new(3, 1, 1);
        let (input, weights, bias) = fixtures(41, 80, geom);
        let auto = Im2RowEngine::auto();
        let portable = Im2RowEngine::portable();
        assert_eq!(
            auto.forward(&input, &weights, Some(&bias), geom).as_slice(),
            portable.forward(&input, &weights, Some(&bias), geom).as_slice(),
        );
        assert_eq!(portable.active_path(), "portable");
        if avx2_available() {
            assert_eq!(auto.active_path(), "avx2");
        } else {
            assert_eq!(auto.active_path(), "portable");
        }
    }

    /// Asserts that `label`'s forward is bitwise the scalar reference on
    /// every im2row path — portable and dispatched, direct, batched and
    /// under `parallel:im2row` at 1, 2, 3 and 8 bands — with and without
    /// bias.
    fn assert_all_paths_match_scalar(
        label: &str,
        input: &SparseFeatureMap,
        weights: &Tensor4,
        bias: &[f32],
        geom: ConvGeometry,
    ) {
        static AUTO: Im2RowEngine = Im2RowEngine::auto();
        static PORTABLE: Im2RowEngine = Im2RowEngine::portable();
        for bias in [Some(bias), None] {
            let want = ScalarEngine.forward(input, weights, bias, geom);
            let ctx = format!("{label} bias={}", bias.is_some());
            for (path, engine) in [("auto", &AUTO), ("portable", &PORTABLE)] {
                let got = engine.forward(input, weights, bias, geom);
                assert_eq!(got.as_slice(), want.as_slice(), "{ctx} {path}");
                let batch = [input.clone(), input.clone()];
                for got in engine.forward_batch(&batch, weights, bias, geom) {
                    assert_eq!(got.as_slice(), want.as_slice(), "{ctx} {path} batched");
                }
                for bands in [1usize, 2, 3, 8] {
                    let banded = ParallelEngine::over("test:parallel-im2row", engine).banded(bands);
                    let got = banded.forward(input, weights, bias, geom);
                    assert_eq!(got.as_slice(), want.as_slice(), "{ctx} {path} {bands} bands");
                }
            }
        }
    }

    /// The implicit GEMM at every stride, kernel size and pad the models
    /// use and a few they do not: stride 2 and 3, the 1×1 stride-2 pad-0
    /// shortcut, k = 2 without pad and k = 5 with pad 2, at dense and mixed
    /// densities, with filter counts that are not a multiple of `TILE`.
    #[test]
    fn strided_and_odd_geometries_match_scalar() {
        for (k, stride, pad) in [
            (3, 2, 1),
            (3, 3, 1),
            (1, 2, 0),
            (2, 1, 0),
            (2, 2, 0),
            (5, 1, 2),
            (5, 2, 2),
        ] {
            let geom = ConvGeometry::new(k, stride, pad);
            for (density, filters) in [(100u64, 5usize), (60, 10), (25, 17)] {
                let label = format!("k={k} s={stride} p={pad} d={density} f={filters}");
                let (input, weights, bias) =
                    fixtures_sized(11 + density + k as u64, density, geom, (3, 13, 14), filters);
                assert_all_paths_match_scalar(&label, &input, &weights, &bias, geom);
            }
        }
    }

    /// Output widths 1 … MR+1 at one and at three output rows: the dense
    /// positions' count runs through every remainder of a block, and
    /// blocks straddle row ends.
    #[test]
    fn every_block_remainder_matches_scalar() {
        for (stride, rows) in [(1usize, 1usize), (1, 3), (2, 1), (2, 3)] {
            let geom = ConvGeometry::new(3, stride, 1);
            for ow in 1..=MR + 1 {
                // Input extents that give exactly `rows` × `ow` outputs.
                let (h, w) = ((rows - 1) * stride + 1, (ow - 1) * stride + 1);
                let (input, weights, bias) = fixtures_sized(ow as u64, 100, geom, (2, h, w), 9);
                assert_eq!(geom.output_extent(w), ow);
                let label = format!("s={stride} rows={rows} ow={ow}");
                assert_all_paths_match_scalar(&label, &input, &weights, &bias, geom);
            }
        }
    }

    /// Stride 2 over a map whose rows alternate between dense and far
    /// below the cutoff: some output rows take the micro-kernel and some
    /// the sparse fallback, within one plane.
    #[test]
    fn mixed_dense_and_sparse_rows_at_stride_two() {
        let geom = ConvGeometry::new(3, 2, 1);
        // Rows 0..4 dense, 4..6 one non-zero in 24, 6.. dense again.
        let input = SparseFeatureMap::from_tensor(&Tensor3::from_fn(3, 12, 24, |c, y, x| {
            if (4..6).contains(&y) {
                if x == 5 + c {
                    -0.5 - y as f32 * 0.125
                } else {
                    0.0
                }
            } else {
                0.25 + ((c * 7 + y * 3 + x) % 11) as f32 * 0.0625
            }
        }));
        let weights = Tensor4::from_fn(11, 3, 3, 3, |f, c, u, v| {
            ((f * 5 + c * 3 + u * 2 + v) % 7) as f32 * 0.25 - 0.75
        });
        let bias: Vec<f32> = (0..11).map(|f| f as f32 * 0.125 - 0.5).collect();
        let rows = Im2RowEngine::auto().dense_rows(&input, geom, geom.output_extent(12));
        // Output row oy reads input rows 2·oy − 1 ..= 2·oy + 1.
        assert_eq!(rows, [true, true, false, false, true, true]);
        assert_all_paths_match_scalar("mixed stride 2", &input, &weights, &bias, geom);
    }

    /// The batched entry point keeps `forward_into`'s per-sample
    /// semantics: samples of different densities each get their own
    /// classification and staging, and a sample whose pre-seeded
    /// accumulator holds a literal -0.0 takes the scalar code alone.
    #[test]
    fn batched_forward_matches_per_sample_scalar() {
        let geom = ConvGeometry::new(3, 2, 1);
        let inputs: Vec<SparseFeatureMap> = [100u64, 3, 60]
            .iter()
            .map(|&d| fixtures_sized(d, d, geom, (3, 9, 11), 10).0)
            .collect();
        let (_, weights, _) = fixtures_sized(1, 100, geom, (3, 9, 11), 10);
        let seed = |i: usize| {
            Tensor3::from_fn(10, 5, 6, |f, y, x| {
                if (f + y + x + i).is_multiple_of(4) {
                    -0.0
                } else {
                    0.5
                }
            })
        };
        for engine in [Im2RowEngine::auto(), Im2RowEngine::portable()] {
            let mut want: Vec<Tensor3> = (0..3).map(seed).collect();
            let mut got = want.clone();
            // Sample 0's seeds stay plain.
            want[0] = Tensor3::zeros(10, 5, 6);
            got[0] = Tensor3::zeros(10, 5, 6);
            for (input, out) in inputs.iter().zip(want.iter_mut()) {
                ScalarEngine.forward_into(input, &weights, None, geom, out);
            }
            engine.forward_batch_into(&inputs, &weights, None, geom, &mut got);
            let bits = |t: &Tensor3| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(bits(g), bits(w), "{}", engine.active_path());
            }
        }
    }

    /// The backward stages inherit the scalar band defaults — pinned so a
    /// future override cannot silently change the engine's contract.
    #[test]
    fn backward_stages_are_the_scalar_reference() {
        let geom = ConvGeometry::new(3, 1, 1);
        let mut s = 3u64;
        let input = SparseFeatureMap::from_tensor(&sparse_tensor(3, 9, 11, 50, &mut s));
        let dout = SparseFeatureMap::from_tensor(&sparse_tensor(10, 9, 11, 20, &mut s));
        let weights = Tensor4::from_fn(10, 3, 3, 3, |_, _, _, _| pseudo(&mut s));
        let masks = input.masks();
        let engine = Im2RowEngine::auto();
        assert_eq!(
            engine.input_grad(&dout, &weights, geom, 9, 11, &masks).as_slice(),
            ScalarEngine
                .input_grad(&dout, &weights, geom, 9, 11, &masks)
                .as_slice(),
        );
        assert_eq!(
            engine.weight_grad(&input, &dout, geom).as_slice(),
            ScalarEngine.weight_grad(&input, &dout, geom).as_slice(),
        );
    }
}
