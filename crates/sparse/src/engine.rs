//! Pluggable kernel execution engines for the SRC/MSRC/OSRC hot paths.
//!
//! [`KernelEngine`] is the seam between the functional dataflow model and
//! how it actually runs: every layer-level operation writes into
//! caller-provided tensors through the kernels' accumulate-into-scratch
//! APIs ([`crate::src::src_accumulate`], [`crate::msrc::msrc_accumulate`],
//! [`crate::osrc::osrc_accumulate`]), so the inner loops perform **zero
//! per-row heap allocations** on every engine.
//!
//! The float engines shipped here:
//!
//! * [`ScalarEngine`] — the reference single-threaded semantics. Iteration
//!   order is the specification; every other engine must match it
//!   bit-for-bit.
//! * [`ParallelEngine`] — band-parallel execution over the layer's
//!   *independent* output units (filters for Forward/GTW, channels for
//!   GTA) on the rayon fork-join API. Because parallelism is only ever
//!   across disjoint output rows while the per-row accumulation order is
//!   untouched, its results are **bitwise identical** to the scalar
//!   engine's — verified by the `engine_parity` property tests. Each
//!   band's computation is delegated to an *inner* engine through the
//!   [`KernelEngine`] band methods (`forward_band` / `input_grad_band` /
//!   `weight_grad_band`), so lane-level backends compose with banding —
//!   [`crate::simd_engine::SimdEngine`] inside rayon bands is registered
//!   as `"parallel:simd"`.
//!
//! Both engines also serve whole batches: the [`KernelEngine`] batch entry
//! points (`forward_batch_into`, `input_grad_batch_into`,
//! `weight_grad_batch_into`) default to sample-order fallbacks that define
//! the result, and [`ParallelEngine`] overrides them to band across
//! `samples × filters` so multi-core speedup scales with batch size, not
//! just layer width.
//!
//! [`BandContext`] is the per-call operand state on the band seam: before
//! fanning a stage out into bands, the caller asks the inner engine to
//! **prepare** the call once (`prepare_forward` / `prepare_input_grad` /
//! `prepare_weight_grad`) and passes the resulting context by reference
//! into every band worker. Backends use it to hoist per-call operand
//! transformations — the simd engine's densified operand maps, the im2row
//! engine's zero-padded staged input — above the fan-out, so `B` bands
//! share one preparation instead of redoing it `B` times (the documented
//! few-percent loss of the earlier per-band densification).
//!
//! Beyond the convolutions, [`KernelEngine::for_each_batch_chunk`] is the
//! elementwise batch seam: position-pure per-element work (stochastic
//! pruning with counter-based RNG streams) executes through it, banded
//! across the `samples × elements` space on the parallel engine with —
//! again — bitwise-identical results at every thread count.
//!
//! [`Workspace`] is the companion scratch-buffer type for row-at-a-time
//! callers (benches, op-stream execution): it owns reusable output/tap
//! buffers so single-row kernel calls need no allocation either.
//!
//! Engine selection is name-keyed: the open registry in
//! [`crate::registry`] maps `"scalar"` / `"parallel"` / `"simd"` /
//! `"parallel:simd"` / `"fixed"` / `"fixed:qI.F"` (and
//! anything registered at runtime) to engine instances, and
//! [`crate::context::ExecutionContext`] carries the resolved engine plus
//! scratch through `sparsetrain-nn`'s `Trainer`/`Conv2d` and the dataflow
//! executor in `sparsetrain-core`; the simulator's cycle accounting
//! consumes the same op enumeration and is engine-agnostic by
//! construction.

use crate::compressed::SparseRow;
use crate::mask::RowMask;
use crate::msrc::msrc_accumulate;
use crate::osrc::osrc_accumulate;
use crate::rowconv::SparseFeatureMap;
use crate::src::src_accumulate;
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::{Tensor3, Tensor4};

/// Per-call operand state shared by every band of one engine call.
///
/// A `BandContext` is built **once per engine call** by the executing
/// engine's `prepare_*` hook ([`KernelEngine::prepare_forward`] and
/// friends), *above* the band fan-out, and then passed by reference into
/// every band worker. It carries whatever per-call operand transformation
/// the backend wants to hoist out of the bands:
///
/// * `dense` — a densified copy of the call's sparse operand map
///   (channel-major; the simd engine's forward sweeps read it as
///   `C × H × W`, the im2row engine's micro-kernel as the zero-padded
///   `C × (H + 2·pad) × (W + 2·pad)`),
/// * `ext` — an arbitrary typed payload (the simd engine's GTW operands,
///   the im2row engine's per-output-row classification, or state of
///   backends registered outside this crate).
///
/// The scalar reference needs no preparation and returns an empty context;
/// band workers must treat an empty context as "prepare locally or fall
/// back to the scalar path", so a context from the wrong engine can never
/// change results — only speed. A context is only valid for the exact
/// operands it was prepared from.
///
/// Memory tradeoff: the batched entry points hold **one context per
/// sample** for the duration of the call (every sample's bands may run
/// concurrently, so no context can be dropped early). With a preparing
/// engine that is `batch × per-sample state` — e.g. the im2row staged
/// input, `C·(H + 2·pad)·(W + 2·pad)` floats per sample. Callers
/// streaming very large batches through memory-hungry engines should
/// split the batch; the per-call preparation cost is already amortized
/// within each sub-batch.
#[derive(Debug, Default)]
pub struct BandContext {
    dense: Vec<f32>,
    ext: Option<Box<dyn std::any::Any + Send + Sync>>,
}

impl BandContext {
    /// A context carrying no prepared state (the scalar engine's answer).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether no prepared state is attached at all.
    pub fn is_empty(&self) -> bool {
        self.dense.is_empty() && self.ext.is_none()
    }

    /// Attaches a densified operand map (channel-major; the layout is the
    /// preparing engine's, see the type docs).
    pub fn set_dense(&mut self, map: Vec<f32>) {
        self.dense = map;
    }

    /// The densified operand map, or `&[]` when none was prepared.
    pub fn dense(&self) -> &[f32] {
        &self.dense
    }

    /// Attaches an engine-specific payload.
    pub fn set_ext<T: std::any::Any + Send + Sync>(&mut self, value: T) {
        self.ext = Some(Box::new(value));
    }

    /// Downcasts the engine-specific payload, if one of type `T` is
    /// attached.
    pub fn ext<T: std::any::Any>(&self) -> Option<&T> {
        self.ext.as_deref().and_then(|e| e.downcast_ref())
    }
}

/// Layer-level execution of the three training-stage convolutions.
///
/// All methods accumulate into caller-provided tensors (which the `*_into`
/// contract requires to be pre-zeroed or pre-seeded by the caller) and
/// must produce results bitwise identical to [`ScalarEngine`].
pub trait KernelEngine: Send + Sync {
    /// Engine name for reports and benches.
    fn name(&self) -> &'static str;

    /// Forward step: `out[fi] += Σ_ci SRC(input[ci], W[fi][ci])` (+ bias if
    /// given, which overwrites `out` first).
    ///
    /// The default validates shapes and runs [`KernelEngine::forward_band`]
    /// over the whole filter range.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between `input`, `weights`, `geom` and
    /// `out`.
    fn forward_into(
        &self,
        input: &SparseFeatureMap,
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
        out: &mut Tensor3,
    ) {
        check_forward(input, weights, bias, geom, out);
        let (_, oh, ow) = out.shape();
        let ctx = self.prepare_forward(input, weights, bias, geom);
        self.forward_band(&ctx, input, weights, bias, geom, oh, ow, 0, out.as_mut_slice());
    }

    /// GTA step: scatters `dout` through the rotated kernels into `din`,
    /// skipping positions absent from `masks` (the forward non-zero masks,
    /// one per `(channel, input row)` in channel-major order).
    ///
    /// The default validates shapes and runs
    /// [`KernelEngine::input_grad_band`] over the whole channel range.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    fn input_grad_into(
        &self,
        dout: &SparseFeatureMap,
        weights: &Tensor4,
        geom: ConvGeometry,
        masks: &[RowMask],
        din: &mut Tensor3,
    ) {
        check_input_grad(dout, weights, geom, masks, din);
        let (_, in_h, in_w) = din.shape();
        let ctx = self.prepare_input_grad(dout, weights, geom, masks, in_h, in_w);
        self.input_grad_band(
            &ctx,
            dout,
            weights,
            geom,
            masks,
            in_h,
            in_w,
            0,
            din.as_mut_slice(),
        );
    }

    /// GTW step: accumulates `dW[fi][ci][u] += Σ_oy OSRC(I row, dO row)`
    /// directly into the kernel rows of `dw`.
    ///
    /// The default validates shapes and runs
    /// [`KernelEngine::weight_grad_band`] over the whole filter range.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    fn weight_grad_into(
        &self,
        input: &SparseFeatureMap,
        dout: &SparseFeatureMap,
        geom: ConvGeometry,
        dw: &mut Tensor4,
    ) {
        check_weight_grad(input, dout, geom, dw);
        let ctx = self.prepare_weight_grad(input, dout, geom);
        self.weight_grad_band(&ctx, input, dout, geom, 0, dw.as_mut_slice());
    }

    // -- Band-level workers --------------------------------------------------
    //
    // The banding seam: `ParallelEngine` splits a stage's independent
    // output units into contiguous bands and delegates the per-band
    // computation to an *inner* engine through these methods, so a
    // vectorized backend composes with band parallelism (`"parallel:simd"`,
    // `"parallel:im2row"`) without reimplementing the banding. The defaults
    // are the scalar reference loops; every override must stay bitwise
    // identical to them. Band methods trust their caller for shape
    // validation (the `*_into` entry points run the checks), and every
    // band of one call shares the [`BandContext`] the executing engine's
    // matching `prepare_*` hook built from the same operands. An empty or
    // foreign context never changes results: band workers re-prepare
    // locally or take the scalar path.

    /// Builds the per-call operand state for a forward call — invoked
    /// **once**, above the band fan-out. The default prepares nothing.
    fn prepare_forward(
        &self,
        input: &SparseFeatureMap,
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
    ) -> BandContext {
        let _ = (input, weights, bias, geom);
        BandContext::empty()
    }

    /// Builds the per-call operand state for a GTA call — invoked once,
    /// above the band fan-out. The default prepares nothing.
    fn prepare_input_grad(
        &self,
        dout: &SparseFeatureMap,
        weights: &Tensor4,
        geom: ConvGeometry,
        masks: &[RowMask],
        in_h: usize,
        in_w: usize,
    ) -> BandContext {
        let _ = (dout, weights, geom, masks, in_h, in_w);
        BandContext::empty()
    }

    /// Builds the per-call operand state for a GTW call — invoked once,
    /// above the band fan-out. The default prepares nothing.
    fn prepare_weight_grad(
        &self,
        input: &SparseFeatureMap,
        dout: &SparseFeatureMap,
        geom: ConvGeometry,
    ) -> BandContext {
        let _ = (input, dout, geom);
        BandContext::empty()
    }

    /// Computes the forward rows of filters `f_lo..f_lo + n` into
    /// `out_band`, which holds `n` contiguous pre-seeded `oh × ow` filter
    /// planes. `ctx` is the call's shared [`BandContext`] (from
    /// [`KernelEngine::prepare_forward`] on the same operands).
    #[allow(clippy::too_many_arguments)]
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
        let _ = ctx;
        scalar_forward_band(input, weights, bias, geom, oh, ow, f_lo, out_band, |_| true);
    }

    /// Computes the input-gradient rows of channels `c_lo..c_lo + n` into
    /// `din_band`, which holds `n` contiguous pre-seeded `in_h × in_w`
    /// channel planes. `ctx` is the call's shared [`BandContext`].
    #[allow(clippy::too_many_arguments)]
    fn input_grad_band(
        &self,
        ctx: &BandContext,
        dout: &SparseFeatureMap,
        weights: &Tensor4,
        geom: ConvGeometry,
        masks: &[RowMask],
        in_h: usize,
        in_w: usize,
        c_lo: usize,
        din_band: &mut [f32],
    ) {
        let _ = ctx;
        scalar_input_grad_band(dout, weights, geom, masks, in_h, in_w, c_lo, din_band);
    }

    /// Accumulates the weight gradients of filters `f_lo..f_lo + n` into
    /// `dw_band`, which holds `n` contiguous `C × K × K` filter blocks.
    /// `ctx` is the call's shared [`BandContext`].
    fn weight_grad_band(
        &self,
        ctx: &BandContext,
        input: &SparseFeatureMap,
        dout: &SparseFeatureMap,
        geom: ConvGeometry,
        f_lo: usize,
        dw_band: &mut [f32],
    ) {
        let _ = ctx;
        scalar_weight_grad_band(input, dout, geom, f_lo, dw_band);
    }

    // -- Batched entry points ------------------------------------------------
    //
    // One engine call per batch: the accelerator streams whole batches
    // through the datapath to amortize control overhead, and the software
    // engines mirror that here. The defaults fall back to the per-sample
    // methods in sample order, which *defines* the result: every override
    // must stay bitwise identical to it (verified by the `engine_parity`
    // property tests).

    /// Forward step for a whole batch: `outs[s]` receives the forward
    /// output of `inputs[s]`, exactly as `forward_into` would produce it.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != outs.len()` or on per-sample shape
    /// mismatches.
    fn forward_batch_into(
        &self,
        inputs: &[SparseFeatureMap],
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
        outs: &mut [Tensor3],
    ) {
        assert_eq!(inputs.len(), outs.len(), "batch length mismatch");
        for (input, out) in inputs.iter().zip(outs.iter_mut()) {
            self.forward_into(input, weights, bias, geom, out);
        }
    }

    /// GTA step for a whole batch; `masks[s]` carries sample `s`'s forward
    /// non-zero masks (one per `(channel, input row)` in channel-major
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if the batch slices disagree in length or on per-sample shape
    /// mismatches.
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
        for ((dout, mask), din) in douts.iter().zip(masks).zip(dins.iter_mut()) {
            self.input_grad_into(dout, weights, geom, mask, din);
        }
    }

    /// GTW step for a whole batch: accumulates every sample's weight
    /// gradient into the shared `dw`, in sample order — the batch-level
    /// gradient the optimizer consumes.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != douts.len()` or on per-sample shape
    /// mismatches.
    fn weight_grad_batch_into(
        &self,
        inputs: &[SparseFeatureMap],
        douts: &[SparseFeatureMap],
        geom: ConvGeometry,
        dw: &mut Tensor4,
    ) {
        assert_eq!(inputs.len(), douts.len(), "batch length mismatch");
        for (input, dout) in inputs.iter().zip(douts) {
            self.weight_grad_into(input, dout, geom, dw);
        }
    }

    // -- Elementwise batch work ----------------------------------------------

    /// Runs `work` over a batch of independent mutable parts (e.g. one
    /// gradient tensor per sample), covering every element of every part
    /// exactly once: each invocation `work(part, offset, chunk)` receives a
    /// sub-slice of `parts[part]` beginning at element `offset` of that
    /// part. The default visits whole parts sequentially in order; engines
    /// may split parts into chunks and run them concurrently in any order.
    ///
    /// This is the seam the stochastic pruning stage executes through:
    /// because its per-element decisions are keyed by *position*
    /// (counter-based RNG streams), any chunking of the element space
    /// produces bitwise-identical results. `work` must therefore be
    /// position-pure — its effect on an element may depend only on
    /// `(part, element index, element value)`, never on visitation order.
    fn for_each_batch_chunk(&self, parts: Vec<&mut [f32]>, work: &(dyn Fn(usize, usize, &mut [f32]) + Sync)) {
        for (p, part) in parts.into_iter().enumerate() {
            work(p, 0, part);
        }
    }

    // -- Allocating conveniences ---------------------------------------------

    /// Forward step into a freshly allocated output tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    fn forward(
        &self,
        input: &SparseFeatureMap,
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
    ) -> Tensor3 {
        let oh = geom.output_extent(input.height());
        let ow = geom.output_extent(input.width());
        let mut out = Tensor3::zeros(weights.filters(), oh, ow);
        self.forward_into(input, weights, bias, geom, &mut out);
        out
    }

    /// GTA step into a freshly allocated input-gradient tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    fn input_grad(
        &self,
        dout: &SparseFeatureMap,
        weights: &Tensor4,
        geom: ConvGeometry,
        in_h: usize,
        in_w: usize,
        masks: &[RowMask],
    ) -> Tensor3 {
        let mut din = Tensor3::zeros(weights.channels(), in_h, in_w);
        self.input_grad_into(dout, weights, geom, masks, &mut din);
        din
    }

    /// GTW step into a freshly allocated weight-gradient tensor.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    fn weight_grad(&self, input: &SparseFeatureMap, dout: &SparseFeatureMap, geom: ConvGeometry) -> Tensor4 {
        let mut dw = Tensor4::zeros(dout.channels(), input.channels(), geom.kernel, geom.kernel);
        self.weight_grad_into(input, dout, geom, &mut dw);
        dw
    }

    /// Batched forward step into freshly allocated output tensors.
    ///
    /// # Panics
    ///
    /// Panics on per-sample shape mismatches.
    fn forward_batch(
        &self,
        inputs: &[SparseFeatureMap],
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
    ) -> Vec<Tensor3> {
        let mut outs: Vec<Tensor3> = inputs
            .iter()
            .map(|input| {
                let oh = geom.output_extent(input.height());
                let ow = geom.output_extent(input.width());
                Tensor3::zeros(weights.filters(), oh, ow)
            })
            .collect();
        self.forward_batch_into(inputs, weights, bias, geom, &mut outs);
        outs
    }

    /// Batched GTA step into freshly allocated input-gradient tensors (all
    /// samples share the `in_h × in_w` spatial extent).
    ///
    /// # Panics
    ///
    /// Panics if the batch slices disagree in length or on per-sample shape
    /// mismatches.
    fn input_grad_batch(
        &self,
        douts: &[SparseFeatureMap],
        weights: &Tensor4,
        geom: ConvGeometry,
        in_h: usize,
        in_w: usize,
        masks: &[Vec<RowMask>],
    ) -> Vec<Tensor3> {
        let mut dins: Vec<Tensor3> = douts
            .iter()
            .map(|_| Tensor3::zeros(weights.channels(), in_h, in_w))
            .collect();
        self.input_grad_batch_into(douts, weights, geom, masks, &mut dins);
        dins
    }
}

// ---------------------------------------------------------------------------
// Shared shape validation
// ---------------------------------------------------------------------------

fn check_forward(
    input: &SparseFeatureMap,
    weights: &Tensor4,
    bias: Option<&[f32]>,
    geom: ConvGeometry,
    out: &Tensor3,
) {
    let (f, wc, kh, kw) = weights.shape();
    assert_eq!(wc, input.channels(), "weight/input channel mismatch");
    assert_eq!(kh, geom.kernel);
    assert_eq!(kw, geom.kernel);
    if let Some(b) = bias {
        assert_eq!(b.len(), f, "bias length mismatch");
    }
    let oh = geom.output_extent(input.height());
    let ow = geom.output_extent(input.width());
    assert_eq!(out.shape(), (f, oh, ow), "output tensor shape mismatch");
}

pub(crate) fn check_input_grad(
    dout: &SparseFeatureMap,
    weights: &Tensor4,
    geom: ConvGeometry,
    masks: &[RowMask],
    din: &Tensor3,
) {
    let (f, c, kh, kw) = weights.shape();
    assert_eq!(f, dout.channels(), "weight filters != dout channels");
    assert_eq!(kh, geom.kernel);
    assert_eq!(kw, geom.kernel);
    let (dc, in_h, _) = din.shape();
    assert_eq!(dc, c, "din channels != weight channels");
    assert_eq!(masks.len(), c * in_h, "need one mask per (channel, input row)");
}

pub(crate) fn check_weight_grad(
    input: &SparseFeatureMap,
    dout: &SparseFeatureMap,
    geom: ConvGeometry,
    dw: &Tensor4,
) {
    assert_eq!(dout.height(), geom.output_extent(input.height()));
    assert_eq!(dout.width(), geom.output_extent(input.width()));
    assert_eq!(
        dw.shape(),
        (dout.channels(), input.channels(), geom.kernel, geom.kernel),
        "dw tensor shape mismatch"
    );
}

// ---------------------------------------------------------------------------
// Scalar band workers (the trait's default band bodies; the scalar engine
// is one big band)
// ---------------------------------------------------------------------------

/// Computes the forward rows of filters `f_lo..f_lo + n` into `out_band`
/// (`n` contiguous `Oh × Ow` filter planes). The bias fills every plane;
/// only the output rows `oy` with `take(oy)` are then accumulated, so a
/// backend can run the rest itself.
#[allow(clippy::too_many_arguments)]
pub(crate) fn scalar_forward_band(
    input: &SparseFeatureMap,
    weights: &Tensor4,
    bias: Option<&[f32]>,
    geom: ConvGeometry,
    oh: usize,
    ow: usize,
    f_lo: usize,
    out_band: &mut [f32],
    take: impl Fn(usize) -> bool,
) {
    let h = input.height() as isize;
    for (bf, plane) in out_band.chunks_mut(oh * ow).enumerate() {
        let fi = f_lo + bf;
        if let Some(b) = bias {
            plane.fill(b[fi]);
        }
        for (oy, out_row) in plane.chunks_mut(ow).enumerate() {
            if !take(oy) {
                continue;
            }
            for u in 0..geom.kernel {
                let iy = (oy * geom.stride) as isize - geom.pad as isize + u as isize;
                if iy < 0 || iy >= h {
                    continue;
                }
                for ci in 0..input.channels() {
                    let krow = weights.kernel_row(fi, ci, u);
                    src_accumulate(input.row(ci, iy as usize), krow, geom, out_row);
                }
            }
        }
    }
}

/// Computes the input-gradient rows of channels `c_lo..c_lo + n` into
/// `din_band` (`n` contiguous `H × W` channel planes).
#[allow(clippy::too_many_arguments)]
pub(crate) fn scalar_input_grad_band(
    dout: &SparseFeatureMap,
    weights: &Tensor4,
    geom: ConvGeometry,
    masks: &[RowMask],
    in_h: usize,
    in_w: usize,
    c_lo: usize,
    din_band: &mut [f32],
) {
    for (bc, plane) in din_band.chunks_mut(in_h * in_w).enumerate() {
        let ci = c_lo + bc;
        for fi in 0..dout.channels() {
            for oy in 0..dout.height() {
                let grow = dout.row(fi, oy);
                if grow.nnz() == 0 {
                    continue;
                }
                for u in 0..geom.kernel {
                    let iy = (oy * geom.stride) as isize - geom.pad as isize + u as isize;
                    if iy < 0 || iy >= in_h as isize {
                        continue;
                    }
                    let iy = iy as usize;
                    let out_row = &mut plane[iy * in_w..(iy + 1) * in_w];
                    msrc_accumulate(
                        grow,
                        weights.kernel_row(fi, ci, u),
                        geom,
                        &masks[ci * in_h + iy],
                        out_row,
                    );
                }
            }
        }
    }
}

/// Accumulates the weight gradients of filters `f_lo..f_lo + n` into
/// `dw_band` (`n` contiguous `C × K × K` filter blocks).
pub(crate) fn scalar_weight_grad_band(
    input: &SparseFeatureMap,
    dout: &SparseFeatureMap,
    geom: ConvGeometry,
    f_lo: usize,
    dw_band: &mut [f32],
) {
    let c = input.channels();
    let k = geom.kernel;
    for (bf, block) in dw_band.chunks_mut(c * k * k).enumerate() {
        let fi = f_lo + bf;
        for ci in 0..c {
            for u in 0..k {
                let taps = &mut block[(ci * k + u) * k..(ci * k + u + 1) * k];
                for oy in 0..dout.height() {
                    let iy = (oy * geom.stride) as isize - geom.pad as isize + u as isize;
                    if iy < 0 || iy >= input.height() as isize {
                        continue;
                    }
                    let irow = input.row(ci, iy as usize);
                    let grow = dout.row(fi, oy);
                    if irow.nnz() == 0 || grow.nnz() == 0 {
                        continue;
                    }
                    osrc_accumulate(irow, grow, geom, taps);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ScalarEngine
// ---------------------------------------------------------------------------

/// The reference single-threaded engine; its iteration order defines the
/// exact floating-point result every engine must reproduce.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarEngine;

impl KernelEngine for ScalarEngine {
    // The trait defaults (shape checks + the scalar band workers over the
    // whole unit range) *are* the reference semantics.
    fn name(&self) -> &'static str {
        "scalar"
    }
}

// ---------------------------------------------------------------------------
// ParallelEngine
// ---------------------------------------------------------------------------

/// Band-parallel engine: splits the layer's independent output units
/// (filters or channels) into one contiguous band per worker and runs the
/// bands on rayon's fork-join scope.
///
/// The per-band computation is delegated to an **inner** engine through
/// the [`KernelEngine`] band methods — the scalar reference by default
/// (`"parallel"`), or any other backend (the registry wires
/// `"parallel:simd"` as bands over [`crate::simd_engine::SimdEngine`]), so
/// thread-level and lane-level parallelism compose.
///
/// Each band writes a disjoint region of the output tensor and the inner
/// engine reproduces the exact scalar per-row accumulation order, so
/// results are bitwise equal to [`ScalarEngine`] — parallelism changes
/// wall-clock, never values.
#[derive(Clone, Copy)]
pub struct ParallelEngine {
    name: &'static str,
    threads: usize,
    inner: &'static dyn KernelEngine,
}

impl std::fmt::Debug for ParallelEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelEngine")
            .field("name", &self.name)
            .field("threads", &self.threads)
            .field("inner", &self.inner.name())
            .finish()
    }
}

impl Default for ParallelEngine {
    fn default() -> Self {
        Self::auto()
    }
}

impl ParallelEngine {
    /// Engine sizing bands to the machine's hardware parallelism, with the
    /// scalar reference inside each band.
    pub const fn auto() -> Self {
        Self::over("parallel", &ScalarEngine)
    }

    /// Engine with an explicit worker-band count (0 = auto) over the
    /// scalar reference.
    pub const fn with_threads(threads: usize) -> Self {
        Self {
            name: "parallel",
            threads,
            inner: &ScalarEngine,
        }
    }

    /// Band-parallel engine delegating each band's computation to `inner`,
    /// reported under `name` (e.g. `"parallel:simd"`). `inner` must be
    /// bitwise-identical to the scalar reference for the composition to be
    /// so too.
    pub const fn over(name: &'static str, inner: &'static dyn KernelEngine) -> Self {
        Self {
            name,
            threads: 0,
            inner,
        }
    }

    /// This engine with an explicit worker-band count (0 = auto), keeping
    /// its name and inner engine.
    pub const fn banded(self, threads: usize) -> Self {
        Self { threads, ..self }
    }

    /// The engine executing inside each band.
    pub fn inner(&self) -> &'static dyn KernelEngine {
        self.inner
    }

    /// Rough MAC count below which a band is not worth a worker: spawning
    /// a scope task costs on the order of tens of microseconds (a fresh OS
    /// thread under the compat rayon shim), which is itself worth tens of
    /// thousands of sparse MACs — a band must carry several multiples of
    /// that to amortize the fork-join. Applied in auto mode only — an
    /// explicit `with_threads` count is honoured as given.
    const MIN_OPS_PER_BAND: usize = 128 * 1024;

    fn bands(&self, units: usize, ops_per_unit: usize) -> usize {
        self.bands_for_total(units, units.saturating_mul(ops_per_unit))
    }

    /// Band count for `units` independent output units carrying `total_ops`
    /// MACs altogether (used directly by the batched paths, where per-unit
    /// work varies across samples).
    fn bands_for_total(&self, units: usize, total_ops: usize) -> usize {
        if self.threads != 0 {
            return self.threads.clamp(1, units.max(1));
        }
        let by_work = total_ops.max(1).div_ceil(Self::MIN_OPS_PER_BAND);
        rayon::current_num_threads().min(by_work).clamp(1, units.max(1))
    }
}

/// Splits `data` (holding `units` blocks of `unit_len` elements) into
/// `bands` near-equal contiguous bands and runs `work(first_unit, band)`
/// for each band in parallel.
fn for_each_band<F>(data: &mut [f32], units: usize, unit_len: usize, bands: usize, work: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    debug_assert_eq!(data.len(), units * unit_len);
    if bands <= 1 || units <= 1 {
        work(0, data);
        return;
    }
    let per_band = units.div_ceil(bands);
    let work = &work;
    rayon::scope(|scope| {
        let mut rest = data;
        let mut unit = 0usize;
        while unit < units {
            let n = per_band.min(units - unit);
            let (band, tail) = rest.split_at_mut(n * unit_len);
            rest = tail;
            let first = unit;
            unit += n;
            if unit >= units {
                // Final band runs on the calling thread, which would
                // otherwise idle inside the scope — saves one task spawn.
                work(first, band);
            } else {
                scope.spawn(move |_| work(first, band));
            }
        }
    });
}

/// Splits a batch of per-sample slices (each holding `units` blocks of
/// `unit_len` elements) into `bands` near-equal contiguous chunks of the
/// *global* `samples × units` space and runs
/// `work(sample, first_unit, chunk)` for each chunk in parallel.
///
/// Chunks never span samples (a global band that crosses a sample boundary
/// becomes one chunk per sample), so each worker sees one sample's
/// contiguous unit range — the per-unit iteration order is exactly the
/// scalar order and results stay bitwise identical.
fn for_each_batch_band<F>(samples: Vec<&mut [f32]>, units: usize, unit_len: usize, bands: usize, work: F)
where
    F: Fn(usize, usize, &mut [f32]) + Sync,
{
    let total_units = samples.len() * units;
    if bands <= 1 || total_units <= 1 {
        for (s, slice) in samples.into_iter().enumerate() {
            work(s, 0, slice);
        }
        return;
    }
    let per_band = total_units.div_ceil(bands);
    let work = &work;
    rayon::scope(|scope| {
        for (s, slice) in samples.into_iter().enumerate() {
            debug_assert_eq!(slice.len(), units * unit_len);
            let mut rest = slice;
            let mut unit = 0usize;
            while unit < units {
                let global = s * units + unit;
                // End of the global band this unit falls into, clamped to
                // the sample boundary.
                let band_end = (global / per_band + 1) * per_band;
                let n = (band_end - global).min(units - unit);
                let (chunk, tail) = rest.split_at_mut(n * unit_len);
                rest = tail;
                let first = unit;
                unit += n;
                scope.spawn(move |_| work(s, first, chunk));
            }
        }
    });
}

/// Splits a batch of per-part element slices (lengths may differ) into
/// `bands` near-equal contiguous chunks of the *global* element space and
/// runs `work(part, first_element, chunk)` for each chunk in parallel.
///
/// Chunks never span parts (a global band crossing a part boundary becomes
/// one chunk per part), mirroring [`for_each_batch_band`] with per-element
/// granularity and non-uniform part lengths. Chunk boundaries are rounded
/// up to the vector lane-block width: every chunk starts at a part-local
/// offset that is a multiple of [`crate::simd_engine::LANES`], so
/// lane-blocked consumers of the seam (the pruned-gradient snap/zero
/// writes, whose draw buffers fill in fixed-width runs) see whole blocks.
/// Position-pure work is chunking-invariant, so the alignment never
/// changes a result.
fn for_each_element_chunk(
    parts: Vec<&mut [f32]>,
    bands: usize,
    work: &(dyn Fn(usize, usize, &mut [f32]) + Sync),
) {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    if bands <= 1 || total <= 1 {
        for (p, part) in parts.into_iter().enumerate() {
            work(p, 0, part);
        }
        return;
    }
    let per_band = total.div_ceil(bands);
    rayon::scope(|scope| {
        let mut global = 0usize;
        for (p, part) in parts.into_iter().enumerate() {
            let mut rest = part;
            let mut offset = 0usize;
            while !rest.is_empty() {
                // End of the global band this element falls into, clamped
                // to the part boundary, then lane-aligned within the part
                // (the final chunk keeps its remainder).
                let band_end = (global / per_band + 1) * per_band;
                let mut n = (band_end - global).min(rest.len());
                if n < rest.len() {
                    n = (offset + n)
                        .next_multiple_of(crate::simd_engine::LANES)
                        .saturating_sub(offset)
                        .min(rest.len());
                }
                let (chunk, tail) = rest.split_at_mut(n);
                rest = tail;
                let first = offset;
                offset += n;
                global += n;
                scope.spawn(move |_| work(p, first, chunk));
            }
        }
    });
}

impl KernelEngine for ParallelEngine {
    fn name(&self) -> &'static str {
        self.name
    }

    fn forward_into(
        &self,
        input: &SparseFeatureMap,
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
        out: &mut Tensor3,
    ) {
        check_forward(input, weights, bias, geom, out);
        let (f, oh, ow) = out.shape();
        // Per-filter work ≈ every input non-zero hits K kernel taps.
        let bands = self.bands(f, input.nnz() * geom.kernel);
        // One preparation for the whole call: every band borrows the same
        // operand state instead of rebuilding it.
        let ctx = self.inner.prepare_forward(input, weights, bias, geom);
        for_each_band(out.as_mut_slice(), f, oh * ow, bands, |f_lo, band| {
            self.inner
                .forward_band(&ctx, input, weights, bias, geom, oh, ow, f_lo, band);
        });
    }

    fn input_grad_into(
        &self,
        dout: &SparseFeatureMap,
        weights: &Tensor4,
        geom: ConvGeometry,
        masks: &[RowMask],
        din: &mut Tensor3,
    ) {
        check_input_grad(dout, weights, geom, masks, din);
        let (c, in_h, in_w) = din.shape();
        // Per-channel work ≈ every gradient non-zero scatters K taps.
        let bands = self.bands(c, dout.nnz() * geom.kernel);
        let ctx = self
            .inner
            .prepare_input_grad(dout, weights, geom, masks, in_h, in_w);
        for_each_band(din.as_mut_slice(), c, in_h * in_w, bands, |c_lo, band| {
            self.inner
                .input_grad_band(&ctx, dout, weights, geom, masks, in_h, in_w, c_lo, band);
        });
    }

    fn weight_grad_into(
        &self,
        input: &SparseFeatureMap,
        dout: &SparseFeatureMap,
        geom: ConvGeometry,
        dw: &mut Tensor4,
    ) {
        check_weight_grad(input, dout, geom, dw);
        let (f, c, k, _) = dw.shape();
        // Per-filter work ≈ the input swept once per kernel row.
        let bands = self.bands(f, input.nnz() * geom.kernel);
        let ctx = self.inner.prepare_weight_grad(input, dout, geom);
        for_each_band(dw.as_mut_slice(), f, c * k * k, bands, |f_lo, band| {
            self.inner.weight_grad_band(&ctx, input, dout, geom, f_lo, band);
        });
    }

    fn forward_batch_into(
        &self,
        inputs: &[SparseFeatureMap],
        weights: &Tensor4,
        bias: Option<&[f32]>,
        geom: ConvGeometry,
        outs: &mut [Tensor3],
    ) {
        assert_eq!(inputs.len(), outs.len(), "batch length mismatch");
        let Some(first) = inputs.first() else { return };
        // Mixed-shape batches band per sample instead (still bitwise equal
        // to the scalar order — banding never reorders accumulation).
        if !inputs
            .iter()
            .all(|i| i.height() == first.height() && i.width() == first.width())
        {
            for (input, out) in inputs.iter().zip(outs.iter_mut()) {
                self.forward_into(input, weights, bias, geom, out);
            }
            return;
        }
        let mut oh = 0;
        let mut ow = 0;
        for (input, out) in inputs.iter().zip(outs.iter()) {
            check_forward(input, weights, bias, geom, out);
            (_, oh, ow) = out.shape();
        }
        let f = weights.filters();
        let total_ops: usize = inputs.iter().map(|i| i.nnz() * geom.kernel).sum();
        let bands = self.bands_for_total(inputs.len() * f, total_ops);
        // One preparation per sample, shared by every band that touches it.
        let ctxs: Vec<BandContext> = inputs
            .iter()
            .map(|input| self.inner.prepare_forward(input, weights, bias, geom))
            .collect();
        let slices: Vec<&mut [f32]> = outs.iter_mut().map(Tensor3::as_mut_slice).collect();
        for_each_batch_band(slices, f, oh * ow, bands, |s, f_lo, chunk| {
            self.inner
                .forward_band(&ctxs[s], &inputs[s], weights, bias, geom, oh, ow, f_lo, chunk);
        });
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
        let Some(first) = dins.first() else { return };
        let (c, in_h, in_w) = first.shape();
        if !dins.iter().all(|d| d.shape() == (c, in_h, in_w)) {
            for ((dout, mask), din) in douts.iter().zip(masks).zip(dins.iter_mut()) {
                self.input_grad_into(dout, weights, geom, mask, din);
            }
            return;
        }
        for ((dout, mask), din) in douts.iter().zip(masks).zip(dins.iter()) {
            check_input_grad(dout, weights, geom, mask, din);
        }
        let total_ops: usize = douts.iter().map(|d| d.nnz() * geom.kernel).sum();
        let bands = self.bands_for_total(dins.len() * c, total_ops);
        let ctxs: Vec<BandContext> = douts
            .iter()
            .zip(masks)
            .map(|(dout, mask)| {
                self.inner
                    .prepare_input_grad(dout, weights, geom, mask, in_h, in_w)
            })
            .collect();
        let slices: Vec<&mut [f32]> = dins.iter_mut().map(Tensor3::as_mut_slice).collect();
        for_each_batch_band(slices, c, in_h * in_w, bands, |s, c_lo, chunk| {
            self.inner.input_grad_band(
                &ctxs[s], &douts[s], weights, geom, &masks[s], in_h, in_w, c_lo, chunk,
            );
        });
    }

    fn for_each_batch_chunk(&self, parts: Vec<&mut [f32]>, work: &(dyn Fn(usize, usize, &mut [f32]) + Sync)) {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        // A position-keyed element visit costs a handful of MACs' worth of
        // work (one counter-based draw at most), so weight elements
        // accordingly when sizing bands in auto mode.
        let bands = self.bands_for_total(total, total.saturating_mul(8));
        for_each_element_chunk(parts, bands, work);
    }

    fn weight_grad_batch_into(
        &self,
        inputs: &[SparseFeatureMap],
        douts: &[SparseFeatureMap],
        geom: ConvGeometry,
        dw: &mut Tensor4,
    ) {
        assert_eq!(inputs.len(), douts.len(), "batch length mismatch");
        for (input, dout) in inputs.iter().zip(douts) {
            check_weight_grad(input, dout, geom, dw);
        }
        let (f, c, k, _) = dw.shape();
        // The batch shares one dW, so parallelism stays across filters;
        // each filter band accumulates its samples in order, keeping the
        // per-tap accumulation sequence identical to the per-sample path.
        let total_ops: usize = inputs.iter().map(|i| i.nnz() * geom.kernel).sum();
        let bands = self.bands_for_total(f, total_ops);
        let ctxs: Vec<BandContext> = inputs
            .iter()
            .zip(douts)
            .map(|(input, dout)| self.inner.prepare_weight_grad(input, dout, geom))
            .collect();
        for_each_band(dw.as_mut_slice(), f, c * k * k, bands, |f_lo, band| {
            for ((input, dout), ctx) in inputs.iter().zip(douts).zip(&ctxs) {
                self.inner.weight_grad_band(ctx, input, dout, geom, f_lo, band);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

/// Reusable scratch buffers for row-at-a-time kernel execution.
///
/// A `Workspace` owns one output-row buffer and one tap buffer that grow to
/// the largest size requested and are then reused, so driving the 1-D
/// kernels row by row (op-stream executors, benches, PE-level harnesses)
/// performs no per-row allocation:
///
/// ```
/// use sparsetrain_sparse::{engine::Workspace, SparseVec};
/// use sparsetrain_tensor::conv::ConvGeometry;
///
/// let mut ws = Workspace::new();
/// let row = SparseVec::from_dense(&[0.0, 2.0, 0.0, 4.0]);
/// let out = ws.src(&row, &[1.0], ConvGeometry::new(1, 1, 0), 4);
/// assert_eq!(out, &[0.0, 2.0, 0.0, 4.0]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    row: Vec<f32>,
    taps: Vec<f32>,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace pre-sized for rows of `row_len` and kernels of `k` taps.
    pub fn with_capacity(row_len: usize, k: usize) -> Self {
        Self {
            row: vec![0.0; row_len],
            taps: vec![0.0; k],
        }
    }

    /// A zeroed output-row buffer of length `len`, reused across calls.
    pub fn row(&mut self, len: usize) -> &mut [f32] {
        if self.row.len() < len {
            self.row.resize(len, 0.0);
        }
        let row = &mut self.row[..len];
        row.fill(0.0);
        row
    }

    /// A zeroed tap buffer of length `k`, reused across calls.
    pub fn taps(&mut self, k: usize) -> &mut [f32] {
        if self.taps.len() < k {
            self.taps.resize(k, 0.0);
        }
        let taps = &mut self.taps[..k];
        taps.fill(0.0);
        taps
    }

    /// One SRC operation into the reused row buffer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel_row.len() != geom.kernel`.
    pub fn src<'a>(
        &mut self,
        input: impl Into<SparseRow<'a>>,
        kernel_row: &[f32],
        geom: ConvGeometry,
        out_len: usize,
    ) -> &[f32] {
        let out = self.row(out_len);
        src_accumulate(input, kernel_row, geom, out);
        out
    }

    /// One MSRC operation into the reused row buffer.
    ///
    /// # Panics
    ///
    /// Panics if `kernel_row.len() != geom.kernel` or
    /// `mask.len() != out_len`.
    pub fn msrc<'a>(
        &mut self,
        grad: impl Into<SparseRow<'a>>,
        kernel_row: &[f32],
        geom: ConvGeometry,
        mask: &RowMask,
        out_len: usize,
    ) -> &[f32] {
        let out = self.row(out_len);
        msrc_accumulate(grad, kernel_row, geom, mask, out);
        out
    }

    /// One OSRC operation into the reused tap buffer.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if operand lengths are inconsistent with
    /// `geom`.
    pub fn osrc<'a, 'b>(
        &mut self,
        input: impl Into<SparseRow<'a>>,
        grad: impl Into<SparseRow<'b>>,
        geom: ConvGeometry,
    ) -> &[f32] {
        let taps = self.taps(geom.kernel);
        osrc_accumulate(input, grad, geom, taps);
        taps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressed::SparseVec;
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

    fn fixtures(
        seed: u64,
    ) -> (
        SparseFeatureMap,
        Tensor4,
        Vec<f32>,
        SparseFeatureMap,
        ConvGeometry,
    ) {
        let geom = ConvGeometry::new(3, 1, 1);
        let mut s = seed;
        let input = sparse_tensor(3, 8, 8, 40, &mut s);
        let weights = Tensor4::from_fn(4, 3, 3, 3, |_, _, _, _| pseudo(&mut s));
        let bias: Vec<f32> = (0..4).map(|_| pseudo(&mut s)).collect();
        let dout = sparse_tensor(4, 8, 8, 35, &mut s);
        (
            SparseFeatureMap::from_tensor(&input),
            weights,
            bias,
            SparseFeatureMap::from_tensor(&dout),
            geom,
        )
    }

    #[test]
    fn parallel_forward_bitwise_matches_scalar() {
        let (input, weights, bias, _, geom) = fixtures(99);
        let scalar = ScalarEngine.forward(&input, &weights, Some(&bias), geom);
        let parallel = ParallelEngine::auto().forward(&input, &weights, Some(&bias), geom);
        assert_eq!(scalar.as_slice(), parallel.as_slice());
    }

    #[test]
    fn parallel_input_grad_bitwise_matches_scalar() {
        let (input, weights, _, dout, geom) = fixtures(7);
        let masks = input.masks();
        let scalar = ScalarEngine.input_grad(&dout, &weights, geom, 8, 8, &masks);
        let parallel = ParallelEngine::auto().input_grad(&dout, &weights, geom, 8, 8, &masks);
        assert_eq!(scalar.as_slice(), parallel.as_slice());
    }

    #[test]
    fn parallel_weight_grad_bitwise_matches_scalar() {
        let (input, _, _, dout, geom) = fixtures(23);
        let scalar = ScalarEngine.weight_grad(&input, &dout, geom);
        let parallel = ParallelEngine::auto().weight_grad(&input, &dout, geom);
        assert_eq!(scalar.as_slice(), parallel.as_slice());
    }

    fn batch_fixtures(n: usize) -> (Vec<SparseFeatureMap>, Tensor4, Vec<f32>, Vec<SparseFeatureMap>) {
        let mut inputs = Vec::new();
        let mut douts = Vec::new();
        let (mut weights, mut bias) = (None, None);
        for s in 0..n {
            let (input, w, b, dout, _) = fixtures(100 + s as u64 * 17);
            inputs.push(input);
            douts.push(dout);
            weights.get_or_insert(w);
            bias.get_or_insert(b);
        }
        (inputs, weights.unwrap(), bias.unwrap(), douts)
    }

    #[test]
    fn parallel_batched_forward_matches_per_sample() {
        let geom = ConvGeometry::new(3, 1, 1);
        let (inputs, weights, bias, _) = batch_fixtures(5);
        for threads in [1usize, 2, 3, 8] {
            let engine = ParallelEngine::with_threads(threads);
            let batched = engine.forward_batch(&inputs, &weights, Some(&bias), geom);
            for (input, got) in inputs.iter().zip(&batched) {
                let want = ScalarEngine.forward(input, &weights, Some(&bias), geom);
                assert_eq!(got.as_slice(), want.as_slice(), "threads {threads}");
            }
        }
    }

    #[test]
    fn parallel_batched_weight_grad_matches_per_sample() {
        let geom = ConvGeometry::new(3, 1, 1);
        let (inputs, _, _, douts) = batch_fixtures(4);
        for threads in [1usize, 2, 7] {
            let engine = ParallelEngine::with_threads(threads);
            let mut batched = Tensor4::zeros(4, 3, 3, 3);
            engine.weight_grad_batch_into(&inputs, &douts, geom, &mut batched);
            let mut want = Tensor4::zeros(4, 3, 3, 3);
            for (input, dout) in inputs.iter().zip(&douts) {
                ScalarEngine.weight_grad_into(input, dout, geom, &mut want);
            }
            assert_eq!(batched.as_slice(), want.as_slice(), "threads {threads}");
        }
    }

    #[test]
    fn parallel_batched_input_grad_matches_per_sample() {
        let geom = ConvGeometry::new(3, 1, 1);
        let (inputs, weights, _, douts) = batch_fixtures(3);
        let masks: Vec<Vec<RowMask>> = inputs.iter().map(SparseFeatureMap::masks).collect();
        for threads in [1usize, 2, 5] {
            let engine = ParallelEngine::with_threads(threads);
            let batched = engine.input_grad_batch(&douts, &weights, geom, 8, 8, &masks);
            for ((dout, mask), got) in douts.iter().zip(&masks).zip(&batched) {
                let want = ScalarEngine.input_grad(dout, &weights, geom, 8, 8, mask);
                assert_eq!(got.as_slice(), want.as_slice(), "threads {threads}");
            }
        }
    }

    #[test]
    fn empty_batches_are_no_ops() {
        let geom = ConvGeometry::new(3, 1, 1);
        let weights = Tensor4::from_fn(2, 2, 3, 3, |_, _, _, _| 1.0);
        let mut dw = Tensor4::zeros(2, 2, 3, 3);
        for engine in [&ScalarEngine as &dyn KernelEngine, &ParallelEngine::auto()] {
            engine.forward_batch_into(&[], &weights, None, geom, &mut []);
            engine.input_grad_batch_into(&[], &weights, geom, &[], &mut []);
            engine.weight_grad_batch_into(&[], &[], geom, &mut dw);
        }
        assert!(dw.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn band_split_covers_all_units_for_any_band_count() {
        for units in 1..10usize {
            for bands in 1..6usize {
                let mut data = vec![0.0f32; units * 4];
                for_each_band(&mut data, units, 4, bands, |first, band| {
                    for (i, chunk) in band.chunks_mut(4).enumerate() {
                        chunk.fill((first + i) as f32 + 1.0);
                    }
                });
                for u in 0..units {
                    assert!(
                        data[u * 4..(u + 1) * 4].iter().all(|&v| v == u as f32 + 1.0),
                        "unit {u} not covered for units {units} bands {bands}"
                    );
                }
            }
        }
    }

    #[test]
    fn element_chunk_split_covers_every_element_once() {
        // Uneven part lengths, including an empty part, for several band
        // counts: every element must be visited exactly once with its
        // correct (part, offset) coordinates.
        for bands in 1..8usize {
            let mut a = vec![0.0f32; 5];
            let mut b: Vec<f32> = Vec::new();
            let mut c = vec![0.0f32; 9];
            let mut d = vec![0.0f32; 2];
            let parts: Vec<&mut [f32]> = vec![&mut a, &mut b, &mut c, &mut d];
            for_each_element_chunk(parts, bands, &|p, offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    // Encode the coordinates; a second visit would clobber.
                    assert_eq!(*v, 0.0, "element visited twice (bands {bands})");
                    *v = (p * 100 + offset + i) as f32 + 1.0;
                }
            });
            for (p, part) in [&a[..], &b[..], &c[..], &d[..]].iter().enumerate() {
                for (i, &v) in part.iter().enumerate() {
                    assert_eq!(v, (p * 100 + i) as f32 + 1.0, "bands {bands}");
                }
            }
        }
    }

    #[test]
    fn engines_agree_on_position_pure_batch_work() {
        // A position-pure transform must come out identical under the
        // default sequential visit and the parallel chunked visit.
        let make = || -> Vec<Vec<f32>> {
            (0..4)
                .map(|p| (0..257).map(|i| (p * 1000 + i) as f32).collect())
                .collect()
        };
        let run = |engine: &dyn KernelEngine| -> Vec<Vec<f32>> {
            let mut data = make();
            let parts: Vec<&mut [f32]> = data.iter_mut().map(|v| v.as_mut_slice()).collect();
            engine.for_each_batch_chunk(parts, &|p, offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = v.mul_add(0.5, (p + offset + i) as f32);
                }
            });
            data
        };
        let scalar = run(&ScalarEngine);
        for threads in [1usize, 2, 5, 16] {
            assert_eq!(
                run(&ParallelEngine::with_threads(threads)),
                scalar,
                "threads {threads}"
            );
        }
        assert_eq!(run(&ParallelEngine::auto()), scalar);
    }

    #[test]
    fn workspace_reuses_buffers() {
        let mut ws = Workspace::new();
        let row = SparseVec::from_dense(&[1.0, 0.0, 2.0]);
        let geom = ConvGeometry::new(1, 1, 0);
        let a = ws.src(&row, &[2.0], geom, 3).to_vec();
        assert_eq!(a, vec![2.0, 0.0, 4.0]);
        // A second call must see a freshly zeroed buffer, not stale data.
        let b = ws.src(&row, &[1.0], geom, 3).to_vec();
        assert_eq!(b, vec![1.0, 0.0, 2.0]);
        // Shrinking requests reuse the same storage.
        let c = ws.src(&row, &[1.0], geom, 2).to_vec();
        assert_eq!(c, vec![1.0, 0.0]);
    }

    #[test]
    fn workspace_osrc_matches_allocating_wrapper() {
        let mut ws = Workspace::new();
        let geom = ConvGeometry::new(3, 1, 1);
        let input = SparseVec::from_dense(&[0.0, 1.0, 0.0, 2.0, 3.0, 0.0]);
        let grad = SparseVec::from_dense(&[1.0, 0.0, -1.0, 0.0, 2.0, 0.0]);
        let got = ws.osrc(&input, &grad, geom).to_vec();
        assert_eq!(got, crate::osrc::osrc_conv(&input, &grad, geom));
    }

    #[test]
    fn workspace_msrc_honours_mask() {
        let mut ws = Workspace::new();
        let geom = ConvGeometry::new(1, 1, 0);
        let grad = SparseVec::from_dense(&[1.0, 1.0, 1.0]);
        let mask = RowMask::from_offsets(3, &[1]);
        assert_eq!(ws.msrc(&grad, &[1.0], geom, &mask, 3), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn explicit_thread_counts_are_clamped() {
        let (input, weights, bias, _, geom) = fixtures(5);
        for threads in [1usize, 2, 7, 64] {
            let engine = ParallelEngine::with_threads(threads);
            let got = engine.forward(&input, &weights, Some(&bias), geom);
            let want = ScalarEngine.forward(&input, &weights, Some(&bias), geom);
            assert_eq!(got.as_slice(), want.as_slice(), "threads {threads}");
        }
    }
}
