//! Property tests pinning the engine contracts:
//!
//! * the parallel engine is bitwise-identical to the scalar reference on
//!   the per-sample paths, and both match the dense reference in
//!   `sparsetrain-tensor`;
//! * the registry enumeration below automatically covers every registered
//!   backend — including `simd` (runtime-dispatched AVX2/portable lanes),
//!   `im2row` (implicit-GEMM dense lowering) and their `parallel:*` banded
//!   compositions, which must match the scalar reference bitwise on every
//!   leg;
//! * one engine call prepares its [`BandContext`] (densified operands,
//!   the im2row staged input) exactly once regardless of band count, and every band
//!   borrows the shared state;
//! * for **every registered engine** (or just the `SPARSETRAIN_ENGINE`
//!   override when set, as in the CI engine matrix), the batched entry
//!   points (`forward_batch_into` / `input_grad_batch_into` /
//!   `weight_grad_batch_into`) are bitwise-identical to running that
//!   engine sample by sample — and for the float engines, to the scalar
//!   reference itself;
//! * the Q8.8 [`FixedPointEngine`] stays within its analytic quantization
//!   error bounds against the scalar reference (golden tests).
//!
//! Parity is asserted with exact `==` on the raw f32 slices — banding only
//! ever splits work across disjoint output regions while keeping the
//! scalar per-row accumulation order, so any difference at all is a bug.

use proptest::prelude::*;
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_sparse::{
    registry, BandContext, FixedPointEngine, KernelEngine, ParallelEngine, ScalarEngine, SimdEngine,
    Workspace,
};
use sparsetrain_tensor::conv::{self, ConvGeometry};
use sparsetrain_tensor::{Tensor3, Tensor4};

const H: usize = 6;
const W: usize = 7;

/// `len` raw map values, 55 % of them zero.
fn arb_values(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(
        prop_oneof![
            55u32 => Just(0.0f32),
            45u32 => (-2.0f32..2.0).prop_filter("non-zero", |v| *v != 0.0),
        ],
        len,
    )
}

fn arb_feature_map(channels: usize) -> impl Strategy<Value = SparseFeatureMap> {
    arb_values(channels * H * W)
        .prop_map(move |data| SparseFeatureMap::from_tensor(&Tensor3::from_vec(channels, H, W, data)))
}

/// Raw values for up to `max_len` maps of `channels × (H + 2) × (W + 2)` —
/// room for the largest output [`arb_geom`] can draw (K = 1, pad 1). A test
/// cuts each sample to its drawn geometry with [`map_of`].
fn arb_raw_batch(channels: usize, max_len: usize) -> impl Strategy<Value = Vec<Vec<f32>>> {
    proptest::collection::vec(arb_values(channels * (H + 2) * (W + 2)), 1..=max_len)
}

/// A `channels × h × w` map from the leading values of `raw`.
fn map_of(channels: usize, h: usize, w: usize, raw: &[f32]) -> SparseFeatureMap {
    SparseFeatureMap::from_tensor(&Tensor3::from_vec(
        channels,
        h,
        w,
        raw[..channels * h * w].to_vec(),
    ))
}

/// `f × c × k × k` weights from the leading values of `raw` (drawn for
/// k = 3, the largest [`arb_geom`] kernel).
fn weights_of(f: usize, c: usize, k: usize, raw: &[f32]) -> Tensor4 {
    Tensor4::from_vec(f, c, k, k, raw[..f * c * k * k].to_vec())
}

/// Pre-seeds an accumulator: 0 leaves it zero, 1 writes non-zero values
/// (and some `+0.0`), 2 mixes literal `-0.0` with non-zero values.
fn preseed(kind: u8, acc: &mut [f32]) {
    for (i, v) in acc.iter_mut().enumerate() {
        *v = match kind {
            0 => 0.0,
            1 => 0.25 * (i % 5) as f32 - 0.5,
            _ if i % 3 == 0 => -0.0,
            _ => 0.375,
        };
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn arb_batch(channels: usize, max_len: usize) -> impl Strategy<Value = Vec<SparseFeatureMap>> {
    proptest::collection::vec(arb_feature_map(channels), 1..=max_len)
}

fn arb_weights(f: usize, c: usize, k: usize) -> impl Strategy<Value = Tensor4> {
    proptest::collection::vec(-1.5f32..1.5, f * c * k * k)
        .prop_map(move |data| Tensor4::from_vec(f, c, k, k, data))
}

fn arb_geom() -> impl Strategy<Value = ConvGeometry> {
    (1usize..=3, 1usize..=2, 0usize..=1).prop_map(|(k, s, p)| ConvGeometry::new(k, s, p))
}

/// The registry engines under test: restricted to the `SPARSETRAIN_ENGINE`
/// override when set (the CI matrix leg), the whole registry otherwise.
fn engines_under_test() -> Vec<registry::EngineHandle> {
    match registry::env_override().expect("SPARSETRAIN_ENGINE must name a registered engine") {
        Some(handle) => vec![handle],
        None => registry::registry(),
    }
}

fn assert_close(a: &[f32], b: &[f32], tol: f32) -> Result<(), proptest::test_runner::TestCaseError> {
    prop_assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert!(
            (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())),
            "mismatch at {}: {} vs {}",
            i,
            x,
            y
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Forward: parallel == scalar bitwise, for every band count.
    #[test]
    fn forward_parity(
        input in arb_feature_map(3),
        weights in arb_weights(4, 3, 3),
        geom in arb_geom().prop_filter("kernel 3", |g| g.kernel == 3),
        threads in 1usize..=9,
    ) {
        let scalar = ScalarEngine.forward(&input, &weights, None, geom);
        let parallel = ParallelEngine::with_threads(threads).forward(&input, &weights, None, geom);
        prop_assert_eq!(scalar.as_slice(), parallel.as_slice());
    }

    /// GTA: parallel == scalar bitwise under arbitrary masks.
    #[test]
    fn input_grad_parity(
        dout in arb_feature_map(4),
        mask_src in arb_feature_map(3),
        weights in arb_weights(4, 3, 3),
        threads in 1usize..=9,
    ) {
        let geom = ConvGeometry::new(3, 1, 1);
        let masks = mask_src.masks();
        let scalar = ScalarEngine.input_grad(&dout, &weights, geom, H, W, &masks);
        let parallel = ParallelEngine::with_threads(threads)
            .input_grad(&dout, &weights, geom, H, W, &masks);
        prop_assert_eq!(scalar.as_slice(), parallel.as_slice());
    }

    /// GTW: parallel == scalar bitwise.
    #[test]
    fn weight_grad_parity(
        input in arb_feature_map(2),
        dout in arb_feature_map(3),
        threads in 1usize..=9,
    ) {
        let geom = ConvGeometry::new(3, 1, 1);
        let scalar = ScalarEngine.weight_grad(&input, &dout, geom);
        let parallel = ParallelEngine::with_threads(threads).weight_grad(&input, &dout, geom);
        prop_assert_eq!(scalar.as_slice(), parallel.as_slice());
    }

    /// Batched forward: for every registered engine, one batch-level call
    /// is bitwise-identical to that engine's per-sample execution — and
    /// therefore (fixed-point excepted) to the per-sample scalar reference.
    #[test]
    fn forward_batch_parity_all_engines(
        inputs in arb_batch(3, 5),
        weights in arb_weights(4, 3, 3),
        geom in arb_geom().prop_filter("kernel 3", |g| g.kernel == 3),
    ) {
        for handle in engines_under_test() {
            let engine = handle.engine();
            let batched = engine.forward_batch(&inputs, &weights, None, geom);
            prop_assert_eq!(batched.len(), inputs.len());
            for (input, got) in inputs.iter().zip(&batched) {
                let per_sample = engine.forward(input, &weights, None, geom);
                prop_assert_eq!(got.as_slice(), per_sample.as_slice(), "engine {}", handle.name());
                if handle.name() != "fixed" {
                    let reference = ScalarEngine.forward(input, &weights, None, geom);
                    prop_assert_eq!(got.as_slice(), reference.as_slice(), "engine {}", handle.name());
                }
            }
        }
    }

    /// Batched GTA: bitwise-identical to per-sample execution on every
    /// registered engine — and for the float engines to the scalar
    /// reference — at every kernel size, stride and pad, under arbitrary
    /// per-sample masks and zero, non-zero or `-0.0` pre-seeded
    /// accumulators (compared bit for bit, so a flipped zero sign fails).
    #[test]
    fn input_grad_batch_parity_all_engines(
        geom in arb_geom(),
        raw_douts in arb_raw_batch(4, 4),
        mask_srcs in arb_batch(3, 4),
        raw_weights in proptest::collection::vec(-1.5f32..1.5, 4 * 3 * 9),
        seed in 0u8..3,
    ) {
        let (oh, ow) = (geom.output_extent(H), geom.output_extent(W));
        let n = raw_douts.len().min(mask_srcs.len());
        let douts: Vec<_> = raw_douts[..n].iter().map(|raw| map_of(4, oh, ow, raw)).collect();
        let masks: Vec<_> = mask_srcs[..n].iter().map(SparseFeatureMap::masks).collect();
        let weights = weights_of(4, 3, geom.kernel, &raw_weights);
        let mut seeded = Tensor3::zeros(3, H, W);
        preseed(seed, seeded.as_mut_slice());
        for handle in engines_under_test() {
            let engine = handle.engine();
            let mut batched = vec![seeded.clone(); n];
            engine.input_grad_batch_into(&douts, &weights, geom, &masks, &mut batched);
            for ((dout, mask), got) in douts.iter().zip(&masks).zip(&batched) {
                let mut per_sample = seeded.clone();
                engine.input_grad_into(dout, &weights, geom, mask, &mut per_sample);
                prop_assert_eq!(bits(got.as_slice()), bits(per_sample.as_slice()), "engine {}", handle.name());
                if !handle.name().starts_with("fixed") {
                    let mut reference = seeded.clone();
                    ScalarEngine.input_grad_into(dout, &weights, geom, mask, &mut reference);
                    prop_assert_eq!(bits(got.as_slice()), bits(reference.as_slice()), "engine {}", handle.name());
                }
            }
        }
    }

    /// Batched GTW: the shared batch accumulator is bitwise-identical to
    /// accumulating sample by sample on every registered engine — and for
    /// the float engines to the scalar reference — at every kernel size,
    /// stride and pad, from zero, non-zero or `-0.0` pre-seeded
    /// accumulators.
    #[test]
    fn weight_grad_batch_parity_all_engines(
        geom in arb_geom(),
        inputs in arb_batch(2, 4),
        raw_douts in arb_raw_batch(3, 4),
        seed in 0u8..3,
    ) {
        let (oh, ow) = (geom.output_extent(H), geom.output_extent(W));
        let n = inputs.len().min(raw_douts.len());
        let inputs = &inputs[..n];
        let douts: Vec<_> = raw_douts[..n].iter().map(|raw| map_of(3, oh, ow, raw)).collect();
        let mut seeded = Tensor4::zeros(3, 2, geom.kernel, geom.kernel);
        preseed(seed, seeded.as_mut_slice());
        let mut reference = seeded.clone();
        for (input, dout) in inputs.iter().zip(&douts) {
            ScalarEngine.weight_grad_into(input, dout, geom, &mut reference);
        }
        for handle in engines_under_test() {
            let engine = handle.engine();
            let mut batched = seeded.clone();
            engine.weight_grad_batch_into(inputs, &douts, geom, &mut batched);
            let mut per_sample = seeded.clone();
            for (input, dout) in inputs.iter().zip(&douts) {
                engine.weight_grad_into(input, dout, geom, &mut per_sample);
            }
            prop_assert_eq!(bits(batched.as_slice()), bits(per_sample.as_slice()), "engine {}", handle.name());
            if !handle.name().starts_with("fixed") {
                prop_assert_eq!(bits(batched.as_slice()), bits(reference.as_slice()), "engine {}", handle.name());
            }
        }
    }

    /// Both float engines match the dense reference forward within
    /// accumulation tolerance.
    #[test]
    fn forward_matches_dense_reference(
        input in arb_feature_map(3),
        weights in arb_weights(4, 3, 3),
        geom in arb_geom().prop_filter("kernel 3", |g| g.kernel == 3),
    ) {
        let dense_in = input.to_tensor();
        let want = conv::forward(&dense_in, &weights, None, geom);
        for name in ["scalar", "parallel"] {
            let engine = registry::lookup(name).unwrap().engine();
            let got = engine.forward(&input, &weights, None, geom);
            assert_close(got.as_slice(), want.as_slice(), 1e-4)?;
        }
    }

    /// Both float engines match the dense reference weight gradient.
    #[test]
    fn weight_grad_matches_dense_reference(
        input in arb_feature_map(2),
        dout in arb_feature_map(3),
    ) {
        let geom = ConvGeometry::new(3, 1, 1);
        let want = conv::weight_grad(&input.to_tensor(), &dout.to_tensor(), geom);
        for name in ["scalar", "parallel"] {
            let engine = registry::lookup(name).unwrap().engine();
            let got = engine.weight_grad(&input, &dout, geom);
            assert_close(got.as_slice(), want.as_slice(), 1e-4)?;
        }
    }

    /// Golden bound: the Q8.8 engine's forward error against the float
    /// reference never exceeds the analytic per-term rounding budget.
    ///
    /// Every product of a rounded activation (error ≤ ε/2, magnitude < 2)
    /// and a rounded tap (error ≤ ε/2, magnitude < 1.5) is off by at most
    /// `2·ε/2 + 1.5·ε/2 + ε²/4 < 1.76ε`; an output accumulates at most
    /// `C × K × K` such terms and one final store rounding (ε/2).
    #[test]
    fn fixed_point_error_bounds(
        input in arb_feature_map(3),
        weights in arb_weights(4, 3, 3),
        geom in arb_geom().prop_filter("kernel 3", |g| g.kernel == 3),
    ) {
        let fixed = registry::lookup("fixed").unwrap().engine();
        let got = fixed.forward(&input, &weights, None, geom);
        let want = ScalarEngine.forward(&input, &weights, None, geom);
        let eps = FixedPointEngine::q8_8().format().epsilon();
        let terms = (3 * geom.kernel * geom.kernel) as f32;
        let bound = terms * 1.76 * eps + eps / 2.0;
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            prop_assert!(
                (g - w).abs() <= bound,
                "output {} error {} exceeds bound {}",
                i,
                (g - w).abs(),
                bound
            );
        }
    }

    /// Golden bound: the Q8.8 GTW error per tap is bounded by the number
    /// of accumulated products times the per-term budget (operands < 2.0
    /// on both sides ⇒ per-term error < `2·ε/2 + 2·ε/2 + ε²/4 < 2.1ε`),
    /// plus the final accumulator store rounding.
    #[test]
    fn fixed_point_weight_grad_error_bounds(
        input in arb_feature_map(2),
        dout in arb_feature_map(3),
    ) {
        let geom = ConvGeometry::new(3, 1, 1);
        let fixed = registry::lookup("fixed").unwrap().engine();
        let got = fixed.weight_grad(&input, &dout, geom);
        let want = ScalarEngine.weight_grad(&input, &dout, geom);
        let eps = FixedPointEngine::q8_8().format().epsilon();
        // Each tap accumulates at most Ho × Ow products.
        let terms = (H * W) as f32;
        let bound = terms * 2.1 * eps + eps / 2.0;
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            prop_assert!(
                (g - w).abs() <= bound,
                "tap {} error {} exceeds bound {}",
                i,
                (g - w).abs(),
                bound
            );
        }
    }

    /// Workspace row-at-a-time SRC agrees with the allocating wrapper for
    /// arbitrary rows — the zero-allocation path computes the same values.
    #[test]
    fn workspace_src_matches_wrapper(
        row in proptest::collection::vec(
            prop_oneof![1u32 => Just(0.0f32), 1u32 => -3.0f32..3.0], 24),
        geom in arb_geom(),
    ) {
        let sparse = sparsetrain_sparse::SparseVec::from_dense(&row);
        let kernel: Vec<f32> = (0..geom.kernel).map(|i| 0.75 - i as f32 * 0.5).collect();
        let out_len = geom.output_extent(24);
        let mut ws = Workspace::new();
        let fast = ws.src(&sparse, &kernel, geom, out_len).to_vec();
        let slow = sparsetrain_sparse::src::src_conv(&sparse, &kernel, geom, out_len);
        prop_assert_eq!(fast, slow);
    }
}

// ---------------------------------------------------------------------------
// Pruning leg of the engine matrix
// ---------------------------------------------------------------------------

/// One pruned training epoch's observables: final weights, per-site
/// pre-prune gradient taps, and the next step's stream coordinates.
struct PrunedEpoch {
    weights: Vec<f32>,
    tapped: Vec<(String, Vec<f32>)>,
    streams: sparsetrain_core::prune::StepStreams,
}

/// Trains one epoch of a pruned mini CNN on `handle`'s engine.
fn pruned_epoch(handle: registry::EngineHandle) -> PrunedEpoch {
    use sparsetrain_nn::data::SyntheticSpec;
    use sparsetrain_nn::train::{TrainConfig, Trainer};
    use sparsetrain_nn::{models, Layer};

    let (train, _) = SyntheticSpec::tiny(3).generate();
    let net = models::mini_cnn(3, 4, Some(sparsetrain_core::prune::PruneConfig::new(0.9, 2)));
    let mut trainer = Trainer::new(net, TrainConfig::quick().with_engine_handle(handle));
    trainer.train_epoch(&train);
    let tapped = trainer.tap_gradients(&train);
    let streams = trainer.step_streams();
    let mut weights = Vec::new();
    trainer
        .network_mut()
        .visit_params(&mut |w, _| weights.extend_from_slice(w));
    PrunedEpoch {
        weights,
        tapped,
        streams,
    }
}

/// For every registered engine: a pruned training epoch is deterministic
/// (two independent runs agree bitwise), and the engine's banded pruning
/// path reproduces the scalar/sequential golden bitwise on that run's
/// *actual* activation gradients. The pruning stage is engine-invariant
/// even for backends whose convolution datapath is not (fixed-point).
#[test]
fn pruning_parity_across_engines() {
    use sparsetrain_core::prune::{LayerPruner, PruneConfig};

    for handle in engines_under_test() {
        let a = pruned_epoch(handle);
        let b = pruned_epoch(handle);
        assert_eq!(
            a.weights,
            b.weights,
            "engine {}: pruned training not reproducible",
            handle.name()
        );
        assert_eq!(
            a.tapped,
            b.tapped,
            "engine {}: gradients not reproducible",
            handle.name()
        );

        // Banded pruning on this engine == sequential scalar golden, on
        // the real gradient tensors this engine produced, under the exact
        // streams the trainer's PruneHook would derive for this step.
        for (site, grads) in &a.tapped {
            let stream = a.streams.site(site);
            let mut warm = LayerPruner::new(PruneConfig::new(0.9, 1));
            warm.prune_batch(&mut grads.clone(), &stream); // warm the FIFO
            let mut sequential = warm.clone();
            let mut banded = warm;
            let mut seq_data = grads.clone();
            sequential.prune_batch_parts(&mut [&mut seq_data], &stream);
            let mut band_data = grads.clone();
            banded.prune_batch_parts_on(&mut [&mut band_data], &stream, handle.engine());
            assert_eq!(
                seq_data,
                band_data,
                "engine {}: banded prune of {site} diverged from sequential golden",
                handle.name()
            );
        }
    }
}

/// The float engines (scalar, parallel, simd, parallel:simd, im2row,
/// parallel:im2row) share one bitwise training trajectory with pruning
/// enabled — banding the convolutions across threads, sweeping them across
/// vector lanes, lowering dense layers through im2row patches, *and*
/// banding the pruning change nothing.
#[test]
fn pruned_training_identical_on_float_engines() {
    if registry::env_override().expect("valid engine").is_some() {
        // The CI engine matrix pins a single engine; the cross-engine
        // comparison runs in the unrestricted leg.
        return;
    }
    let scalar = pruned_epoch(registry::lookup("scalar").unwrap());
    for name in ["parallel", "simd", "parallel:simd", "im2row", "parallel:im2row"] {
        let other = pruned_epoch(registry::lookup(name).unwrap());
        assert_eq!(
            scalar.weights, other.weights,
            "{name}: pruned weights diverged from scalar"
        );
        assert_eq!(
            scalar.tapped, other.tapped,
            "{name}: gradient taps diverged from scalar"
        );
    }
}

/// The simd engine's portable path (what non-AVX2 targets run) matches
/// the dispatched engine bitwise on the conv kernels — so CI on any
/// hardware pins both implementations.
#[test]
fn simd_portable_path_matches_dispatched() {
    use sparsetrain_sparse::SimdEngine;
    let geom = ConvGeometry::new(3, 1, 1);
    let input = SparseFeatureMap::from_tensor(&Tensor3::from_fn(3, H, W, |c, y, x| {
        if (c + 2 * y + 3 * x) % 3 != 0 {
            (y as f32 - x as f32) * 0.21 + c as f32 * 0.4
        } else {
            0.0
        }
    }));
    let dout = SparseFeatureMap::from_tensor(&Tensor3::from_fn(4, H, W, |c, y, x| {
        if (c * y + x) % 4 == 0 {
            0.3 - (c + x) as f32 * 0.05
        } else {
            0.0
        }
    }));
    let weights = Tensor4::from_fn(4, 3, 3, 3, |f, c, u, v| {
        ((f * 7 + c * 5 + u * 3 + v) % 9) as f32 * 0.125 - 0.5
    });
    let masks = input.masks();
    let auto = SimdEngine::auto();
    let portable = SimdEngine::portable();
    assert_eq!(
        auto.forward(&input, &weights, None, geom).as_slice(),
        portable.forward(&input, &weights, None, geom).as_slice()
    );
    assert_eq!(
        auto.input_grad(&dout, &weights, geom, H, W, &masks).as_slice(),
        portable
            .input_grad(&dout, &weights, geom, H, W, &masks)
            .as_slice()
    );
    assert_eq!(
        auto.weight_grad(&input, &dout, geom).as_slice(),
        portable.weight_grad(&input, &dout, geom).as_slice()
    );
}

/// BandContext reuse: one engine call prepares (densifies) its operands
/// **exactly once**, no matter how many bands the call fans out into, and
/// every band receives the shared prepared state. Pinned through the
/// public seam with a counting wrapper around the simd engine, which is
/// exactly how `"parallel:simd"` is composed.
#[test]
fn band_context_prepared_once_per_engine_call() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct CountingEngine {
        prepares: AtomicUsize,
        bands: AtomicUsize,
    }

    impl KernelEngine for CountingEngine {
        fn name(&self) -> &'static str {
            "counting-simd"
        }

        fn prepare_forward(
            &self,
            input: &SparseFeatureMap,
            weights: &Tensor4,
            bias: Option<&[f32]>,
            geom: ConvGeometry,
        ) -> BandContext {
            self.prepares.fetch_add(1, Ordering::SeqCst);
            SimdEngine::auto().prepare_forward(input, weights, bias, geom)
        }

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
            self.bands.fetch_add(1, Ordering::SeqCst);
            // The input below is dense, so the preparation must have
            // densified it — every band borrows that one map instead of
            // re-densifying (the pre-BandContext per-band loss).
            assert!(
                !ctx.dense().is_empty(),
                "band did not receive the prepared densified operand map"
            );
            SimdEngine::auto().forward_band(ctx, input, weights, bias, geom, oh, ow, f_lo, out_band);
        }
    }

    static COUNTING: CountingEngine = CountingEngine {
        prepares: AtomicUsize::new(0),
        bands: AtomicUsize::new(0),
    };

    // Fully dense input: every row is sweep-worthy, so prepare densifies.
    let geom = ConvGeometry::new(3, 1, 1);
    let input = SparseFeatureMap::from_tensor(&Tensor3::from_fn(3, H, W, |c, y, x| {
        0.25 + (c + y + x) as f32 * 0.125
    }));
    let weights = Tensor4::from_fn(8, 3, 3, 3, |f, c, u, v| ((f + c + u + v) % 5) as f32 * 0.25 - 0.5);
    let want = ScalarEngine.forward(&input, &weights, None, geom);

    let mut expected_prepares = 0;
    for threads in [1usize, 2, 4, 7] {
        let engine = ParallelEngine::over("test:counting", &COUNTING).banded(threads);
        let bands_before = COUNTING.bands.load(Ordering::SeqCst);
        let got = engine.forward(&input, &weights, None, geom);
        assert_eq!(got.as_slice(), want.as_slice(), "threads {threads}");
        expected_prepares += 1;
        assert_eq!(
            COUNTING.prepares.load(Ordering::SeqCst),
            expected_prepares,
            "exactly one preparation per engine call at {threads} bands"
        );
        // Near-equal contiguous splitting: requesting `threads` bands over
        // 8 filters yields ceil(8 / ceil(8 / threads)) band calls.
        let per_band = 8usize.div_ceil(threads);
        assert_eq!(
            COUNTING.bands.load(Ordering::SeqCst) - bands_before,
            8usize.div_ceil(per_band),
            "band fan-out at {threads} bands"
        );
    }

    // Batched entry point: one preparation per sample, not per band chunk.
    let inputs = vec![input.clone(), input.clone(), input];
    let engine = ParallelEngine::over("test:counting", &COUNTING).banded(5);
    let outs = engine.forward_batch(&inputs, &weights, None, geom);
    for out in &outs {
        assert_eq!(out.as_slice(), want.as_slice());
    }
    assert_eq!(
        COUNTING.prepares.load(Ordering::SeqCst),
        expected_prepares + inputs.len(),
        "batched call prepares once per sample"
    );
}

/// The im2row legs through the registry handle: a map straddling the
/// density cutoff (mixed micro-kernel/sparse output rows) at stride 1 and
/// stride 2, and the literal -0.0 bias fallback (only the scalar skips
/// preserve its sign bit), all stay bitwise equal to scalar.
#[test]
fn im2row_fallback_legs_match_scalar() {
    let engine = registry::lookup("im2row").expect("registered").engine();
    let weights = Tensor4::from_fn(9, 3, 3, 3, |f, c, u, v| {
        ((f * 7 + c * 5 + u * 3 + v) % 9) as f32 * 0.125 - 0.5
    });

    // Mixed-density map: channel 0 dense, channel 1 at the 1/8 cutoff
    // boundary, channel 2 far below it.
    let input = SparseFeatureMap::from_tensor(&Tensor3::from_fn(3, H, 16, |c, y, x| match c {
        0 => 0.3 + (y + x) as f32 * 0.05,
        1 if (y + x) % 8 == 0 => 1.0 + y as f32 * 0.25,
        2 if (y * 16 + x) % 40 == 0 => -0.75,
        _ => 0.0,
    }));

    for geom in [ConvGeometry::new(3, 1, 1), ConvGeometry::new(3, 2, 1)] {
        let want = ScalarEngine.forward(&input, &weights, None, geom);
        let got = engine.forward(&input, &weights, None, geom);
        assert_eq!(got.as_slice(), want.as_slice(), "stride {}", geom.stride);
    }

    let geom = ConvGeometry::new(3, 1, 1);
    let mut bias = vec![0.5f32; 9];
    bias[4] = -0.0;
    let want = ScalarEngine.forward(&input, &weights, Some(&bias), geom);
    let got = engine.forward(&input, &weights, Some(&bias), geom);
    let bits = |t: &Tensor3| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&want), "-0.0 bias leg");
}
