//! Property-based tests of the sparse kernels' algebraic invariants.

use proptest::prelude::*;
use sparsetrain_sparse::msrc::{fully_masked_loads, msrc_conv};
use sparsetrain_sparse::osrc::{osrc_conv, osrc_pair_count};
use sparsetrain_sparse::rowconv::SparseFeatureMap;
use sparsetrain_sparse::src::{src_accumulate, src_conv};
use sparsetrain_sparse::work::{msrc_work, osrc_work, src_work};
use sparsetrain_sparse::{RowMask, SparseVec};
use sparsetrain_tensor::conv::ConvGeometry;
use sparsetrain_tensor::Tensor3;

fn arb_sparse_row(len: usize) -> impl Strategy<Value = SparseVec> {
    proptest::collection::vec(
        prop_oneof![
            60u32 => Just(0.0f32),
            40u32 => (-4.0f32..4.0).prop_filter("non-zero", |v| *v != 0.0),
        ],
        len,
    )
    .prop_map(|dense| SparseVec::from_dense(&dense))
}

/// A dense map of up to 4 × 5 × 9 elements, zero-sized dimensions
/// included, in one of three fills: mixed (with `-0.0` entries), empty
/// (every element a signed zero) or all dense.
fn arb_feature_map() -> impl Strategy<Value = Tensor3> {
    let pool = proptest::collection::vec(
        prop_oneof![
            40u32 => Just(0.0f32),
            15u32 => Just(-0.0f32),
            45u32 => (-4.0f32..4.0).prop_filter("non-zero", |v| *v != 0.0),
        ],
        180,
    );
    (0usize..=4, 0usize..=5, 0usize..=9, 0u8..3, pool).prop_map(|(c, h, w, fill, pool)| {
        Tensor3::from_fn(c, h, w, |ci, y, x| {
            let v = pool[(ci * h + y) * w + x];
            match fill {
                0 => v,
                1 if v.is_sign_negative() => -0.0,
                1 => 0.0,
                _ if v == 0.0 => 1.5,
                _ => v,
            }
        })
    })
}

fn arb_geom() -> impl Strategy<Value = ConvGeometry> {
    (1usize..=5, 1usize..=2, 0usize..=2).prop_map(|(k, s, p)| ConvGeometry::new(k, s, p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SparseVec dense roundtrip is lossless.
    #[test]
    fn compressed_roundtrip(row in arb_sparse_row(64)) {
        let dense = row.to_dense();
        prop_assert!(row.validate().is_ok());
        prop_assert_eq!(SparseVec::from_dense(&dense), row);
    }

    /// SRC is linear: conv(a + b) == conv(a) + conv(b) element-wise.
    #[test]
    fn src_is_linear(
        a in arb_sparse_row(32),
        b in arb_sparse_row(32),
        geom in arb_geom(),
    ) {
        let kernel: Vec<f32> = (0..geom.kernel).map(|i| 0.5 + i as f32 * 0.25).collect();
        if 32 + 2 * geom.pad < geom.kernel { return Ok(()); }
        let out_len = geom.output_extent(32);
        let ca = src_conv(&a, &kernel, geom, out_len);
        let cb = src_conv(&b, &kernel, geom, out_len);
        let sum_dense: Vec<f32> = a.to_dense().iter().zip(b.to_dense()).map(|(x, y)| x + y).collect();
        let csum = src_conv(&SparseVec::from_dense(&sum_dense), &kernel, geom, out_len);
        for i in 0..out_len {
            prop_assert!(
                (csum[i] - (ca[i] + cb[i])).abs() < 1e-3 * (1.0 + csum[i].abs()),
                "linearity violated at {}", i
            );
        }
    }

    /// src_accumulate into an existing buffer equals conv + add.
    #[test]
    fn src_accumulate_is_additive(
        row in arb_sparse_row(24),
        base in proptest::collection::vec(-1.0f32..1.0, 24),
    ) {
        let geom = ConvGeometry::new(3, 1, 1);
        let kernel = [1.0f32, -0.5, 0.25];
        let fresh = src_conv(&row, &kernel, geom, 24);
        let mut acc = base.clone();
        src_accumulate(&row, &kernel, geom, &mut acc);
        for i in 0..24 {
            prop_assert!((acc[i] - (base[i] + fresh[i])).abs() < 1e-5);
        }
    }

    /// MSRC with a full mask never writes outside the scatter of its
    /// non-zeros, and an empty mask writes nothing.
    #[test]
    fn msrc_mask_extremes(grad in arb_sparse_row(32), geom in arb_geom(), kernel_seed in 0u32..100) {
        let kernel: Vec<f32> = (0..geom.kernel).map(|i| ((kernel_seed + i as u32) % 7) as f32 - 3.0).collect();
        let empty = RowMask::empty(32);
        let out = msrc_conv(&grad, &kernel, geom, &empty, 32);
        prop_assert!(out.iter().all(|&v| v == 0.0), "empty mask must produce zeros");
        prop_assert_eq!(fully_masked_loads(&grad, geom, &empty), grad.nnz());
        // With a full mask, only gradients whose entire scatter window is
        // out of bounds are skipped (stride can push windows past the row).
        let full = RowMask::full(32);
        let out_of_bounds = grad
            .iter()
            .filter(|&(ox, _)| {
                let base = ox as isize * geom.stride as isize - geom.pad as isize;
                base >= 32 || base + geom.kernel as isize <= 0
            })
            .count();
        prop_assert_eq!(fully_masked_loads(&grad, geom, &full), out_of_bounds);
    }

    /// OSRC commutes with the dense definition for random operands.
    #[test]
    fn osrc_matches_dense_definition(
        input in arb_sparse_row(24),
        geom in arb_geom(),
        grad_seed in 0u64..500,
    ) {
        if 24 + 2 * geom.pad < geom.kernel { return Ok(()); }
        let out_len = geom.output_extent(24);
        // Deterministic pseudo-random gradient of the right length.
        let grad_dense: Vec<f32> = (0..out_len)
            .map(|i| {
                let v = ((i as u64 * 2654435761 + grad_seed) >> 7) % 5;
                if v == 0 { 0.0 } else { v as f32 - 2.0 }
            })
            .collect();
        let grad = SparseVec::from_dense(&grad_dense);
        let got = osrc_conv(&input, &grad, geom);
        let in_dense = input.to_dense();
        let mut want = vec![0.0f32; geom.kernel];
        for (ox, &g) in grad_dense.iter().enumerate() {
            for (v, w) in want.iter_mut().enumerate() {
                let ix = ox as isize * geom.stride as isize - geom.pad as isize + v as isize;
                if ix >= 0 && (ix as usize) < in_dense.len() {
                    *w += g * in_dense[ix as usize];
                }
            }
        }
        for v in 0..geom.kernel {
            prop_assert!(
                (got[v] - want[v]).abs() < 1e-3 * (1.0 + want[v].abs()),
                "tap {} mismatch: {} vs {}", v, got[v], want[v]
            );
        }
    }

    /// Work-model invariants: cycles and MACs scale with non-zeros; zero
    /// rows cost nothing; pair counts bound OSRC MACs.
    #[test]
    fn work_model_invariants(
        row in arb_sparse_row(48),
        grad in arb_sparse_row(48),
        mask_row in arb_sparse_row(48),
    ) {
        let geom = ConvGeometry::new(3, 1, 1);
        let sw = src_work(&row, geom);
        prop_assert_eq!(sw.loads, row.nnz() as u64);
        prop_assert_eq!(sw.macs, row.nnz() as u64 * 3);

        let mask = RowMask::from_offsets(48, SparseVec::from_dense(&mask_row.to_dense()).offsets());
        let mw = msrc_work(&grad, geom, &mask);
        prop_assert!(mw.loads <= grad.nnz() as u64);

        let ow = osrc_work(&row, &grad, geom);
        prop_assert_eq!(ow.macs, osrc_pair_count(&row, &grad, geom));
        if ow.macs > 0 {
            prop_assert!(ow.cycles >= ow.macs.div_ceil(3));
        }
    }

    /// Storage accounting: compressed words are twice the non-zero count.
    #[test]
    fn storage_words_track_nnz(row in arb_sparse_row(64)) {
        prop_assert_eq!(row.storage_words(), 2 * row.nnz());
    }

    /// The flat map round-trips its dense tensor, up to the sign of zero.
    #[test]
    fn feature_map_roundtrips_dense(t in arb_feature_map()) {
        let back = SparseFeatureMap::from_tensor(&t).to_tensor();
        prop_assert_eq!(back.shape(), t.shape());
        for (got, want) in back.as_slice().iter().zip(t.as_slice()) {
            // Signed zeros compress to nothing and come back as `+0.0`.
            let want = if *want == 0.0 { 0.0f32 } else { *want };
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    /// Every row view, and every map-wide summary, equals the per-row
    /// `SparseVec` reference built from the same dense rows.
    #[test]
    fn feature_map_matches_per_row_reference(t in arb_feature_map()) {
        let fm = SparseFeatureMap::from_tensor(&t);
        let (c, h, w) = t.shape();
        // Row r = c·h + y of the dense tensor, zero-width rows included.
        let reference: Vec<SparseVec> = (0..c * h)
            .map(|r| SparseVec::from_dense(&t.as_slice()[r * w..(r + 1) * w]))
            .collect();
        for ci in 0..c {
            for y in 0..h {
                let want = &reference[ci * h + y];
                prop_assert_eq!(fm.row(ci, y), want.as_row());
            }
        }
        prop_assert_eq!(fm.rows().len(), c * h);
        let nnz: usize = reference.iter().map(SparseVec::nnz).sum();
        prop_assert_eq!(fm.nnz(), nnz);
        let total = c * h * w;
        let density = if total == 0 { 1.0 } else { nnz as f64 / total as f64 };
        prop_assert_eq!(fm.density(), density);
        prop_assert_eq!(
            fm.storage_words(),
            reference.iter().map(SparseVec::storage_words).sum::<usize>()
        );
        let masks: Vec<RowMask> = reference
            .iter()
            .map(|r| RowMask::from_offsets(r.len(), r.offsets()))
            .collect();
        prop_assert_eq!(fm.masks(), masks);
        for ci in 0..c {
            let values: Vec<f32> = reference[ci * h..(ci + 1) * h]
                .iter()
                .flat_map(|r| r.values().to_vec())
                .collect();
            prop_assert_eq!(fm.channel_values(ci), &values[..]);
        }

        // map_values: halving keeps every entry; truncation to an integer
        // drops the |v| < 1 ones, exactly as the per-row `push` would.
        for f in [|v: f32| v * 0.5, |v: f32| v.trunc()] {
            let mapped = fm.map_values(f);
            prop_assert_eq!((mapped.channels(), mapped.height(), mapped.width()), (c, h, w));
            for ci in 0..c {
                for y in 0..h {
                    let mut want = SparseVec::zeros(w);
                    for (x, v) in reference[ci * h + y].iter() {
                        if f(v) != 0.0 {
                            want.push(x, f(v));
                        }
                    }
                    prop_assert_eq!(mapped.row(ci, y), want.as_row());
                }
            }
        }
    }
}
