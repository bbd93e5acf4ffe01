//! The stochastic pruning rule (§III-A, Fig. 3).
//!
//! A gradient with `|g| < τ` cannot simply be zeroed in bulk — that shifts
//! the gradient distribution and hurts convergence. Instead it is snapped to
//! `sign(g)·τ` with probability `|g|/τ` and to `0` otherwise, which keeps
//! `E[ĝ] = (|g|/τ)·sign(g)·τ = g` — the update is unbiased.
//!
//! Two implementations of the rule live here, differing only in where the
//! random draw comes from:
//!
//! * [`prune_slice_at`] — the production path: each element's draw is read
//!   from a counter-based stream ([`rand::stream::StreamKey`]) at that
//!   element's position, so results are independent of visitation order
//!   and thread count (see [`crate::prune::stream`]).
//! * [`prune_slice`] — the element-order reference mirroring the hardware
//!   PPU, whose LFSR lanes hand one draw per *non-zero sub-threshold*
//!   value in stream order. Order-dependent by design; used by the
//!   simulator cross-checks and statistical property tests.

use rand::stream::StreamKey;
use rand::Rng;

/// Outcome counts of one pruning pass, for instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneOutcome {
    /// Values left untouched (`|g| ≥ τ`).
    pub kept: usize,
    /// Values snapped to `±τ`.
    pub snapped: usize,
    /// Values set to zero.
    pub zeroed: usize,
}

impl PruneOutcome {
    /// Total number of values inspected.
    pub fn total(&self) -> usize {
        self.kept + self.snapped + self.zeroed
    }

    /// Density of the pruned output (non-zero fraction), counting inputs
    /// that were already zero as zeros. Returns 1.0 for an empty pass.
    pub fn density(&self, already_zero: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 1.0;
        }
        (self.kept + self.snapped - already_zero.min(self.kept)) as f64 / total as f64
    }
}

/// Applies the stochastic pruning rule to every element of `grads` with
/// threshold `tau`, in place. Returns the outcome counts.
///
/// `tau <= 0` disables pruning (everything is kept).
///
/// Exact zeros are counted as `zeroed` (they stay zero and never consume a
/// random draw, matching the hardware, which only sees non-zero gradients
/// in the compressed stream).
///
/// ```
/// use sparsetrain_core::prune::prune_slice;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut g = vec![0.5, -0.001, 0.0008, 2.0];
/// let out = prune_slice(&mut g, 0.01, &mut StdRng::seed_from_u64(0));
/// assert_eq!(out.kept, 2);               // 0.5 and 2.0 pass through
/// assert_eq!(out.snapped + out.zeroed, 2);
/// for &v in &g {
///     assert!(v == 0.0 || v.abs() >= 0.01 - 1e-9 || v == 0.5 || v == 2.0);
/// }
/// ```
pub fn prune_slice<R: Rng + ?Sized>(grads: &mut [f32], tau: f64, rng: &mut R) -> PruneOutcome {
    let mut outcome = PruneOutcome::default();
    if tau <= 0.0 {
        outcome.kept = grads.iter().filter(|&&g| g != 0.0).count();
        outcome.zeroed = grads.len() - outcome.kept;
        return outcome;
    }
    let tau_f = tau as f32;
    for g in grads.iter_mut() {
        let a = g.abs();
        if *g == 0.0 {
            outcome.zeroed += 1;
        } else if (a as f64) < tau {
            // r ~ U[0,1): keep ±τ iff |g| > τ·r  ⇔  with probability |g|/τ.
            let r: f64 = rng.gen();
            if (a as f64) > tau * r {
                *g = if *g > 0.0 { tau_f } else { -tau_f };
                outcome.snapped += 1;
            } else {
                *g = 0.0;
                outcome.zeroed += 1;
            }
        } else {
            outcome.kept += 1;
        }
    }
    outcome
}

/// Applies the stochastic pruning rule to every element of `grads` with
/// threshold `tau`, in place, drawing each element's randomness from the
/// counter-based stream `key` at position `offset + index`. Returns the
/// outcome counts.
///
/// Because the draw for an element is a pure function of `(key, position)`,
/// the result is independent of visitation order: pruning a slice whole,
/// in arbitrary sub-slices (with matching offsets), or banded across
/// threads produces bitwise-identical gradients. `tau <= 0` disables
/// pruning, and exact zeros stay zero, exactly as in [`prune_slice`].
///
/// Only a non-zero element below τ — one that needs a snap decision —
/// reads a draw: [`StreamKey::uniform_at`] at its own position, rounded to
/// `f32`. Elements that are kept or already zero cost no Philox block, so
/// a pass behind ReLU and max-pool masks draws only for its small
/// sub-threshold survivors.
///
/// ```
/// use sparsetrain_core::prune::prune_slice_at;
/// use rand::stream::StreamKey;
///
/// let key = StreamKey::new(0);
/// let mut whole = vec![0.5, -0.001, 0.0008, 2.0];
/// let out = prune_slice_at(&mut whole, 0.01, key, 0);
/// assert_eq!(out.kept, 2); // 0.5 and 2.0 pass through
///
/// // Any partition with matching offsets reproduces the whole-slice prune.
/// let mut parts = vec![0.5, -0.001, 0.0008, 2.0];
/// let (head, tail) = parts.split_at_mut(2);
/// prune_slice_at(head, 0.01, key, 0);
/// prune_slice_at(tail, 0.01, key, 2);
/// assert_eq!(parts, whole);
/// ```
pub fn prune_slice_at(grads: &mut [f32], tau: f64, key: StreamKey, offset: u64) -> PruneOutcome {
    let mut outcome = PruneOutcome::default();
    if tau <= 0.0 {
        outcome.kept = grads.iter().filter(|&&g| g != 0.0).count();
        outcome.zeroed = grads.len() - outcome.kept;
        return outcome;
    }
    let tau_f = tau as f32;
    for (i, g) in grads.iter_mut().enumerate() {
        let a = g.abs();
        if *g == 0.0 {
            outcome.zeroed += 1;
        } else if (a as f64) < tau {
            // r ~ U[0,1) at this element's stream position: keep ±τ iff
            // |g| > τ·r ⇔ with probability |g|/τ.
            let r = key.uniform_at(offset.wrapping_add(i as u64)) as f32 as f64;
            if (a as f64) > tau * r {
                *g = if *g > 0.0 { tau_f } else { -tau_f };
                outcome.snapped += 1;
            } else {
                *g = 0.0;
                outcome.zeroed += 1;
            }
        } else {
            outcome.kept += 1;
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_tau_keeps_everything() {
        let mut g = vec![0.1, -0.2, 0.0];
        let out = prune_slice(&mut g, 0.0, &mut StdRng::seed_from_u64(0));
        assert_eq!(g, vec![0.1, -0.2, 0.0]);
        assert_eq!(out.kept, 2);
        assert_eq!(out.zeroed, 1);
    }

    #[test]
    fn large_values_pass_through() {
        let mut g = vec![1.0, -1.0];
        let out = prune_slice(&mut g, 0.5, &mut StdRng::seed_from_u64(0));
        assert_eq!(g, vec![1.0, -1.0]);
        assert_eq!(out.kept, 2);
    }

    #[test]
    fn small_values_become_zero_or_tau() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut g: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 1e-5).collect();
        prune_slice(&mut g, 0.01, &mut rng);
        for &v in &g {
            assert!(
                v == 0.0 || (v.abs() - 0.01).abs() < 1e-9,
                "value {v} is neither 0 nor ±τ"
            );
        }
    }

    #[test]
    fn signs_are_preserved_when_snapped() {
        let mut rng = StdRng::seed_from_u64(1);
        // Values just below τ snap with high probability; check sign.
        let mut g = vec![0.0099f32; 50];
        g.extend(vec![-0.0099f32; 50]);
        prune_slice(&mut g, 0.01, &mut rng);
        for (i, &v) in g.iter().enumerate() {
            if v != 0.0 {
                if i < 50 {
                    assert!(v > 0.0);
                } else {
                    assert!(v < 0.0);
                }
            }
        }
    }

    #[test]
    fn expectation_is_preserved() {
        // The core unbiasedness property: E[ĝ] = g.
        let mut rng = StdRng::seed_from_u64(7);
        let g0 = 0.003f32;
        let tau = 0.01f64;
        let n = 200_000;
        let mut sum = 0.0f64;
        for _ in 0..n {
            let mut g = [g0];
            prune_slice(&mut g, tau, &mut rng);
            sum += g[0] as f64;
        }
        let mean = sum / n as f64;
        assert!((mean - g0 as f64).abs() < 2e-4, "E[pruned] = {mean}, want {g0}");
    }

    #[test]
    fn snap_probability_matches_ratio() {
        let mut rng = StdRng::seed_from_u64(11);
        let tau = 0.01f64;
        let g0 = 0.007f32; // expect snapped with prob 0.7
        let n = 100_000;
        let mut g: Vec<f32> = vec![g0; n];
        let out = prune_slice(&mut g, tau, &mut rng);
        let frac = out.snapped as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.01, "snap fraction {frac}, want 0.7");
    }

    #[test]
    fn stream_prune_matches_rule_semantics() {
        let key = StreamKey::new(42);
        let mut g: Vec<f32> = (0..1000).map(|i| (i as f32 - 500.0) * 1e-5).collect();
        let out = prune_slice_at(&mut g, 0.01, key, 0);
        assert_eq!(out.total(), 1000);
        for &v in &g {
            assert!(
                v == 0.0 || (v.abs() - 0.01).abs() < 1e-9,
                "value {v} is neither 0 nor ±τ"
            );
        }
    }

    #[test]
    fn stream_prune_is_order_independent() {
        let key = StreamKey::new(7).derive(3);
        let base: Vec<f32> = (0..512).map(|i| ((i * 37 % 101) as f32 - 50.0) * 2e-4).collect();
        let mut whole = base.clone();
        prune_slice_at(&mut whole, 0.008, key, 0);
        for split in [1usize, 100, 256, 511] {
            let mut parts = base.clone();
            let (head, tail) = parts.split_at_mut(split);
            let a = prune_slice_at(head, 0.008, key, 0);
            let b = prune_slice_at(tail, 0.008, key, split as u64);
            assert_eq!(parts, whole, "split at {split} diverged");
            assert_eq!(a.total() + b.total(), 512);
        }
    }

    /// The draw-per-element rule, spelled out: the reference the on-demand
    /// draws must reproduce bit for bit.
    fn prune_reference(grads: &mut [f32], tau: f64, key: StreamKey, offset: u64) {
        for (i, g) in grads.iter_mut().enumerate() {
            let a = g.abs() as f64;
            if *g != 0.0 && a < tau {
                let r = key.uniform_at(offset + i as u64) as f32 as f64;
                *g = if a > tau * r {
                    (tau as f32).copysign(*g)
                } else {
                    0.0
                };
            }
        }
    }

    #[test]
    fn stream_prune_draws_match_per_element_reference() {
        let key = StreamKey::new(5).derive(2);
        let tau = 0.01;
        // One sub-τ element per 64-element run, the rest kept or zero.
        let sparse: Vec<f32> = (0..640)
            .map(|i| match i % 64 {
                17 => 0.002 + (i / 64) as f32 * 7e-4,
                0..=9 => 0.0,
                _ => 0.5 - (i % 3) as f32,
            })
            .collect();
        // Every element sub-τ, both signs.
        let dense: Vec<f32> = (0..640)
            .map(|i| ((i * 29 % 97) as f32 - 48.0) * 2e-4 + 1e-5)
            .collect();
        for (label, base) in [("one per run", sparse), ("all sub-tau", dense)] {
            for offset in [0u64, 3, 1000] {
                let mut got = base.clone();
                let mut want = base.clone();
                prune_slice_at(&mut got, tau, key, offset);
                prune_reference(&mut want, tau, key, offset);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{label} at offset {offset}");
            }
        }
    }

    #[test]
    fn stream_prune_zero_tau_and_zeros() {
        let key = StreamKey::new(0);
        let mut g = vec![0.1, -0.2, 0.0];
        let out = prune_slice_at(&mut g, 0.0, key, 0);
        assert_eq!(g, vec![0.1, -0.2, 0.0]);
        assert_eq!((out.kept, out.zeroed), (2, 1));
        // Exact zeros never flip, whatever their stream position says.
        let mut z = vec![0.0f32; 64];
        let out = prune_slice_at(&mut z, 0.5, key, 0);
        assert_eq!(out.zeroed, 64);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn stream_snap_probability_matches_ratio() {
        // P[snap] = |g|/τ, element-wise over distinct stream positions.
        let key = StreamKey::new(11).derive(1);
        let tau = 0.01f64;
        let g0 = 0.007f32;
        let n = 100_000;
        let mut g = vec![g0; n];
        let out = prune_slice_at(&mut g, tau, key, 0);
        let frac = out.snapped as f64 / n as f64;
        assert!((frac - 0.7).abs() < 0.01, "snap fraction {frac}, want 0.7");
    }

    #[test]
    fn outcome_total_and_density() {
        let out = PruneOutcome {
            kept: 5,
            snapped: 3,
            zeroed: 2,
        };
        assert_eq!(out.total(), 10);
        assert_eq!(out.density(0), 0.8);
    }

    #[test]
    fn empty_slice_is_noop() {
        let mut g: Vec<f32> = Vec::new();
        let out = prune_slice(&mut g, 0.1, &mut StdRng::seed_from_u64(0));
        assert_eq!(out.total(), 0);
        assert_eq!(out.density(0), 1.0);
    }
}
