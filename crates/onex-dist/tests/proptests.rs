//! Property-based tests for the distance kernels: the invariants here are
//! the load-bearing facts the ONEX theory (paper §3) rests on, checked on
//! randomized inputs rather than hand-picked examples.

use onex_dist::{
    dtw, dtw_early_abandon, dtw_normalized, dtw_with_path, ed, ed_early_abandon_sq, ed_normalized,
    ed_sq, lb_keogh, lb_keogh_cumulative, lb_keogh_sq_abandon, lb_kim_fl, lb_paa_env_sq, lb_paa_sq,
    paa, paa_envelope_into, paa_into, paa_segment_weights, pdtw, DtwBuffer, DtwLanes, Envelope,
    Lane, Window, LANES,
};
use proptest::prelude::*;

/// Bounded, finite sample values: the substrate min-max normalizes into
/// [0, 1]; we test a slightly wider range.
fn value() -> impl Strategy<Value = f64> {
    -2.0..2.0f64
}

fn seq(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(value(), 1..=max_len)
}

fn seq_pair_equal(max_len: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (1..=max_len).prop_flat_map(|n| {
        (
            prop::collection::vec(value(), n),
            prop::collection::vec(value(), n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // ---- Euclidean distance ----

    #[test]
    fn ed_symmetry_and_identity((x, y) in seq_pair_equal(48)) {
        prop_assert!((ed(&x, &y) - ed(&y, &x)).abs() < 1e-9);
        prop_assert_eq!(ed(&x, &x), 0.0);
    }

    #[test]
    fn ed_triangle_inequality(n in 1..32usize, seed in any::<u64>()) {
        // Deterministic triple from the seed to keep proptest shrinking sane.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut gen = |_: usize| (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect::<Vec<f64>>();
        let (a, b, c) = (gen(0), gen(1), gen(2));
        prop_assert!(ed(&a, &c) <= ed(&a, &b) + ed(&b, &c) + 1e-9);
    }

    #[test]
    fn ed_sq_consistent_with_ed((x, y) in seq_pair_equal(48)) {
        prop_assert!((ed_sq(&x, &y).sqrt() - ed(&x, &y)).abs() < 1e-9);
    }

    #[test]
    fn ed_early_abandon_exact_when_under_limit((x, y) in seq_pair_equal(48)) {
        // Summation order differs between the vectorized full kernel and the
        // sequential abandoning one, so compare with a tolerance.
        let full = ed_sq(&x, &y);
        let got = ed_early_abandon_sq(&x, &y, full + 1.0).expect("cutoff above total");
        prop_assert!((got - full).abs() < 1e-9);
        // Abandoning limit: either abandons or returns the exact value.
        match ed_early_abandon_sq(&x, &y, full * 0.5) {
            Some(v) => prop_assert!((v - full).abs() < 1e-9),
            None => prop_assert!(full > 0.0),
        }
    }

    #[test]
    fn ed_normalized_scales(x in seq(48)) {
        let y: Vec<f64> = x.iter().map(|v| v + 0.5).collect();
        let expected = ed(&x, &y) / (x.len() as f64).sqrt();
        prop_assert!((ed_normalized(&x, &y) - expected).abs() < 1e-9);
        // shifting every sample by c gives normalized ED exactly c
        prop_assert!((ed_normalized(&x, &y) - 0.5).abs() < 1e-9);
    }

    // ---- DTW ----

    #[test]
    fn dtw_bounded_by_ed_on_equal_lengths((x, y) in seq_pair_equal(32)) {
        // The diagonal is a warping path, so DTW ≤ ED; and DTW ≥ 0.
        let d = dtw(&x, &y, Window::Unconstrained);
        prop_assert!(d <= ed(&x, &y) + 1e-9);
        prop_assert!(d >= -0.0);
    }

    #[test]
    fn dtw_symmetry(x in seq(24), y in seq(24)) {
        let a = dtw(&x, &y, Window::Unconstrained);
        let b = dtw(&y, &x, Window::Unconstrained);
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn dtw_identity(x in seq(32)) {
        prop_assert_eq!(dtw(&x, &x, Window::Unconstrained), 0.0);
    }

    #[test]
    fn banded_dtw_upper_bounds_unconstrained(x in seq(24), y in seq(24), r in 1..24usize) {
        // Constraining the path space can only increase the minimum.
        let full = dtw(&x, &y, Window::Unconstrained);
        let banded = dtw(&x, &y, Window::Band(r));
        prop_assert!(banded + 1e-9 >= full);
    }

    #[test]
    fn dtw_early_abandon_sound(x in seq(24), y in seq(24), slack in 0.0..2.0f64) {
        let exact = dtw(&x, &y, Window::Unconstrained);
        // Cutoff above the true distance must return it.
        let got = dtw_early_abandon(&x, &y, Window::Unconstrained, exact + slack + 1e-6);
        prop_assert!(got.is_some());
        prop_assert!((got.unwrap() - exact).abs() < 1e-9);
    }

    #[test]
    fn dtw_path_weight_matches_distance((x, y) in seq_pair_equal(20)) {
        let (d, path) = dtw_with_path(&x, &y, Window::Unconstrained);
        let w: f64 = path.iter().map(|&(i, j)| {
            let diff = x[i] - y[j];
            diff * diff
        }).sum::<f64>().sqrt();
        prop_assert!((w - d).abs() < 1e-9);
        // Path length bounds from the paper: max(n,m) ≤ T ≤ n+m−1.
        prop_assert!(path.len() >= x.len().max(y.len()));
        prop_assert!(path.len() < x.len() + y.len());
    }

    #[test]
    fn dtw_normalized_definition(x in seq(24), y in seq(24)) {
        let n = x.len().max(y.len()) as f64;
        let expected = dtw(&x, &y, Window::Unconstrained) / (2.0 * n);
        prop_assert!((dtw_normalized(&x, &y, Window::Unconstrained) - expected).abs() < 1e-12);
    }

    // ---- Lower bounds ----

    #[test]
    fn lb_kim_lower_bounds_dtw(x in seq(24), y in seq(24)) {
        prop_assert!(lb_kim_fl(&x, &y) <= dtw(&x, &y, Window::Unconstrained) + 1e-9);
    }

    #[test]
    fn lb_keogh_lower_bounds_banded_dtw((x, y) in seq_pair_equal(24), r in 1..24usize) {
        let env = Envelope::build(&y, r);
        let lb = lb_keogh(&x, &env);
        let d = dtw(&x, &y, Window::Band(r));
        prop_assert!(lb <= d + 1e-9, "lb {} > dtw {}", lb, d);
    }

    #[test]
    fn cascade_tiers_all_lower_bound_banded_dtw(
        (x, y) in seq_pair_equal(24), r in 1..24usize, seed in any::<u64>(),
    ) {
        // Every tier of the query-processor cascade (LB_Kim → reordered
        // squared LB_Keogh → cumulative suffix bound) must lower-bound the
        // banded DTW it prunes against, for any random pair, band, and
        // index permutation — the soundness obligation of the Explorer's
        // pruning pipeline.
        let d = dtw(&x, &y, Window::Band(r));
        prop_assert!(lb_kim_fl(&x, &y) <= d + 1e-9);
        let env = Envelope::build(&y, r);
        let eq_sq = lb_keogh_sq_abandon(&x, &env, None, f64::INFINITY).unwrap();
        prop_assert!(eq_sq.sqrt() <= d + 1e-9, "LB_Keogh {} > dtw {}", eq_sq.sqrt(), d);
        // A random permutation changes the abandon order, never the total.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..x.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let reordered = lb_keogh_sq_abandon(&x, &env, Some(&order), f64::INFINITY).unwrap();
        prop_assert!((reordered - eq_sq).abs() < 1e-9);
        // The suffix array totals to LB_Keogh² and is a valid per-row bound:
        // suffix-augmented DTW with a cutoff above the true distance never
        // abandons and returns the exact value.
        let cum = lb_keogh_cumulative(&x, &env);
        prop_assert!((cum[0] - eq_sq).abs() < 1e-9);
        let mut buf = DtwBuffer::new();
        let got = buf
            .dist_early_abandon_with_suffix(&x, &y, Window::Band(r), d + 1.0, &cum)
            .expect("cutoff above exact distance never abandons");
        prop_assert!((got - d).abs() < 1e-9);
    }

    #[test]
    fn suffix_abandon_never_misreports(
        (x, y) in seq_pair_equal(24), r in 1..24usize, frac in 0.0..1.5f64,
    ) {
        // For an arbitrary cutoff, the suffix-augmented kernel either
        // abandons (only legal when the true distance exceeds the cutoff)
        // or returns the exact distance.
        let d = dtw(&x, &y, Window::Band(r));
        let env = Envelope::build(&y, r);
        let cum = lb_keogh_cumulative(&x, &env);
        let cutoff = d * frac;
        let mut buf = DtwBuffer::new();
        match buf.dist_early_abandon_with_suffix(&x, &y, Window::Band(r), cutoff, &cum) {
            Some(got) => prop_assert!((got - d).abs() < 1e-9),
            None => prop_assert!(d > cutoff - 1e-9, "abandoned although d {} <= cutoff {}", d, cutoff),
        }
    }

    #[test]
    fn envelope_sandwiches_sequence(y in seq(48), r in 0..16usize) {
        let env = Envelope::build(&y, r);
        for (i, &v) in y.iter().enumerate() {
            prop_assert!(env.lower[i] <= v && v <= env.upper[i]);
        }
    }

    // ---- PAA sketch tier (cascade tier 0) soundness ----

    #[test]
    fn lb_paa_lower_bounds_ed((x, y) in seq_pair_equal(48), m in 1..48usize) {
        // The O(m) sketch distance never exceeds the O(n) ED it stands in
        // for — the soundness obligation of LB_PAA wherever ED is the
        // pruning metric (the construction assigner's prefilter).
        let m = m.min(x.len());
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        paa_into(&x, m, &mut xs);
        paa_into(&y, m, &mut ys);
        let w = paa_segment_weights(x.len(), m);
        let lb = lb_paa_sq(&xs, &ys, &w).sqrt();
        prop_assert!(lb <= ed(&x, &y) + 1e-9, "LB_PAA {} > ED {}", lb, ed(&x, &y));
    }

    #[test]
    fn sketch_tier_chain_is_monotone_to_banded_dtw(
        (x, y) in seq_pair_equal(32), r in 1..32usize, m in 1..32usize,
    ) {
        // The full tier chain the cascade relies on, on random inputs:
        // tier 0 (PAA sketch vs PAA'd envelope) ≤ tier 2/3 (LB_Keogh) ≤
        // banded DTW — so a tier-0 prune can never kill a candidate a
        // later tier (or the DTW itself) would have kept.
        let m = m.min(x.len());
        let env = Envelope::build(&y, r);
        let mut xs = Vec::new();
        paa_into(&x, m, &mut xs);
        let (mut hi, mut lo) = (Vec::new(), Vec::new());
        paa_envelope_into(&env.upper, &env.lower, m, &mut hi, &mut lo);
        let w = paa_segment_weights(x.len(), m);
        let tier0 = lb_paa_env_sq(&xs, &hi, &lo, &w).sqrt();
        let tier2 = lb_keogh(&x, &env);
        let d = dtw(&x, &y, Window::Band(r));
        prop_assert!(tier0 <= tier2 + 1e-9, "tier0 {} > LB_Keogh {}", tier0, tier2);
        prop_assert!(tier0 <= d + 1e-9, "tier0 {} > banded DTW {}", tier0, d);
    }

    #[test]
    fn paa_incremental_builders_match_reference(x in seq(48), m in 1..48usize) {
        // The allocation-free sketch builder is bit-identical to the
        // reference reduction — the store's incremental sketches and a
        // from-scratch recompute can never drift apart.
        let m = m.min(x.len());
        let mut out = Vec::new();
        paa_into(&x, m, &mut out);
        prop_assert_eq!(out, paa(&x, m).segments);
    }

    // ---- Paper Lemma 1 (pairwise bound inside a group) ----

    #[test]
    fn lemma1_members_within_st((x, y) in seq_pair_equal(32), st in 0.05..1.0f64) {
        // Construct a "representative" r and project x, y to within ST/2
        // normalized ED of it; Lemma 1 promises ED̄(x', y') ≤ ST.
        let n = x.len();
        let r: Vec<f64> = (0..n).map(|i| 0.5 * (x[i] + y[i])).collect();
        let clamp_to = |s: &[f64]| -> Vec<f64> {
            let d = ed_normalized(s, &r);
            if d <= st / 2.0 {
                return s.to_vec();
            }
            // shrink toward r so normalized ED becomes exactly ST/2
            let scale = (st / 2.0) / d;
            s.iter().zip(&r).map(|(&si, &ri)| ri + (si - ri) * scale).collect()
        };
        let xp = clamp_to(&x);
        let yp = clamp_to(&y);
        prop_assert!(ed_normalized(&xp, &r) <= st / 2.0 + 1e-9);
        prop_assert!(ed_normalized(&yp, &r) <= st / 2.0 + 1e-9);
        prop_assert!(ed_normalized(&xp, &yp) <= st + 1e-9);
    }

    // ---- Paper Lemma 2 (ED–DTW triangle inequality) ----

    #[test]
    fn lemma2_time_warped_guarantee(
        (yrep, yother) in seq_pair_equal(24),
        q in seq(24),
        st in 0.05..1.0f64,
    ) {
        // Given ED̄(Y, Y') ≤ ST/2 (group membership) and DTW̄(X, Y) ≤ ST/2
        // (query-to-representative), Lemma 2 guarantees DTW̄(X, Y') ≤ ST.
        // We *construct* instances satisfying the premises and check the
        // conclusion — the formal content of the ONEX retrieval guarantee.
        let n = yrep.len();
        // Project yother into the ST/2 ED-ball around yrep.
        let d = ed_normalized(&yother, &yrep);
        let yp: Vec<f64> = if d <= st / 2.0 {
            yother.clone()
        } else {
            let scale = (st / 2.0) / d;
            yother.iter().zip(&yrep).map(|(&oi, &ri)| ri + (oi - ri) * scale).collect()
        };
        // Premise 2: DTW̄(q, yrep) ≤ ST/2; skip instances that don't satisfy it.
        let m = q.len().max(n) as f64;
        let dtw_q = dtw(&q, &yrep, Window::Unconstrained) / (2.0 * m);
        prop_assume!(dtw_q <= st / 2.0);
        let mp = q.len().max(yp.len()) as f64;
        let dtw_qp = dtw(&q, &yp, Window::Unconstrained) / (2.0 * mp);
        prop_assert!(
            dtw_qp <= st + 1e-9,
            "DTW̄(q,y')={} exceeds ST={} (premises: ED̄={}, DTW̄={})",
            dtw_qp, st, ed_normalized(&yp, &yrep), dtw_q
        );
    }

    // ---- PAA ----

    #[test]
    fn paa_mean_preservation(x in seq(48), m in 1..16usize) {
        // The weighted mean of segment means equals the sequence mean.
        let p = paa(&x, m);
        let rec = p.reconstruct();
        let mean_x: f64 = x.iter().sum::<f64>() / x.len() as f64;
        let mean_r: f64 = rec.iter().sum::<f64>() / rec.len() as f64;
        prop_assert!((mean_x - mean_r).abs() < 1e-9);
    }

    #[test]
    fn paa_identity_when_m_equals_n(x in seq(24)) {
        let p = paa(&x, x.len());
        prop_assert_eq!(&p.segments, &x);
    }

    #[test]
    fn pdtw_zero_on_identical(x in seq(48), m in 1..16usize) {
        let p = paa(&x, m);
        prop_assert_eq!(pdtw(&p, &p, Window::Unconstrained), 0.0);
    }

    // ---- LCSS ----

    #[test]
    fn lcss_bounds_and_symmetry(x in seq(24), y in seq(24), eps in 0.01..0.5f64) {
        use onex_dist::lcss::{lcss_dist, lcss_len, LcssParams};
        let p = LcssParams { epsilon: eps, delta: None };
        let l = lcss_len(&x, &y, p);
        prop_assert!(l <= x.len().min(y.len()));
        prop_assert_eq!(l, lcss_len(&y, &x, p));
        let d = lcss_dist(&x, &y, p);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert_eq!(lcss_dist(&x, &x, p), 0.0);
    }

    #[test]
    fn lcss_monotone_in_epsilon(x in seq(16), y in seq(16)) {
        use onex_dist::lcss::{lcss_len, LcssParams};
        let tight = lcss_len(&x, &y, LcssParams { epsilon: 0.05, delta: None });
        let loose = lcss_len(&x, &y, LcssParams { epsilon: 0.5, delta: None });
        prop_assert!(loose >= tight);
    }

    // ---- ERP ----

    #[test]
    fn erp_metric_properties(x in seq(12), y in seq(12), z in seq(12), g in -0.5..0.5f64) {
        use onex_dist::erp::erp;
        prop_assert!(erp(&x, &x, g) < 1e-12);
        prop_assert!((erp(&x, &y, g) - erp(&y, &x, g)).abs() < 1e-9);
        // ERP is a true metric: triangle inequality holds.
        prop_assert!(erp(&x, &z, g) <= erp(&x, &y, g) + erp(&y, &z, g) + 1e-9);
    }

    // ---- Lp norms ----

    #[test]
    fn lp_norm_ordering((x, y) in seq_pair_equal(24)) {
        use onex_dist::lp::{lp, LpNorm};
        let l1 = lp(&x, &y, LpNorm::L1);
        let l2 = lp(&x, &y, LpNorm::L2);
        let l4 = lp(&x, &y, LpNorm::P(4.0));
        let li = lp(&x, &y, LpNorm::LInf);
        prop_assert!(li <= l4 + 1e-9);
        prop_assert!(l4 <= l2 + 1e-9);
        prop_assert!(l2 <= l1 + 1e-9);
        // L∞ lower-bounds everything and L1 upper-bounds; triangle for L1
        prop_assert!(lp(&x, &y, LpNorm::L1) >= 0.0);
    }

    // ---- Lockstep DTW lanes ----

    #[test]
    fn lanes_are_bit_identical_to_the_scalar_kernel(
        n in 1..=40usize,
        m in 1..=40usize,
        equal in any::<bool>(),
        live in 1..=LANES,
        seed in any::<u64>(),
    ) {
        // One batch of `live` same-shape lanes, some with a suffix bound
        // and some without, under every window kind and a spread of
        // cutoffs: every lane's value and `None` must match `DtwBuffer`'s
        // on the same arguments, bit for bit.
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let m = if equal { n } else { m };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sample = |len: usize| -> Vec<f64> { (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect() };
        let xs: Vec<Vec<f64>> = (0..live).map(|_| sample(n)).collect();
        let ys: Vec<Vec<f64>> = (0..live).map(|_| sample(m)).collect();
        let full = n.max(m);
        let windows = [
            Window::Unconstrained,
            Window::Band(rng.gen_range(0..=full)),
            Window::Ratio(0.1),
            Window::Ratio(rng.gen_range(0.0..1.0)),
        ];
        let mut scalar = DtwBuffer::new();
        let mut lanes = DtwLanes::new();
        for window in windows {
            let exact: Vec<f64> = xs.iter().zip(&ys).map(|(x, y)| scalar.dist(x, y, window)).collect();
            // A non-increasing suffix on roughly half the lanes, scaled so
            // that it decides some of the abandons.
            let suffixes: Vec<Option<Vec<f64>>> = exact
                .iter()
                .map(|&d| {
                    rng.gen_bool(0.5).then(|| {
                        let mut s = vec![0.0; n + 1];
                        for i in (0..n).rev() {
                            s[i] = s[i + 1] + rng.gen_range(0.0..0.1) * d * d;
                        }
                        s
                    })
                })
                .collect();
            let batch: Vec<Lane<'_>> = (0..live)
                .map(|l| Lane { x: &xs[l], y: &ys[l], suffix_sq: suffixes[l].as_deref() })
                .collect();
            let mid = exact[live / 2];
            for cutoff in [f64::INFINITY, mid, 0.7 * mid, 1.3 * mid, rng.gen_range(0.0..1.0) * mid] {
                let got = lanes.dist_early_abandon(&batch, window, cutoff);
                for (l, lane) in batch.iter().enumerate() {
                    let want = match lane.suffix_sq {
                        Some(s) => scalar.dist_early_abandon_with_suffix(lane.x, lane.y, window, cutoff, s),
                        None => scalar.dist_early_abandon(lane.x, lane.y, window, cutoff),
                    };
                    let (got, want) = (got[l].map(f64::to_bits), want.map(f64::to_bits));
                    prop_assert!(got == want, "lane {} of {}, {:?}, cutoff {}: {:?} vs {:?}",
                        l, live, window, cutoff, got, want);
                }
                prop_assert!(got[live..].iter().all(Option::is_none));
            }
        }
    }

    // ---- Window resolution ----

    #[test]
    fn window_resolution_invariants(n in 1..200usize, m in 1..200usize, r in 0..64usize, f in 0.0..1.0f64) {
        for w in [Window::Unconstrained, Window::Band(r), Window::Ratio(f)] {
            let resolved = w.resolve(n, m);
            // Always admits a monotone path to the corner…
            prop_assert!(resolved >= n.abs_diff(m).max(1).min(n.max(m)));
            // …and banded DTW under it is finite.
            let x = vec![0.5; n];
            let y = vec![0.25; m];
            prop_assert!(dtw(&x, &y, w).is_finite());
        }
    }
}
