//! Property-based tests for the statistics crate.

use proptest::prelude::*;
use schedtask_metrics::{cosine_similarity, geometric_mean_pct, jain_fairness, kendall_tau_b};

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, len..=len)
}

proptest! {
    #[test]
    fn cosine_is_bounded(a in finite_vec(8), b in finite_vec(8)) {
        let c = cosine_similarity(&a, &b);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c));
    }

    #[test]
    fn cosine_is_symmetric(a in finite_vec(6), b in finite_vec(6)) {
        let ab = cosine_similarity(&a, &b);
        let ba = cosine_similarity(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn cosine_self_similarity_is_one(a in finite_vec(5)) {
        prop_assume!(a.iter().any(|&x| x != 0.0));
        prop_assert!((cosine_similarity(&a, &a) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_positive_scaling_invariant(a in finite_vec(5), k in 0.001f64..1000.0) {
        prop_assume!(a.iter().any(|&x| x.abs() > 1e-6));
        let scaled: Vec<f64> = a.iter().map(|&x| x * k).collect();
        let c1 = cosine_similarity(&a, &scaled);
        prop_assert!((c1 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tau_is_bounded_and_symmetric(a in finite_vec(7), b in finite_vec(7)) {
        let t = kendall_tau_b(&a, &b);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&t));
        prop_assert!((t - kendall_tau_b(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn tau_self_is_one_when_untied(a in prop::collection::hash_set(-1000i64..1000, 5)) {
        let v: Vec<f64> = a.into_iter().map(|x| x as f64).collect();
        prop_assert!((kendall_tau_b(&v, &v) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn tau_negates_under_reversal(a in prop::collection::hash_set(-1000i64..1000, 6)) {
        let v: Vec<f64> = a.into_iter().map(|x| x as f64).collect();
        let neg: Vec<f64> = v.iter().map(|x| -x).collect();
        prop_assert!((kendall_tau_b(&v, &neg) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn jain_is_within_bounds(v in prop::collection::vec(0.0f64..1e6, 1..32)) {
        prop_assume!(v.iter().any(|&x| x > 0.0));
        let j = jain_fairness(&v);
        let n = v.len() as f64;
        prop_assert!(j >= 1.0 / n - 1e-9);
        prop_assert!(j <= 1.0 + 1e-9);
    }

    #[test]
    fn jain_scale_invariant(v in prop::collection::vec(0.1f64..1e3, 2..16), k in 0.01f64..100.0) {
        let scaled: Vec<f64> = v.iter().map(|&x| x * k).collect();
        prop_assert!((jain_fairness(&v) - jain_fairness(&scaled)).abs() < 1e-9);
    }

    #[test]
    fn geomean_between_min_and_max(v in prop::collection::vec(-90.0f64..300.0, 1..16)) {
        let g = geometric_mean_pct(&v);
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(g >= lo - 1e-6);
        prop_assert!(g <= hi + 1e-6);
    }
}
