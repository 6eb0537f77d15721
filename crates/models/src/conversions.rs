//! Lemma 1: the DAM with `B = 1/α` and the affine model agree to within a
//! factor of 2 in both directions.
//!
//! * An affine algorithm of cost `C` becomes a DAM algorithm of cost `≤ 2C`
//!   with blocks of `B = 1/α` (split every size-`x` IO into `ceil(x/B)`
//!   block IOs).
//! * A DAM algorithm of cost `C` with `B = 1/α` becomes an affine algorithm
//!   of cost `≤ 2C` (each unit-cost block IO costs `1 + αB = 2`).
//!
//! These functions cost explicit IO traces under both models so the bound
//! can be checked on arbitrary workloads (see the property tests and the
//! `damlab experiment lemma1`).

use crate::{Affine, Dam};

/// Total affine cost of a trace of IO sizes (bytes).
pub fn affine_trace_cost(model: &Affine, io_bytes: &[f64]) -> f64 {
    io_bytes.iter().map(|&x| model.io_cost(x)).sum()
}

/// Total DAM cost (number of block IOs) of a trace of IO sizes (bytes),
/// splitting each IO into `ceil(x/B)` blocks.
pub fn dam_trace_cost(model: &Dam, io_bytes: &[f64]) -> f64 {
    io_bytes.iter().map(|&x| model.io_count(x)).sum()
}

/// The DAM that Lemma 1 pairs with an affine model: `B = 1/α`.
pub fn matching_dam(affine: &Affine) -> Dam {
    Dam::new(affine.half_bandwidth_bytes())
}

/// Check Lemma 1 on a trace: returns `(affine_cost, dam_cost, ratio)` where
/// `ratio = dam_cost·2 / affine_cost`-style bounds hold, specifically
/// `dam_cost ≤ 2·affine_cost` and `2·dam_cost ≥ affine_cost`.
pub fn lemma1_check(affine: &Affine, io_bytes: &[f64]) -> Lemma1Report {
    let dam = matching_dam(affine);
    let affine_cost = affine_trace_cost(affine, io_bytes);
    let dam_cost = dam_trace_cost(&dam, io_bytes);
    Lemma1Report {
        affine_cost,
        dam_cost,
        dam_within_2x_affine: dam_cost <= 2.0 * affine_cost + 1e-9,
        affine_within_2x_dam: affine_cost <= 2.0 * dam_cost + 1e-9,
    }
}

/// Outcome of a Lemma 1 consistency check on one trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lemma1Report {
    /// Trace cost under the affine model (setup-cost units).
    pub affine_cost: f64,
    /// Trace cost under the matching DAM (block IOs).
    pub dam_cost: f64,
    /// `dam_cost ≤ 2 · affine_cost`.
    pub dam_within_2x_affine: bool,
    /// `affine_cost ≤ 2 · dam_cost`.
    pub affine_within_2x_dam: bool,
}

impl Lemma1Report {
    /// Both directions of the factor-2 equivalence hold.
    pub fn holds(&self) -> bool {
        self.dam_within_2x_affine && self.affine_within_2x_dam
    }

    /// How far the DAM estimate is from the affine cost (the paper: "the DAM
    /// approximates the IO cost on any hardware to within a factor of 2").
    pub fn dam_error_factor(&self) -> f64 {
        if self.affine_cost == 0.0 {
            1.0
        } else {
            self.dam_cost / self.affine_cost
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_block_io_costs_exactly_two_affine() {
        let a = Affine::new(1e-6);
        let b = a.half_bandwidth_bytes();
        assert!((affine_trace_cost(&a, &[b]) - 2.0).abs() < 1e-9);
        assert_eq!(dam_trace_cost(&matching_dam(&a), &[b]), 1.0);
    }

    #[test]
    fn lemma1_holds_on_tiny_ios() {
        // Tiny IOs: affine cost ~ 1 each, DAM charges 1 each — DAM
        // *underestimates* time by up to 2x is impossible; it's within 2x.
        let a = Affine::new(1e-6);
        let trace = vec![1.0; 1000];
        let r = lemma1_check(&a, &trace);
        assert!(r.holds(), "{r:?}");
    }

    #[test]
    fn lemma1_holds_on_huge_ios() {
        // Huge IOs: affine cost ~ alpha*x, DAM charges ceil(x/B) = alpha*x.
        let a = Affine::new(1e-6);
        let trace = vec![1e9, 5e8, 2.5e9];
        let r = lemma1_check(&a, &trace);
        assert!(r.holds(), "{r:?}");
    }

    #[test]
    fn lemma1_holds_on_mixed_trace() {
        let a = Affine::new(1e-5);
        let trace: Vec<f64> = (0..20).map(|i| (1u64 << i) as f64).collect();
        let r = lemma1_check(&a, &trace);
        assert!(r.holds(), "{r:?}");
        assert!(r.dam_error_factor() >= 0.5 && r.dam_error_factor() <= 2.0);
    }

    #[test]
    fn half_bandwidth_ios_are_the_worst_case_boundary() {
        // IOs of exactly B: affine = 2, DAM = 1 → factor exactly 0.5 (DAM
        // undercounts by the max allowed).
        let a = Affine::new(1e-4);
        let r = lemma1_check(&a, &[a.half_bandwidth_bytes()]);
        assert!((r.dam_error_factor() - 0.5).abs() < 1e-9);
        assert!(r.holds());
    }
}
