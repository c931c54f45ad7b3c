//! The NF-pair parallelizability census — paper §4.3.
//!
//! "We input all possible NF pairs from Table 2 into the algorithm.
//! According to the algorithm output and the appearance probabilities of
//! the NF pairs, we find that 53.8% NF pairs can work in parallel. In
//! particular, 41.5% pairs can be parallelized without causing extra
//! resource overhead."
//!
//! The paper does not fully specify the pair-probability model (five of the
//! eleven Table 2 rows carry no deployment percentage), so the census here
//! supports two weightings and the bench harness prints both next to the
//! paper's numbers:
//!
//! * [`Weighting::Uniform`] — every ordered pair of distinct NF types
//!   counts equally;
//! * [`Weighting::DeploymentShare`] — ordered pairs weighted by the product
//!   of the two NFs' enterprise deployment shares (rows without a share are
//!   excluded, mirroring "percentages derived from \[60\]").

use crate::alg1::{identify, IdentifyOptions};
use crate::deps::{DependencyTable, Parallelism};
use crate::table2::Registry;

/// Pair-probability model for the census.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weighting {
    /// Uniform over ordered pairs of distinct registered NF types.
    Uniform,
    /// Weighted by the product of deployment shares; rows without a share
    /// are excluded.
    DeploymentShare,
}

/// One analyzed pair, for reporting.
#[derive(Debug, Clone)]
pub struct PairRow {
    /// NF ordered first.
    pub nf1: String,
    /// NF ordered second.
    pub nf2: String,
    /// Algorithm 1 verdict.
    pub verdict: Parallelism,
    /// Weight assigned by the chosen model (sums to 1 across rows).
    pub weight: f64,
}

/// Aggregated census result.
#[derive(Debug, Clone)]
pub struct CensusReport {
    /// Weighted fraction of pairs that can work in parallel at all.
    pub parallelizable: f64,
    /// Weighted fraction parallelizable with **no** copy (no extra
    /// resource overhead).
    pub no_copy: f64,
    /// Weighted fraction requiring a packet copy.
    pub with_copy: f64,
    /// Per-pair detail rows.
    pub pairs: Vec<PairRow>,
}

/// Run the census over every ordered pair of distinct NF types in
/// `registry`.
pub fn census(registry: &Registry, weighting: Weighting, opts: IdentifyOptions) -> CensusReport {
    let dt = DependencyTable::paper_table3();
    let names = registry.nf_types();
    let mut pairs = Vec::new();
    let mut total_weight = 0.0;
    for &n1 in &names {
        for &n2 in &names {
            if n1 == n2 {
                continue;
            }
            let raw_weight = match weighting {
                Weighting::Uniform => 1.0,
                Weighting::DeploymentShare => {
                    let s1 = registry.entry(n1).and_then(|e| e.deployment_share);
                    let s2 = registry.entry(n2).and_then(|e| e.deployment_share);
                    match (s1, s2) {
                        (Some(a), Some(b)) => a * b,
                        _ => continue,
                    }
                }
            };
            let analysis = identify(
                registry.get(n1).unwrap(),
                registry.get(n2).unwrap(),
                &dt,
                opts,
            );
            total_weight += raw_weight;
            pairs.push(PairRow {
                nf1: n1.to_string(),
                nf2: n2.to_string(),
                verdict: analysis.verdict(),
                weight: raw_weight,
            });
        }
    }
    let mut parallelizable = 0.0;
    let mut no_copy = 0.0;
    let mut with_copy = 0.0;
    for row in &mut pairs {
        row.weight /= total_weight;
        match row.verdict {
            Parallelism::ParallelizableNoCopy => {
                parallelizable += row.weight;
                no_copy += row.weight;
            }
            Parallelism::ParallelizableWithCopy => {
                parallelizable += row.weight;
                with_copy += row.weight;
            }
            Parallelism::NotParallelizable => {}
        }
    }
    CensusReport {
        parallelizable,
        no_copy,
        with_copy,
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_census_shape_matches_paper_claim() {
        // Paper claim: a majority of pairs parallelize, and most of those
        // need no copy. Absolute figures (53.8% / 41.5%) depend on the
        // paper's unspecified pair weighting; the *shape* must hold.
        let report = census(
            &Registry::paper_table2(),
            Weighting::Uniform,
            IdentifyOptions::default(),
        );
        assert_eq!(report.pairs.len(), 11 * 10);
        assert!(
            report.parallelizable > 0.5,
            "parallelizable = {}",
            report.parallelizable
        );
        assert!(report.no_copy > report.with_copy);
        let sum = report.no_copy + report.with_copy;
        assert!((report.parallelizable - sum).abs() < 1e-9);
    }

    #[test]
    fn deployment_census_reproduces_paper_numbers_exactly() {
        // Paper §4.3: "53.8% NF pairs can work in parallel. In particular,
        // 41.5% pairs can be parallelized without causing extra resource
        // overhead." The deployment-share weighting over Table 2 (ordered
        // pairs of the six NFs with percentages) reproduces the paper's
        // numbers to the decimal, which also pins down the Drop row of
        // Table 3 as not-parallelizable.
        let report = census(
            &Registry::paper_table2(),
            Weighting::DeploymentShare,
            IdentifyOptions::default(),
        );
        assert!(
            (report.parallelizable * 100.0 - 53.8).abs() < 0.05,
            "parallelizable = {:.2}%",
            report.parallelizable * 100.0
        );
        assert!(
            (report.no_copy * 100.0 - 41.5).abs() < 0.05,
            "no_copy = {:.2}%",
            report.no_copy * 100.0
        );
        assert!(
            (report.with_copy * 100.0 - 12.3).abs() < 0.05,
            "with_copy = {:.2}%",
            report.with_copy * 100.0
        );
    }

    #[test]
    fn weights_sum_to_one() {
        for w in [Weighting::Uniform, Weighting::DeploymentShare] {
            let report = census(&Registry::paper_table2(), w, IdentifyOptions::default());
            let total: f64 = report.pairs.iter().map(|p| p.weight).sum();
            assert!((total - 1.0).abs() < 1e-9, "{w:?}: {total}");
        }
    }

    #[test]
    fn deployment_census_excludes_unshared_rows() {
        let report = census(
            &Registry::paper_table2(),
            Weighting::DeploymentShare,
            IdentifyOptions::default(),
        );
        // 6 rows carry shares → 6×5 ordered pairs.
        assert_eq!(report.pairs.len(), 30);
        assert!(report
            .pairs
            .iter()
            .all(|p| p.nf1 != "Monitor" && p.nf2 != "Monitor"));
    }

    #[test]
    fn disabling_op1_shifts_no_copy_to_copy() {
        let on = census(
            &Registry::paper_table2(),
            Weighting::Uniform,
            IdentifyOptions::default(),
        );
        let off = census(
            &Registry::paper_table2(),
            Weighting::Uniform,
            IdentifyOptions {
                dirty_memory_reusing: false,
            },
        );
        assert!((on.parallelizable - off.parallelizable).abs() < 1e-9);
        assert!(off.with_copy >= on.with_copy);
        assert!(off.no_copy <= on.no_copy);
    }
}
