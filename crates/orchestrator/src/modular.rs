//! Combining parallelism and modularity — paper §7, Figure 15.
//!
//! OpenBox-style modular NFs decompose into processing *blocks*
//! ("ReadPackets", "HeaderClassifier", "DPI", "Alert", …). After merging
//! two NFs' block chains and sharing their common prefix, NFP can be
//! applied *at block granularity*: independent residual blocks (e.g. the
//! firewall's `Alert` and the IPS's `DPI` in Figure 15) run in parallel,
//! further shortening the equivalent pipeline.

use crate::action::ActionProfile;
use crate::alg1::{identify, IdentifyOptions};
use crate::deps::DependencyTable;

/// One processing block of a modular NF.
#[derive(Debug, Clone)]
pub struct Block {
    /// Block name; equal names are shareable across NFs (OpenBox's
    /// "sharing common building blocks").
    pub name: String,
    /// The block's action profile (blocks are just tiny NFs to the
    /// dependency analysis).
    profile: ActionProfile,
}

impl Block {
    /// Construct a block.
    fn new(name: impl Into<String>, profile: ActionProfile) -> Self {
        Self {
            name: name.into(),
            profile,
        }
    }
}

/// A modular NF: a linear chain of blocks (the common OpenBox shape; the
/// classifier's branching is folded into the block profiles).
#[derive(Debug, Clone)]
pub struct BlockChain {
    /// Blocks in processing order.
    pub blocks: Vec<Block>,
}

/// One stage of the merged block pipeline.
#[derive(Debug, Clone)]
pub struct MergedStage {
    /// Block names executing in this stage (≥2 ⇒ block-level parallelism).
    pub blocks: Vec<String>,
    /// True when the stage is shared between the input NFs.
    pub shared: bool,
}

/// Result of the OpenBox+NFP merge.
#[derive(Debug, Clone)]
pub struct MergedGraph {
    /// The merged pipeline stages.
    pub stages: Vec<MergedStage>,
    /// Pipeline depth of naive sequential composition (all blocks of NF1
    /// then all blocks of NF2).
    pub sequential_depth: usize,
    /// Pipeline depth after sharing only (OpenBox merge, paper Fig 15 mid).
    pub shared_depth: usize,
    /// Pipeline depth after sharing + block parallelism (OpenBox+NFP,
    /// paper Fig 15 bottom).
    pub parallel_depth: usize,
}

/// Merge two modular NFs: share the longest common block-name prefix, then
/// run NFP's dependency analysis over the residual blocks to parallelize
/// independent ones.
pub fn merge(a: &BlockChain, b: &BlockChain, opts: IdentifyOptions) -> MergedGraph {
    let dt = DependencyTable::paper_table3();
    let common = a
        .blocks
        .iter()
        .zip(&b.blocks)
        .take_while(|(x, y)| x.name == y.name)
        .count();

    let mut stages: Vec<MergedStage> = a.blocks[..common]
        .iter()
        .map(|blk| MergedStage {
            blocks: vec![blk.name.clone()],
            shared: true,
        })
        .collect();

    // Residual blocks keep their own NF's internal order; across NFs we
    // greedily pack independent blocks into the same stage.
    let rest_a = &a.blocks[common..];
    let rest_b = &b.blocks[common..];
    let (mut ia, mut ib) = (0usize, 0usize);
    while ia < rest_a.len() || ib < rest_b.len() {
        match (rest_a.get(ia), rest_b.get(ib)) {
            (Some(x), Some(y)) => {
                // Blocks of two *merged* NFs have no inherent mutual order
                // (the operator merged them deliberately), so one
                // parallelizable direction suffices — like a Priority rule.
                let fwd = identify(&x.profile, &y.profile, &dt, opts);
                let back = identify(&y.profile, &x.profile, &dt, opts);
                if fwd.parallelizable || back.parallelizable {
                    stages.push(MergedStage {
                        blocks: vec![x.name.clone(), y.name.clone()],
                        shared: false,
                    });
                    ia += 1;
                    ib += 1;
                } else {
                    // Dependent: keep NF-a's block first (stable order).
                    stages.push(MergedStage {
                        blocks: vec![x.name.clone()],
                        shared: false,
                    });
                    ia += 1;
                }
            }
            (Some(x), None) => {
                stages.push(MergedStage {
                    blocks: vec![x.name.clone()],
                    shared: false,
                });
                ia += 1;
            }
            (None, Some(y)) => {
                stages.push(MergedStage {
                    blocks: vec![y.name.clone()],
                    shared: false,
                });
                ib += 1;
            }
            (None, None) => unreachable!(),
        }
    }

    let sequential_depth = a.blocks.len() + b.blocks.len();
    let shared_depth = common + (a.blocks.len() - common) + (b.blocks.len() - common);
    let parallel_depth = stages.len();
    MergedGraph {
        stages,
        sequential_depth,
        shared_depth,
        parallel_depth,
    }
}

/// The paper's Figure 15 firewall block chain.
pub fn figure15_firewall() -> BlockChain {
    use nfp_packet::FieldId::*;
    BlockChain {
        blocks: vec![
            Block::new("ReadPackets", ActionProfile::new("ReadPackets")),
            Block::new(
                "HeaderClassifier",
                ActionProfile::new("HeaderClassifier")
                    .reads([Sip, Dip, Sport, Dport])
                    .drops(),
            ),
            Block::new(
                "Alert(Firewall)",
                ActionProfile::new("Alert").reads([Sip, Dip]),
            ),
            Block::new("Output", ActionProfile::new("Output")),
        ],
    }
}

/// The paper's Figure 15 IPS block chain.
pub fn figure15_ips() -> BlockChain {
    use nfp_packet::FieldId::*;
    BlockChain {
        blocks: vec![
            Block::new("ReadPackets", ActionProfile::new("ReadPackets")),
            Block::new(
                "HeaderClassifier",
                ActionProfile::new("HeaderClassifier")
                    .reads([Sip, Dip, Sport, Dport])
                    .drops(),
            ),
            Block::new("DPI", ActionProfile::new("DPI").reads([Payload]).drops()),
            Block::new("Alert(IPS)", ActionProfile::new("Alert").reads([Sip, Dip])),
            Block::new("Output", ActionProfile::new("Output")),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure15_merge_parallelizes_alert_and_dpi() {
        let m = merge(
            &figure15_firewall(),
            &figure15_ips(),
            IdentifyOptions::default(),
        );
        // Shared prefix: ReadPackets + HeaderClassifier.
        assert!(m.stages[0].shared && m.stages[1].shared);
        assert_eq!(m.stages[0].blocks, vec!["ReadPackets"]);
        // Somewhere after the prefix, Alert(Firewall) runs beside DPI.
        assert!(
            m.stages.iter().any(|s| s.blocks.len() == 2),
            "expected a block-parallel stage: {:?}",
            m.stages
        );
        // Depth strictly improves at each step: 9 sequential, 7 shared,
        // fewer still with block parallelism.
        assert_eq!(m.sequential_depth, 9);
        assert_eq!(m.shared_depth, 7);
        assert!(m.parallel_depth < m.shared_depth);
    }

    #[test]
    fn disjoint_chains_share_nothing() {
        let a = BlockChain {
            blocks: vec![Block::new("X", ActionProfile::new("X"))],
        };
        let b = BlockChain {
            blocks: vec![Block::new("Y", ActionProfile::new("Y"))],
        };
        let m = merge(&a, &b, IdentifyOptions::default());
        assert!(m.stages.iter().all(|s| !s.shared));
        assert_eq!(m.shared_depth, 2);
        // Two empty profiles are trivially independent → one stage.
        assert_eq!(m.parallel_depth, 1);
    }

    #[test]
    fn identical_chains_fully_share() {
        let a = figure15_firewall();
        let m = merge(&a, &a.clone(), IdentifyOptions::default());
        assert!(m.stages.iter().all(|s| s.shared));
        assert_eq!(m.parallel_depth, a.blocks.len());
    }
}
