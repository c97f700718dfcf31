//! The structural check every model passes to be compiled.
//!
//! The flat walk reads nodes without a bounds check and, on shallow trees,
//! takes exactly `max_depth` hops. Both rest on this check: every child id
//! lies inside its tree, every node is reached from the root exactly once,
//! and every node's `depth` is its path length. `FlatForest::from_trees`
//! runs it in the pass that compiles the nodes and panics on a failure; a
//! model file is untrusted input, so `GbdtModel::from_json` runs the same
//! check and returns its failure as an error.

use crate::params::LossKind;
use crate::tree::{Node, NodeId, Tree, NO_NODE};

/// Checks the ensemble-level shape and every tree; `Err` names the first
/// violation. Calls `visit(t, id, node)` on every node of every tree `t`,
/// tree by tree in arena order, once the node's own fields have passed,
/// so a compiler can build in the same pass. The model is only known to
/// be sound when the call returns `Ok`.
pub(crate) fn check_model(
    trees: &[Tree],
    base_scores: &[f32],
    loss: LossKind,
    n_features: usize,
    mut visit: impl FnMut(usize, NodeId, &Node),
) -> Result<(), String> {
    loss.validate()?;
    let groups = loss.n_groups();
    if base_scores.len() != groups {
        return Err(format!("{} base scores for {groups} groups", base_scores.len()));
    }
    if trees.len() % groups != 0 {
        return Err(format!("{} trees do not fill whole rounds of {groups}", trees.len()));
    }
    if n_features > 0x7FFF_FFFF {
        return Err(format!("{n_features} features do not fit 31-bit feature ids"));
    }
    let n_nodes: usize = trees.iter().map(Tree::n_nodes).sum();
    if n_nodes > u32::MAX as usize {
        return Err(format!("{n_nodes} nodes do not fit 32-bit node ids"));
    }
    let mut reached = Vec::new();
    for (t, tree) in trees.iter().enumerate() {
        check_tree(tree, n_features, &mut reached, |id, node| visit(t, id, node))
            .map_err(|e| format!("tree {t}: {e}"))?;
    }
    Ok(())
}

/// Checks one tree in one pass over its arena, with no walk: every node
/// but the root must be some split's child exactly once, at its parent's
/// depth plus one. Parent chains then strictly lose depth, so they can
/// only end at the root, and the tree has no cycle and no node unreachable
/// from the root. `reached` is scratch reused across trees.
fn check_tree(
    tree: &Tree,
    n_features: usize,
    reached: &mut Vec<u64>,
    mut visit: impl FnMut(NodeId, &Node),
) -> Result<(), String> {
    let n = tree.n_nodes();
    if n == 0 {
        return Err("empty tree".into());
    }
    // `reached[c]` is 1 + the depth node `c` must have — its parent's
    // depth + 2, or 1 for the root — and 0 while no split reaches it. A
    // node's depth is checked at whichever of it and its parent comes
    // second in the arena (a grown tree puts the parent first).
    reached.clear();
    reached.resize(n, 0);
    reached[0] = 1;
    let check_depth = |id: NodeId, r: u64| {
        let depth = u64::from(tree.node(id).depth);
        match (id, depth + 1 == r) {
            (_, true) => Ok(()),
            (0, false) => Err(format!("root has depth {depth}")),
            _ => Err(format!("node {id} has depth {depth} under a node of depth {}", r - 2)),
        }
    };
    for id in 0..n as NodeId {
        let node = tree.node(id);
        if reached[id as usize] != 0 {
            check_depth(id, reached[id as usize])?;
        }
        if let Some(split) = &node.split {
            if split.feature as usize >= n_features {
                let f = split.feature;
                return Err(format!("node {id} splits on feature {f} of {n_features}"));
            }
            for child in [node.left, node.right] {
                let Some(slot) = reached.get_mut(child as usize) else {
                    return Err(format!("node {id} has child {child} outside 0..{n}"));
                };
                if *slot != 0 {
                    return Err(format!("node {child} is reached twice"));
                }
                *slot = u64::from(node.depth) + 2;
                // A child at or before its parent was visited unchecked;
                // a node that is its own child fails here.
                if child <= id {
                    check_depth(child, *slot)?;
                }
            }
        } else if node.left != NO_NODE || node.right != NO_NODE {
            return Err(format!("leaf {id} has a child"));
        }
        visit(id, node);
    }
    match reached.iter().position(|&r| r == 0) {
        Some(id) => Err(format!("node {id} is unreachable from the root")),
        None => Ok(()),
    }
}
