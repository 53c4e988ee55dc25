//! Tape validation: replay the shape-transfer rules over a *recorded*
//! [`Graph`] and cross-check every node's shape (and the MAC total) against
//! what the runtime actually produced. Touches no tensor data — only
//! metadata — so it is cheap enough to run on every training step in debug
//! builds. The per-op dispatch, `infer_node`, is shared with the plan
//! lift ([`crate::plan`]), which runs it over batch-symbolic shapes.

use lip_autograd::{Graph, Op, ParamStore, Var};

use crate::rules::{self, RuleError};
use crate::sym::{fixed_shape, shape_to_string, SymDim, SymPoly, SymShape};

/// One disagreement between the analyzer and the recorded tape.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Tape index of the offending node.
    pub node: usize,
    /// Op variant name.
    pub op: &'static str,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node {} ({}): {}", self.node, self.op, self.message)
    }
}

/// Summary of a successfully validated tape.
#[derive(Debug, Clone)]
pub struct TapeSummary {
    /// Node count.
    pub nodes: usize,
    /// MACs recomputed from shapes alone — equals `Graph::macs()` on a
    /// valid tape.
    pub macs: u64,
    /// Trainable-parameter leaves on the tape.
    pub param_nodes: usize,
}

/// The sizes a node records that its input shapes do not determine: a
/// leaf's own shape (`shape`, the node's recorded output), a reshape or
/// broadcast target, a dropout mask's shape, and the gather and label
/// counts. Everything else an op records is independent of the batch size.
pub(crate) fn recorded_sizes(op: &Op, shape: &[usize]) -> Vec<usize> {
    match op {
        Op::Leaf => shape.to_vec(),
        Op::Reshape(_, target) | Op::BroadcastTo(_, target) => target.clone(),
        Op::Dropout(_, mask) => mask.shape().to_vec(),
        Op::GatherRows(_, indices) => vec![indices.len()],
        Op::CrossEntropyRows(_, labels) => vec![labels.len()],
        _ => vec![],
    }
}

/// The shared rule dispatch: the shape `op` must produce from its input
/// shapes (`shape_of`) and its [`recorded_sizes`] (`sized`, in the same
/// domain), plus the MACs `Graph` charges for it. Over fixed shapes this
/// validates one recorded tape; over lifted shapes it checks a plan for
/// every batch size at once.
pub(crate) fn infer_node(
    op: &Op,
    shape_of: &dyn Fn(Var) -> SymShape,
    sized: &[SymDim],
    store: &ParamStore,
) -> Result<(SymShape, SymPoly), RuleError> {
    let shape = match op {
        Op::Leaf => sized.to_vec(),
        Op::Param(id) => fixed_shape(store.value(*id).shape()),
        Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) => {
            rules::broadcast_join(&shape_of(*a), &shape_of(*b))?
        }
        Op::AddScalar(a, _)
        | Op::MulScalar(a, _)
        | Op::Neg(a)
        | Op::Softmax(a)
        | Op::LogSoftmax(a)
        | Op::Relu(a)
        | Op::Gelu(a)
        | Op::Sigmoid(a)
        | Op::Tanh(a)
        | Op::Sqrt(a)
        | Op::Exp(a)
        | Op::Ln(a)
        | Op::Square(a)
        | Op::Abs(a) => shape_of(*a),
        Op::Dropout(a, _) => {
            let s = shape_of(*a);
            if sized != s.as_slice() {
                return Err(format!(
                    "dropout mask shape {} does not match input {}",
                    shape_to_string(sized),
                    shape_to_string(&s)
                ));
            }
            s
        }
        Op::MatMul(a, b) => {
            let (out, k) = rules::matmul_rule(&shape_of(*a), &shape_of(*b))?;
            let macs = rules::mac_cost("MatMul", &out, Some(k));
            return Ok((out, macs));
        }
        Op::Permute(a, axes) => rules::permute_rule(&shape_of(*a), axes)?,
        Op::Reshape(a, _) => rules::reshape_rule(&shape_of(*a), sized)?,
        Op::BroadcastTo(a, _) => rules::broadcast_to_rule(&shape_of(*a), sized)?,
        Op::Sum(_) | Op::Mean(_) => vec![],
        Op::SumAxis(a, axis) | Op::MeanAxis(a, axis) => {
            rules::reduce_axis_rule(&shape_of(*a), *axis)?
        }
        Op::Concat(parts, axis) => {
            let shapes: Vec<_> = parts.iter().map(|p| shape_of(*p)).collect();
            rules::concat_rule(&shapes, *axis)?
        }
        Op::SliceAxis(a, axis, start, end) => {
            rules::slice_rule(&shape_of(*a), *axis, *start, *end)?
        }
        Op::Unfold(a, axis, window, step) => {
            rules::unfold_rule(&shape_of(*a), *axis, *window, *step)?
        }
        Op::GatherRows(table, indices) => {
            let table = shape_of(*table);
            let out = rules::gather_rows_rule(&table, sized[0])?;
            let vocab = table[0].fixed;
            if let Some(&bad) = indices.iter().find(|&&ix| ix >= vocab) {
                return Err(format!("gather index {bad} out of vocab {vocab}"));
            }
            out
        }
        Op::MseLoss(p, t) | Op::MaeLoss(p, t) => {
            rules::paired_loss_rule(&shape_of(*p), &shape_of(*t))?
        }
        Op::SmoothL1(p, t, beta) => {
            if *beta <= 0.0 {
                return Err(format!("smooth_l1 beta {beta} must be positive"));
            }
            rules::paired_loss_rule(&shape_of(*p), &shape_of(*t))?
        }
        Op::CrossEntropyRows(logits, _) => {
            let ls = shape_of(*logits);
            let out = rules::cross_entropy_rule(&ls)?;
            if ls[0] != sized[0] {
                return Err(format!("{} labels for {} logits rows", sized[0], ls[0]));
            }
            return Ok((out, rules::cross_entropy_mac(&ls)));
        }
    };
    let macs = rules::mac_cost(op.name(), &shape, None);
    Ok((shape, macs))
}

/// Validate every node of a recorded tape: each op's inferred output shape
/// must equal the recorded one, parameter leaves must match the store, and
/// the recomputed MAC total must match the graph's counter.
pub fn validate_graph(g: &Graph) -> Result<TapeSummary, Vec<Violation>> {
    let mut violations = Vec::new();
    let mut macs = SymPoly::zero();
    let mut param_nodes = 0usize;
    let shape_of = |v: Var| fixed_shape(g.shape_at(v.index()));

    for i in 0..g.len() {
        let op = g.op_at(i);
        let recorded = g.shape_at(i);

        // Inputs must precede the node — tape order is topological order.
        if let Some(bad) = op.inputs().iter().find(|v| v.index() >= i) {
            violations.push(Violation {
                node: i,
                op: op.name(),
                message: format!("input node {} does not precede it", bad.index()),
            });
            continue;
        }
        if matches!(op, Op::Param(_)) {
            param_nodes += 1;
        }

        let sized = fixed_shape(&recorded_sizes(op, recorded));
        match infer_node(op, &shape_of, &sized, g.store()) {
            Ok((shape, cost)) => {
                let concrete: Vec<usize> = shape.iter().map(|d| d.fixed).collect();
                if concrete != recorded {
                    violations.push(Violation {
                        node: i,
                        op: op.name(),
                        message: format!(
                            "inferred shape {concrete:?} but tape recorded {recorded:?}"
                        ),
                    });
                } else {
                    // Only count MACs for nodes whose shape checks out.
                    macs.add_assign(&cost);
                }
            }
            Err(message) => violations.push(Violation {
                node: i,
                op: op.name(),
                message,
            }),
        }
    }

    let macs = macs.eval(1);
    if violations.is_empty() && macs != g.macs() {
        violations.push(Violation {
            node: g.len(),
            op: "<tape>",
            message: format!(
                "recomputed MAC total {macs} does not match graph counter {}",
                g.macs()
            ),
        });
    }

    if violations.is_empty() {
        Ok(TapeSummary {
            nodes: g.len(),
            macs,
            param_nodes,
        })
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lip_autograd::ParamStore;
    use lip_tensor::Tensor;

    #[test]
    fn clean_tape_validates_with_matching_macs() {
        let mut store = ParamStore::new();
        let w = store.add("w", Tensor::ones(&[3, 4]));
        let mut g = Graph::new(&store);
        let x = g.constant(Tensor::ones(&[2, 3]));
        let wv = g.param(w);
        let y = g.matmul(x, wv);
        let a = g.relu(y);
        let _ = g.mean(a);
        let summary = validate_graph(&g).expect("tape must validate");
        assert_eq!(summary.nodes, 5);
        assert_eq!(summary.param_nodes, 1);
        assert_eq!(summary.macs, g.macs());
    }

    #[test]
    fn validates_full_loss_graph() {
        let store = ParamStore::new();
        let mut g = Graph::new(&store);
        let p = g.constant(Tensor::ones(&[2, 4]));
        let t = g.constant(Tensor::zeros(&[2, 4]));
        let _ = g.smooth_l1_loss(p, t, 1.0);
        assert!(validate_graph(&g).is_ok());
    }
}
