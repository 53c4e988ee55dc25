//! Per-op shape transfer functions over symbolic dimensions, plus the MAC
//! cost table. These rules are the single source of truth behind
//! `infer::infer_node`, which both [`crate::infer`] (validating a recorded
//! tape, all dims fixed) and [`crate::plan`] (checking a lifted plan for
//! every batch size) dispatch through. The MAC formulas mirror
//! `lip_autograd::Graph`'s accounting exactly — both callers compare the
//! totals with the graph's counter.

use crate::sym::{shape_to_string, SymDim, SymPoly, SymShape};

/// A shape-rule failure: the human-readable reason an op cannot accept its
/// input shapes.
pub type RuleError = String;

/// Broadcast two shapes (numpy trailing-alignment). Two affine axes join iff
/// they are equal or one is the literal 1.
pub fn broadcast_join(a: &[SymDim], b: &[SymDim]) -> Result<SymShape, RuleError> {
    let rank = a.len().max(b.len());
    let mut out = Vec::with_capacity(rank);
    for i in 0..rank {
        let da = if i < rank - a.len() { SymDim::fixed(1) } else { a[i - (rank - a.len())] };
        let db = if i < rank - b.len() { SymDim::fixed(1) } else { b[i - (rank - b.len())] };
        let joined = if da == db || db.is_one() {
            da
        } else if da.is_one() {
            db
        } else {
            return Err(format!(
                "cannot broadcast {} with {}",
                shape_to_string(a),
                shape_to_string(b)
            ));
        };
        out.push(joined);
    }
    Ok(out)
}

/// Batched matmul shape rule, mirroring `lip_tensor::shape::matmul_shapes`:
/// 1-d operands are promoted then squeezed, inner dims must match, batch
/// axes broadcast. Returns `(out_shape, inner_dim_of_lhs)` — the inner dim
/// is what the MAC formula multiplies by.
pub fn matmul_rule(lhs: &[SymDim], rhs: &[SymDim]) -> Result<(SymShape, SymDim), RuleError> {
    if lhs.is_empty() || rhs.is_empty() {
        return Err("matmul operands need rank >= 1".into());
    }
    let squeeze_front = lhs.len() == 1;
    let squeeze_back = rhs.len() == 1;
    let l: SymShape = if squeeze_front {
        vec![SymDim::fixed(1), lhs[0]]
    } else {
        lhs.to_vec()
    };
    let r: SymShape = if squeeze_back {
        vec![rhs[0], SymDim::fixed(1)]
    } else {
        rhs.to_vec()
    };
    let (m, k) = (l[l.len() - 2], l[l.len() - 1]);
    let (k2, n) = (r[r.len() - 2], r[r.len() - 1]);
    if k != k2 {
        return Err(format!(
            "matmul inner-dim mismatch: {} × {}",
            shape_to_string(lhs),
            shape_to_string(rhs)
        ));
    }
    let batch = broadcast_join(&l[..l.len() - 2], &r[..r.len() - 2])
        .map_err(|e| format!("matmul batch axes: {e}"))?;
    let mut out = batch;
    if !squeeze_front {
        out.push(m);
    }
    if !squeeze_back {
        out.push(n);
    }
    // `lhs` last dim, as `Graph::matmul` reads it for the MAC count.
    Ok((out, *lhs.last().unwrap()))
}

/// Axis reorder: `axes` must be a permutation of `0..rank`.
pub fn permute_rule(shape: &[SymDim], axes: &[usize]) -> Result<SymShape, RuleError> {
    if axes.len() != shape.len() {
        return Err(format!(
            "permute axes {:?} do not match rank {}",
            axes,
            shape.len()
        ));
    }
    let mut seen = vec![false; axes.len()];
    for &ax in axes {
        if ax >= shape.len() || seen[ax] {
            return Err(format!("permute axes {axes:?} are not a permutation"));
        }
        seen[ax] = true;
    }
    Ok(axes.iter().map(|&ax| shape[ax]).collect())
}

/// Reshape: element counts must agree as polynomials in `B` (so a reshape
/// that only works for one particular batch size is rejected).
pub fn reshape_rule(shape: &[SymDim], target: &[SymDim]) -> Result<SymShape, RuleError> {
    if SymPoly::numel(shape) != SymPoly::numel(target) {
        return Err(format!(
            "reshape {} -> {} changes element count ({} vs {})",
            shape_to_string(shape),
            shape_to_string(target),
            SymPoly::numel(shape),
            SymPoly::numel(target)
        ));
    }
    Ok(target.to_vec())
}

/// Materialized broadcast to an explicit target.
pub fn broadcast_to_rule(shape: &[SymDim], target: &[SymDim]) -> Result<SymShape, RuleError> {
    let joined = broadcast_join(shape, target)?;
    if joined != target {
        return Err(format!(
            "{} does not broadcast to {}",
            shape_to_string(shape),
            shape_to_string(target)
        ));
    }
    Ok(joined)
}

/// Contiguous slice along `axis`. The sliced axis must be batch-independent
/// so the bounds are statically checkable.
pub fn slice_rule(
    shape: &[SymDim],
    axis: usize,
    start: usize,
    end: usize,
) -> Result<SymShape, RuleError> {
    if axis >= shape.len() {
        return Err(format!("slice axis {axis} out of rank {}", shape.len()));
    }
    let d = shape[axis];
    if !d.is_fixed() {
        return Err(format!("cannot statically slice batch-dependent axis {d}"));
    }
    if start > end || end > d.fixed {
        return Err(format!(
            "slice {start}..{end} out of bounds for axis of length {}",
            d.fixed
        ));
    }
    let mut out = shape.to_vec();
    out[axis] = SymDim::fixed(end - start);
    Ok(out)
}

/// Sliding-window unfold along `axis` (mirrors `Tensor::sliding_window`):
/// the axis shrinks to the window count `(len - window) / step + 1` and the
/// window length is appended as a new trailing axis. The unfolded axis must
/// be batch-independent so the count is statically checkable.
pub fn unfold_rule(
    shape: &[SymDim],
    axis: usize,
    window: usize,
    step: usize,
) -> Result<SymShape, RuleError> {
    if axis >= shape.len() {
        return Err(format!("unfold axis {axis} out of rank {}", shape.len()));
    }
    if window == 0 || step == 0 {
        return Err(format!("unfold needs window >= 1 and step >= 1, got window {window} step {step}"));
    }
    let d = shape[axis];
    if !d.is_fixed() {
        return Err(format!("cannot statically unfold batch-dependent axis {d}"));
    }
    if window > d.fixed {
        return Err(format!(
            "unfold window {window} exceeds axis length {}",
            d.fixed
        ));
    }
    let n = (d.fixed - window) / step + 1;
    let mut out = shape.to_vec();
    out[axis] = SymDim::fixed(n);
    out.push(SymDim::fixed(window));
    Ok(out)
}

/// Concatenate along `axis`: all other axes must agree.
pub fn concat_rule(shapes: &[SymShape], axis: usize) -> Result<SymShape, RuleError> {
    let first = shapes.first().ok_or("concat needs at least one input")?;
    if axis >= first.len() {
        return Err(format!("concat axis {axis} out of rank {}", first.len()));
    }
    let mut width = SymDim::fixed(0);
    for s in shapes {
        if s.len() != first.len() {
            return Err("concat rank mismatch".into());
        }
        for (i, (&a, &b)) in s.iter().zip(first.iter()).enumerate() {
            if i != axis && a != b {
                return Err(format!(
                    "concat mismatch on axis {i}: {} vs {}",
                    shape_to_string(s),
                    shape_to_string(first)
                ));
            }
        }
        let d = s[axis];
        width = SymDim {
            per_batch: width.per_batch + d.per_batch,
            fixed: width.fixed + d.fixed,
        };
    }
    let mut out = first.clone();
    out[axis] = width;
    Ok(out)
}

/// Axis reduction (sum/mean along an axis, kept as size 1).
pub fn reduce_axis_rule(shape: &[SymDim], axis: usize) -> Result<SymShape, RuleError> {
    if axis >= shape.len() {
        return Err(format!("reduce axis {axis} out of rank {}", shape.len()));
    }
    let mut out = shape.to_vec();
    out[axis] = SymDim::fixed(1);
    Ok(out)
}

/// Row gather along axis 0 of a `[vocab, row..]` table: `count` looked-up
/// rows (symbolic — `b·L` for the categorical covariates).
pub fn gather_rows_rule(table: &[SymDim], count: SymDim) -> Result<SymShape, RuleError> {
    if table.is_empty() {
        return Err("gather_rows needs a table of rank >= 1".into());
    }
    if !table[0].is_fixed() {
        return Err("gather table vocab axis must be batch-independent".into());
    }
    let mut out = vec![count];
    out.extend_from_slice(&table[1..]);
    Ok(out)
}

/// Mean-reducing losses (MSE/MAE/Smooth-L1): operand shapes must match
/// exactly; output is scalar.
pub fn paired_loss_rule(pred: &[SymDim], target: &[SymDim]) -> Result<SymShape, RuleError> {
    if pred != target {
        return Err(format!(
            "loss shape mismatch: {} vs {}",
            shape_to_string(pred),
            shape_to_string(target)
        ));
    }
    Ok(vec![])
}

/// Row-wise cross-entropy needs `[rows, classes]` logits; scalar output.
pub fn cross_entropy_rule(logits: &[SymDim]) -> Result<SymShape, RuleError> {
    if logits.len() != 2 {
        return Err(format!(
            "cross_entropy expects [rows, classes] logits, got {}",
            shape_to_string(logits)
        ));
    }
    Ok(vec![])
}

/// Multiply–accumulate cost of one op, given its *output* shape and (for
/// matmul) the lhs inner dim — the exact mirror of `Graph`'s accounting.
/// Ops not listed cost nothing there, so they cost nothing here.
pub fn mac_cost(op: &str, out_shape: &[SymDim], matmul_k: Option<SymDim>) -> SymPoly {
    let numel = SymPoly::numel(out_shape);
    match op {
        "Add" | "Sub" | "Mul" | "Div" | "Relu" | "Square" => numel,
        "MatMul" => {
            let k = matmul_k.expect("matmul cost needs the inner dim");
            numel.mul(&SymPoly::from_dim(k))
        }
        "Softmax" | "LogSoftmax" | "Sigmoid" | "Tanh" => numel.scale(4),
        "Gelu" => numel.scale(8),
        _ => SymPoly::zero(),
    }
}

/// MAC cost of `CrossEntropyRows`, which `Graph` charges on the *logits*
/// element count (5 passes), not the scalar output.
pub fn cross_entropy_mac(logits: &[SymDim]) -> SymPoly {
    SymPoly::numel(logits).scale(5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::fixed_shape;

    #[test]
    fn broadcast_bias_and_anchor() {
        // bias add: [2B, 8, 64] + [64]
        let out = broadcast_join(
            &[SymDim::batch_times(2), SymDim::fixed(8), SymDim::fixed(64)],
            &fixed_shape(&[64]),
        )
        .unwrap();
        assert_eq!(out[0], SymDim::batch_times(2));
        // instance-norm anchor: [B, 48, 7] - [B, 1, 7]
        let a = vec![SymDim::batch(), SymDim::fixed(48), SymDim::fixed(7)];
        let b = vec![SymDim::batch(), SymDim::fixed(1), SymDim::fixed(7)];
        assert_eq!(broadcast_join(&a, &b).unwrap(), a);
        // mismatched fixed axes fail
        assert!(broadcast_join(&fixed_shape(&[3, 4]), &fixed_shape(&[3, 5])).is_err());
    }

    #[test]
    fn matmul_symbolic_logits() {
        // [B, L] × [L, B] -> [B, B], k = L
        let (out, k) = matmul_rule(
            &[SymDim::batch(), SymDim::fixed(24)],
            &[SymDim::fixed(24), SymDim::batch()],
        )
        .unwrap();
        assert_eq!(out, vec![SymDim::batch(), SymDim::batch()]);
        assert_eq!(k, SymDim::fixed(24));
        assert!(matmul_rule(&fixed_shape(&[2, 3]), &fixed_shape(&[4, 5])).is_err());
    }

    #[test]
    fn reshape_checks_polynomial_numel() {
        // [B, 24, 2] -> [2B, 4, 6] is valid for EVERY batch size
        let ok = reshape_rule(
            &[SymDim::batch(), SymDim::fixed(24), SymDim::fixed(2)],
            &[SymDim::batch_times(2), SymDim::fixed(4), SymDim::fixed(6)],
        );
        assert!(ok.is_ok());
        // [B, 24] -> [24, B] fine; [B, 24] -> [B, 23] not
        assert!(reshape_rule(
            &[SymDim::batch(), SymDim::fixed(24)],
            &[SymDim::batch(), SymDim::fixed(23)]
        )
        .is_err());
    }

    #[test]
    fn slice_requires_fixed_axis() {
        let s = vec![SymDim::batch(), SymDim::fixed(24), SymDim::fixed(2)];
        assert_eq!(
            slice_rule(&s, 1, 23, 24).unwrap()[1],
            SymDim::fixed(1)
        );
        assert!(slice_rule(&s, 0, 0, 1).is_err(), "batch axis is not sliceable");
        assert!(slice_rule(&s, 1, 20, 30).is_err(), "out of bounds");
    }

    #[test]
    fn concat_sums_target_axis() {
        let a = vec![SymDim::batch(), SymDim::fixed(24), SymDim::fixed(9)];
        let b = vec![SymDim::batch(), SymDim::fixed(24), SymDim::fixed(1)];
        let out = concat_rule(&[a, b], 2).unwrap();
        assert_eq!(out[2], SymDim::fixed(10));
    }

    #[test]
    fn gather_count_is_symbolic() {
        let out = gather_rows_rule(&fixed_shape(&[7, 3]), SymDim::batch_times(24)).unwrap();
        assert_eq!(out, vec![SymDim::batch_times(24), SymDim::fixed(3)]);
    }

    #[test]
    fn mac_table_matches_graph_accounting() {
        let s = vec![SymDim::batch(), SymDim::fixed(10)];
        assert_eq!(mac_cost("Add", &s, None).eval(3), 30);
        assert_eq!(mac_cost("Gelu", &s, None).eval(3), 240);
        assert_eq!(
            mac_cost("MatMul", &s, Some(SymDim::fixed(5))).eval(3),
            150
        );
        assert!(mac_cost("Permute", &s, None).is_zero());
        assert!(mac_cost("SmoothL1", &[], None).is_zero());
        assert_eq!(cross_entropy_mac(&[SymDim::batch(), SymDim::batch()]).eval(4), 80);
    }
}
