//! Compile a [`ForwardPlan`] into an executable inference schedule: dead-code
//! elimination from the prediction node, storage classification (parameter /
//! owned slot / pure view), liveness over the tape order, and a greedy
//! physical-slot assignment whose sizes stay *symbolic* in the batch size —
//! one schedule serves every `B`, with offsets evaluated at bind time by
//! `lip-exec`.
//!
//! Liveness rules:
//!
//! * A node that merely re-views its input (`Permute`, `SliceAxis`, and a
//!   stride-compatible `Reshape`) owns no storage; reading *it* keeps its
//!   transitive slot-owning roots (`bases`) alive instead.
//! * `Reshape` is a hybrid: whether it can be a view depends on the input's
//!   runtime strides, which differ per `B` only in extent, not in kind —
//!   but the decision is made at bind time, so scheduling reserves a slot
//!   *and* treats the input as aliased, keeping both alive (conservative,
//!   correct for either outcome).
//! * A slot is free after the last step whose input bases include it; the
//!   prediction's bases are never freed.
//! * A step's output slot is allocated *before* the slots dying at that step
//!   are released, so an output can never alias an operand read by the same
//!   step — the executor relies on this for its disjoint split-borrow.
//!
//! Every kept plan node is one [`Step`]: the executor runs one kernel pass
//! per node, so each step's value is a plan value a checker can name. A
//! step holds only what scheduling decides (storage and frees); its op,
//! shape, inputs and attribute are read from its plan node. Which ops can
//! run is the executor's call: it refuses the rest when it lowers them.

use crate::plan::{ForwardPlan, PlanError};
use crate::sym::{affine_numel, SymDim};

/// How a scheduled node's value is stored at run time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// Entry `i` of the arena's parameter segment (never freed, never pooled).
    Param(usize),
    /// Owns physical slot `id` in the reuse pool.
    Slot(usize),
    /// Pure view of its input: no storage of its own.
    View,
    /// `Reshape`: becomes a view when the input's strides admit the target
    /// shape at bind time, otherwise materializes into reserved slot `id`.
    ViewOrSlot(usize),
}

/// One executable step: one kept plan node (plan-tape order, dead nodes
/// removed).
#[derive(Debug, Clone)]
pub struct Step {
    /// Index of this node in the plan tape, which holds its op, shape,
    /// inputs and attribute.
    pub node: usize,
    /// Where the step's value lives in the arena.
    pub storage: Storage,
    /// Physical slots whose last use is this step — dead (poisonable) as
    /// soon as the step's output is written.
    pub dies_after: Vec<usize>,
}

/// A liveness-scheduled inference program over symbolic shapes.
#[derive(Debug)]
pub struct InferenceSchedule {
    /// Emitted steps, in execution order.
    pub steps: Vec<Step>,
    /// Candidate symbolic element counts per physical slot: its extent at
    /// batch `b` is the max of `eval(b)` over the candidates (each owner the
    /// slot is reused for contributes one).
    pub slot_sizes: Vec<Vec<SymDim>>,
    /// Plan-tape index of the prediction output.
    pub pred: usize,
    /// Number of parameter-segment entries, in step order.
    pub params: usize,
}

impl InferenceSchedule {
    /// Schedule `plan` for tapeless execution: one step per kept node.
    pub fn build(plan: &ForwardPlan) -> Result<InferenceSchedule, PlanError> {
        let nodes = plan.tape.nodes();
        let n = nodes.len();
        let pred = plan.pred.0;
        let err = |msg: String| PlanError::new("schedule", msg);

        // 1. Dead-code elimination: keep exactly what pred transitively
        // needs (drops the loss head: the target leaf and SmoothL1).
        let mut keep = vec![false; n];
        let mut stack = vec![pred];
        while let Some(i) = stack.pop() {
            if keep[i] {
                continue;
            }
            keep[i] = true;
            for inp in &nodes[i].inputs {
                stack.push(inp.0);
            }
        }

        // 2. Storage classes and alias bases (transitive slot-owning roots).
        let mut params = 0usize;
        let mut storage: Vec<Option<Storage>> = vec![None; n];
        let mut owns_slot = vec![false; n];
        let mut bases: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            if !keep[i] {
                continue;
            }
            let node = &nodes[i];
            let input0 = || node.inputs[0].0;
            match node.op {
                "Param" => {
                    storage[i] = Some(Storage::Param(params));
                    params += 1;
                    // params live in their own segment: no base, never freed
                }
                "Permute" | "SliceAxis" => {
                    storage[i] = Some(Storage::View);
                    bases[i] = bases[input0()].clone();
                }
                "Reshape" => {
                    owns_slot[i] = true;
                    let mut b = bases[input0()].clone();
                    b.push(i);
                    bases[i] = b;
                }
                _ => {
                    // Leaf and every compute op own dense storage
                    owns_slot[i] = true;
                    bases[i] = vec![i];
                }
            }
        }

        // 3. Last use per slot owner, in tape order (creation counts too, so
        // a slot never dies before its own step completes).
        const LIVE_FOREVER: usize = usize::MAX;
        let mut last_use = vec![0usize; n];
        for i in 0..n {
            if !keep[i] {
                continue;
            }
            for &b in &bases[i] {
                last_use[b] = i;
            }
            for inp in &nodes[i].inputs {
                for &b in &bases[inp.0] {
                    last_use[b] = i;
                }
            }
        }
        for &b in &bases[pred] {
            last_use[b] = LIVE_FOREVER;
        }
        let mut dies_at: Vec<Vec<usize>> = vec![Vec::new(); n];
        for owner in 0..n {
            if keep[owner] && owns_slot[owner] && last_use[owner] != LIVE_FOREVER {
                dies_at[last_use[owner]].push(owner);
            }
        }

        // 4. Greedy LIFO physical-slot assignment + step emission.
        let mut free: Vec<usize> = Vec::new();
        let mut slot_sizes: Vec<Vec<SymDim>> = Vec::new();
        let mut phys: Vec<Option<usize>> = vec![None; n];
        let mut steps = Vec::new();
        for i in 0..n {
            if !keep[i] {
                continue;
            }
            let node = &nodes[i];
            // allocate the output slot BEFORE releasing anything dying here
            let st = if owns_slot[i] {
                let size = affine_numel(&node.shape).ok_or_else(|| {
                    err(format!(
                        "node {i} ({}) has a non-affine element count; cannot size its slot",
                        node.op
                    ))
                })?;
                let id = free.pop().unwrap_or_else(|| {
                    slot_sizes.push(Vec::new());
                    slot_sizes.len() - 1
                });
                slot_sizes[id].push(size);
                phys[i] = Some(id);
                if node.op == "Reshape" {
                    Storage::ViewOrSlot(id)
                } else {
                    Storage::Slot(id)
                }
            } else {
                storage[i].ok_or_else(|| {
                    err(format!("kept node {i} ({}) has no storage class", node.op))
                })?
            };
            let mut dies_after = Vec::new();
            for &owner in &dies_at[i] {
                let id = phys[owner].ok_or_else(|| {
                    err(format!("node {owner} dies at node {i} but was never assigned a slot"))
                })?;
                free.push(id);
                dies_after.push(id);
            }
            steps.push(Step {
                node: i,
                storage: st,
                dies_after,
            });
        }

        Ok(InferenceSchedule {
            steps,
            slot_sizes,
            pred,
            params,
        })
    }

    /// Total arena elements of the slot pool at batch `b` (excludes the
    /// parameter segment and any executor scratch).
    pub fn slot_elems(&self, b: usize) -> usize {
        self.slot_sizes
            .iter()
            .map(|cands| cands.iter().map(|d| d.eval(b)).max().unwrap_or(0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_forward_loss;
    use lipformer::{LiPFormer, LiPFormerConfig};
    use lip_data::CovariateSpec;

    fn implicit_spec() -> CovariateSpec {
        CovariateSpec {
            numerical: 0,
            cardinalities: vec![],
            time_features: 4,
        }
    }

    #[test]
    fn schedule_drops_loss_head_and_reuses_slots() {
        let config = LiPFormerConfig::small(48, 24, 3);
        let model = LiPFormer::new(config, &implicit_spec(), 0);
        let plan = plan_forward_loss(&model, &implicit_spec(), false).unwrap();
        let sched = InferenceSchedule::build(&plan).unwrap();
        // the loss head (target leaf + SmoothL1) is dead code for inference;
        // every other node is one step
        let nodes = plan.tape.nodes();
        assert!(sched.steps.iter().all(|s| nodes[s.node].op != "SmoothL1"));
        assert_eq!(sched.steps.len(), plan.tape.len() - 2);
        // liveness must enable reuse: fewer physical slots than slot owners
        let owners = sched
            .steps
            .iter()
            .filter(|s| matches!(s.storage, Storage::Slot(_) | Storage::ViewOrSlot(_)))
            .count();
        assert!(
            sched.slot_sizes.len() < owners,
            "no buffer reuse: {} slots for {owners} owners",
            sched.slot_sizes.len()
        );
        // and the arena must stay affine: slot pool grows linearly in B
        let s1 = sched.slot_elems(1);
        let s3 = sched.slot_elems(3);
        let s5 = sched.slot_elems(5);
        assert!(s1 > 0);
        assert_eq!(s3 - s1, s5 - s3, "slot pool must be affine in B");
    }

    #[test]
    fn pred_slots_never_die() {
        let config = LiPFormerConfig::small(48, 24, 2);
        let model = LiPFormer::new(config, &implicit_spec(), 0);
        let plan = plan_forward_loss(&model, &implicit_spec(), false).unwrap();
        let sched = InferenceSchedule::build(&plan).unwrap();
        let pred_pos = sched
            .steps
            .iter()
            .position(|s| s.node == sched.pred)
            .expect("pred scheduled");
        let pred_slot = match sched.steps[pred_pos].storage {
            Storage::Slot(id) => id,
            other => panic!("pred should own a slot, got {other:?}"),
        };
        // the physical id may have been pooled earlier, but once pred claims
        // it, it must never be released again
        for s in &sched.steps[pred_pos..] {
            assert!(
                !s.dies_after.contains(&pred_slot),
                "pred's slot freed at node {}",
                s.node
            );
        }
    }
}
