//! Seeded-mutation tests for the static schedule verifier: take a real,
//! verified-clean `InferenceSchedule`, corrupt exactly one invariant, and
//! require the verifier to (a) notice and (b) classify the violation under
//! the intended checker class. This is the verifier's own regression
//! harness — a checker that silently stops firing fails here, not in
//! production.

use std::ops::Range;

use lip_analyze::plan::plan_forward_loss;
use lip_analyze::verify::{
    audit_kernel_source, check_chunk_ranges, verify_schedule, CheckClass, VerifyFinding,
};
use lip_analyze::{InferenceSchedule, Storage, SymDim};
use lip_data::CovariateSpec;
use lipformer::{LiPFormer, LiPFormerConfig};

fn implicit_spec() -> CovariateSpec {
    CovariateSpec {
        numerical: 0,
        cardinalities: vec![],
        time_features: 4,
    }
}

/// A clean plan + schedule pair the mutations start from.
fn clean_pair() -> (lip_analyze::ForwardPlan, InferenceSchedule) {
    let config = LiPFormerConfig::small(48, 24, 3);
    let model = LiPFormer::new(config, &implicit_spec(), 0);
    let plan = plan_forward_loss(&model, &implicit_spec(), false).unwrap();
    let sched = InferenceSchedule::build(&plan).unwrap();
    assert!(
        verify_schedule(&plan, &sched).is_empty(),
        "baseline schedule must verify clean before mutation"
    );
    (plan, sched)
}

fn has_class(findings: &[VerifyFinding], class: CheckClass) -> bool {
    findings.iter().any(|f| f.class == class)
}

fn classes(findings: &[VerifyFinding]) -> Vec<CheckClass> {
    findings.iter().map(|f| f.class).collect()
}

/// Mutation: shrink every size candidate of a pooled slot to zero. The
/// write-span check must prove the output no longer fits for all B ≥ 1.
#[test]
fn shrunk_slot_is_an_arena_bounds_finding() {
    let (plan, mut sched) = clean_pair();
    let victim = sched
        .steps
        .iter()
        .find_map(|s| match s.storage {
            Storage::Slot(id) => Some(id),
            _ => None,
        })
        .expect("schedule has at least one pooled slot");
    sched.slot_sizes[victim] = vec![SymDim { per_batch: 0, fixed: 0 }];
    let findings = verify_schedule(&plan, &sched);
    assert!(
        has_class(&findings, CheckClass::ArenaBounds),
        "shrunk slot {victim} must be an arena-bounds finding, got {:?}",
        classes(&findings)
    );
}

/// Mutation: trade one unit of a slot's per-batch slope for one fixed
/// element. The slot still fits at `B = 1` — the batch size a dynamic
/// smoke test would use — but underflows at every `B ≥ 2`. The for-all-B
/// domination rule must object even though a concrete check would pass.
#[test]
fn slot_that_only_fits_b1_is_an_arena_bounds_finding() {
    let (plan, mut sched) = clean_pair();
    let victim = sched
        .slot_sizes
        .iter()
        .position(|cands| cands.iter().any(|c| c.per_batch >= 1 && c.fixed == 0))
        .expect("some slot holds a batch-scaled value");
    let per_batch = sched.slot_sizes[victim]
        .iter()
        .find(|c| c.per_batch >= 1 && c.fixed == 0)
        .unwrap()
        .per_batch;
    // (p-1)*B + 1 == p*B at B = 1, but < p*B for every B >= 2
    sched.slot_sizes[victim] = vec![SymDim { per_batch: per_batch - 1, fixed: 1 }];
    let findings = verify_schedule(&plan, &sched);
    assert!(
        has_class(&findings, CheckClass::ArenaBounds),
        "slot {victim} fits only at B = 1; must be an arena-bounds finding, got {:?}",
        classes(&findings)
    );
}

/// Mutation: hoist a `dies_after` entry one step earlier than the
/// scheduler placed it. Freeing before last use is a liveness violation —
/// either the free site disagrees with actual liveness or a later step
/// reads a freed slot.
#[test]
fn premature_dies_after_is_a_liveness_finding() {
    let (plan, mut sched) = clean_pair();
    let k = sched
        .steps
        .iter()
        .position(|s| !s.dies_after.is_empty())
        .expect("schedule frees at least one slot");
    assert!(k > 0, "first free cannot be the first step");
    let slot = sched.steps[k].dies_after.remove(0);
    sched.steps[k - 1].dies_after.push(slot);
    let findings = verify_schedule(&plan, &sched);
    assert!(
        has_class(&findings, CheckClass::Liveness),
        "hoisted free of slot {slot} must be a liveness finding, got {:?}",
        classes(&findings)
    );
}

/// Mutation: drop a `dies_after` entirely. The slot leaks — still live at
/// the end of the schedule without pred reading it.
#[test]
fn dropped_dies_after_is_a_liveness_finding() {
    let (plan, mut sched) = clean_pair();
    let k = sched
        .steps
        .iter()
        .position(|s| !s.dies_after.is_empty())
        .expect("schedule frees at least one slot");
    let slot = sched.steps[k].dies_after.remove(0);
    let findings = verify_schedule(&plan, &sched);
    assert!(
        has_class(&findings, CheckClass::Liveness),
        "leaked slot {slot} must be a liveness finding, got {:?}",
        classes(&findings)
    );
}

/// Mutation: swap a producer behind its consumer. The consumer now reads a
/// node no prior step has defined — def-before-use.
#[test]
fn reordered_steps_are_a_def_before_use_finding() {
    let (plan, mut sched) = clean_pair();
    // find a consumer step j whose input (read through its plan node) is
    // produced by a pooled step i < j
    let mut swap = None;
    'outer: for j in 0..sched.steps.len() {
        for inp in &plan.tape.nodes()[sched.steps[j].node].inputs {
            if let Some(i) = sched.steps[..j].iter().position(|s| {
                s.node == inp.0 && matches!(s.storage, Storage::Slot(_))
            }) {
                swap = Some((i, j));
                break 'outer;
            }
        }
    }
    let (i, j) = swap.expect("some step consumes a pooled producer");
    sched.steps.swap(i, j);
    let findings = verify_schedule(&plan, &sched);
    assert!(
        has_class(&findings, CheckClass::DefBeforeUse),
        "swapping steps {i} and {j} must be a def-before-use finding, got {:?}",
        classes(&findings)
    );
}

/// Mutation: overlapping / gapped / short partitions. Each malformed range
/// set is a partition-disjointness finding, and a correct set is not.
#[test]
fn corrupted_partitions_are_partition_disjoint_findings() {
    let good: Vec<Range<usize>> = vec![0..10, 10..20, 20..25];
    assert!(check_chunk_ranges(25, &good).is_empty());

    let overlapping: Vec<Range<usize>> = vec![0..12, 10..20, 20..25];
    let gapped: Vec<Range<usize>> = vec![0..10, 12..20, 20..25];
    let short: Vec<Range<usize>> = vec![0..10, 10..20];
    for (label, bad) in [("overlap", overlapping), ("gap", gapped), ("short", short)] {
        let findings = check_chunk_ranges(25, &bad);
        assert!(
            !findings.is_empty() && findings.iter().all(|f| f.class == CheckClass::PartitionDisjoint),
            "{label}: expected only partition-disjoint findings, got {:?}",
            classes(&findings)
        );
    }
}

/// Mutation: plant forbidden constructs in audited kernel source. Each
/// escape hatch is a kernel-audit finding; clean chunked code is not.
#[test]
fn planted_kernel_escapes_are_kernel_audit_findings() {
    let clean = "pub fn relu(xs: &mut [f32]) {\n    par_chunks_mut(xs, |c| c.iter_mut().for_each(|x| *x = x.max(0.0)));\n}\n";
    let (sites, findings) = audit_kernel_source("clean.rs", clean);
    assert_eq!(sites, 1);
    assert!(findings.is_empty(), "clean kernel must audit clean: {:?}", classes(&findings));

    for (label, planted) in [
        ("unsafe", "fn f(xs: &mut [f32]) { unsafe { xs.get_unchecked_mut(0); } }\n"),
        ("raw thread", "fn f() { std::thread::spawn(|| {}); }\n"),
        ("pool bypass", "fn f(xs: &mut [f32]) { for_each_chunk(xs, |_| {}); }\n"),
    ] {
        let (_, findings) = audit_kernel_source("planted.rs", planted);
        assert!(
            !findings.is_empty() && findings.iter().all(|f| f.class == CheckClass::KernelAudit),
            "{label}: expected only kernel-audit findings, got {:?}",
            classes(&findings)
        );
    }
}
