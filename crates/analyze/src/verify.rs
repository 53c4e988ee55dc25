//! Static plan verification: prove the arena executor's safety invariants
//! from the [`InferenceSchedule`] alone — symbolically in the batch size
//! `B`, for **all** `B ≥ 1`, before a single float is computed.
//!
//! The compiled executor (`lip-exec`) trusts three scheduler claims and one
//! thread-pool claim. Each is re-proved here *independently* of the code
//! that produced it (the checkers re-derive dataflow and liveness from the
//! [`ForwardPlan`] rather than reading the scheduler's internal state):
//!
//! 1. **Def-before-use** ([`CheckClass::DefBeforeUse`]): every slot a step
//!    reads — resolved through view chains to its physical owners — is
//!    dominated by a write in schedule order. A step names its plan node,
//!    and its op, inputs and shape are read from that node, so the
//!    schedule's dataflow is the plan's by construction.
//! 2. **Liveness / aliasing soundness** ([`CheckClass::Liveness`]): the
//!    greedy LIFO slot pool never hands a physical slot to a new value
//!    while a prior value in it is still live; `dies_after` frees a slot
//!    exactly at its last use (premature frees surface as use-after-free,
//!    late or missing frees as leak findings); no step frees its own
//!    output. These properties are structural — independent of `B` — so
//!    one pass proves them for every batch size.
//! 3. **Arena bounds** ([`CheckClass::ArenaBounds`]): every step's write
//!    span fits its slot's symbolic extent for all `B ≥ 1` (affine
//!    domination, decidable: `p·B + f ≥ p'·B + f'` for all `B ≥ 1` iff
//!    `p ≥ p'` and `p + f ≥ p' + f'`), no step's write slot appears
//!    among its read slots — concurrent read/write overlap is flagged
//!    (there is no sanctioned in-place case in the current executor) —
//!    and parameters take the parameter segment's entries in step order,
//!    the order `lip-exec` packs them in.
//! 4. **Partition disjointness** ([`CheckClass::PartitionDisjoint`],
//!    [`CheckClass::KernelAudit`]): a static race detector over `lip-par`'s
//!    pure chunking. [`verify_partition_symbolic`] proves, via a small
//!    multivariate-polynomial certificate over non-negative symbols, that
//!    the window formula `i·c .. min((i+1)·c, n)` yields pairwise-disjoint
//!    ranges covering `0..n` exactly for **every** length `n` and chunk
//!    size `c ≥ 1`; [`verify_partition_bounded`] ties the formula to the
//!    real [`lip_par::Partition`] by exhaustive equivalence over a bounded
//!    domain; and [`audit_kernel_source`] checks that tensor kernels route
//!    all parallel mutation through the disjoint-window API and never look
//!    up the core count.
//!
//! [`verify_schedule`] is the entry point for checks 1–3; `lip-exec` runs
//! it during compilation and `lip-analyze --verify-plan` sweeps it across
//! the nine benchmarks × architecture variants × covariate policies. The
//! seeded-mutation tests (`tests/verify_mutations.rs`)
//! corrupt schedules one invariant at a time and assert the intended
//! checker class fires — the verifier is not vacuously green.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use crate::plan::ForwardPlan;
use crate::schedule::{InferenceSchedule, Step, Storage};
use crate::sym::{affine_numel, shape_to_string, SymDim};

/// Which safety invariant a finding violates. Mutation tests key on this:
/// each seeded corruption must be reported under its intended class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckClass {
    /// A read not dominated by a write, or schedule/plan dataflow mismatch.
    DefBeforeUse,
    /// Slot pool unsoundness: use-after-free, double free, reuse while
    /// live, free-at-wrong-step, or a leaked (never freed, non-pred) slot.
    Liveness,
    /// A write span that does not fit its slot for every `B ≥ 1`, or a
    /// read/write span overlap within one step.
    ArenaBounds,
    /// Chunk ranges that overlap, leave gaps, or miss the exact cover.
    PartitionDisjoint,
    /// A tensor kernel source mutating outside the disjoint-chunk API.
    KernelAudit,
}

impl fmt::Display for CheckClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheckClass::DefBeforeUse => "def-before-use",
            CheckClass::Liveness => "liveness",
            CheckClass::ArenaBounds => "arena-bounds",
            CheckClass::PartitionDisjoint => "partition-disjoint",
            CheckClass::KernelAudit => "kernel-audit",
        };
        write!(f, "{s}")
    }
}

/// One verification failure: the violated invariant class and a message
/// naming the exact step/slot/range involved.
#[derive(Debug, Clone)]
pub struct VerifyFinding {
    /// The checker class that caught it.
    pub class: CheckClass,
    /// What exactly is unsound.
    pub message: String,
}

impl fmt::Display for VerifyFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.class, self.message)
    }
}

fn finding(class: CheckClass, message: String) -> VerifyFinding {
    VerifyFinding { class, message }
}

/// `a(B) ≥ b(B)` for every `B ≥ 1`. Both dims are affine with non-negative
/// coefficients, so the difference is monotone in `B`: it suffices that the
/// slope does not decrease and the value at `B = 1` does not.
pub fn dim_dominates(a: SymDim, b: SymDim) -> bool {
    a.per_batch >= b.per_batch && a.per_batch + a.fixed >= b.per_batch + b.fixed
}

/// Per-slot ownership generation tracked by the schedule walk.
#[derive(Clone, Copy)]
struct SlotGen {
    owner: usize,
    last_touch: usize,
}

/// Prove checks 1–3 (def-before-use, liveness/aliasing, arena bounds) for
/// `sched` against the `plan` it was built from.
/// Returns every violation found; an empty vector is a proof that the
/// schedule is safe to execute at **any** batch size `B ≥ 1`.
pub fn verify_schedule(plan: &ForwardPlan, sched: &InferenceSchedule) -> Vec<VerifyFinding> {
    let mut findings = Vec::new();
    let nodes = plan.tape.nodes();
    let n = nodes.len();
    let pred = sched.pred;
    if pred >= n {
        findings.push(finding(
            CheckClass::DefBeforeUse,
            format!("pred node {pred} is not on the plan tape ({n} nodes)"),
        ));
        return findings;
    }

    let n_slots = sched.slot_sizes.len();
    // Walk state: which node's value currently lives in each physical slot,
    // whether the slot was ever written, and per-node read footprints
    // resolved to (physical slot, expected owner node) pairs.
    let mut live: Vec<Option<SlotGen>> = vec![None; n_slots];
    let mut ever_written = vec![false; n_slots];
    let mut node_bases: Vec<Option<Vec<(usize, usize)>>> = vec![None; n];
    let mut params_seen = 0usize;

    for (k, step) in sched.steps.iter().enumerate() {
        let Some(node) = nodes.get(step.node) else {
            findings.push(finding(
                CheckClass::DefBeforeUse,
                format!("step {k} (node {}): node index beyond the plan tape", step.node),
            ));
            continue;
        };
        let here = format!("step {k} (node {}, {})", step.node, node.op);
        let inputs: Vec<usize> = node.inputs.iter().map(|v| v.0).collect();

        // -- reads: every base slot written, live, and owned as expected --
        let mut read_slots: Vec<usize> = Vec::new();
        for &inp in &inputs {
            let Some(bases) = node_bases[inp].as_ref() else {
                findings.push(finding(
                    CheckClass::DefBeforeUse,
                    format!("{here}: reads node {inp} before any step defines it"),
                ));
                continue;
            };
            for &(slot, owner) in bases {
                read_slots.push(slot);
                match live[slot] {
                    None if !ever_written[slot] => findings.push(finding(
                        CheckClass::DefBeforeUse,
                        format!("{here}: reads slot {slot} (node {inp}) before any write"),
                    )),
                    None => findings.push(finding(
                        CheckClass::Liveness,
                        format!(
                            "{here}: reads slot {slot} (node {inp}) after it was freed — \
                             premature dies_after upstream"
                        ),
                    )),
                    Some(gen) if gen.owner != owner => findings.push(finding(
                        CheckClass::Liveness,
                        format!(
                            "{here}: reads node {inp} out of slot {slot}, but the slot was \
                             reused by node {} while node {owner}'s value was still needed",
                            gen.owner
                        ),
                    )),
                    Some(_) => {
                        if let Some(gen) = live[slot].as_mut() {
                            gen.last_touch = k;
                        }
                    }
                }
            }
        }

        // -- write: allocate/own the output slot, check symbolic bounds ---
        let own_slot = match step.storage {
            Storage::Slot(id) | Storage::ViewOrSlot(id) => Some(id),
            Storage::Param(p) => {
                if p != params_seen {
                    findings.push(finding(
                        CheckClass::ArenaBounds,
                        format!("{here}: parameter segment entry {p} out of order (expected {params_seen})"),
                    ));
                }
                params_seen += 1;
                None
            }
            Storage::View => None,
        };
        if let Some(id) = own_slot {
            if id >= n_slots {
                findings.push(finding(
                    CheckClass::ArenaBounds,
                    format!("{here}: writes slot {id} but the pool has only {n_slots} slots"),
                ));
            } else {
                // read/write overlap within the step: never sanctioned
                if read_slots.contains(&id) {
                    findings.push(finding(
                        CheckClass::ArenaBounds,
                        format!(
                            "{here}: slot {id} appears in both the read set and the write \
                             span of one step (unsanctioned in-place)"
                        ),
                    ));
                }
                match affine_numel(&node.shape) {
                    None => findings.push(finding(
                        CheckClass::ArenaBounds,
                        format!(
                            "{here}: output shape {} has a non-affine element count; its \
                             span cannot be bounded in B",
                            shape_to_string(&node.shape)
                        ),
                    )),
                    Some(numel) => {
                        let fits = sched.slot_sizes[id]
                            .iter()
                            .any(|&cand| dim_dominates(cand, numel));
                        if !fits {
                            findings.push(finding(
                                CheckClass::ArenaBounds,
                                format!(
                                    "{here}: write span of {numel} elements does not fit \
                                     slot {id} (candidates {:?}) for all B >= 1",
                                    sched.slot_sizes[id]
                                        .iter()
                                        .map(SymDim::to_string)
                                        .collect::<Vec<_>>()
                                ),
                            ));
                        }
                    }
                }
                if let Some(gen) = live[id] {
                    findings.push(finding(
                        CheckClass::Liveness,
                        format!(
                            "{here}: pool hands slot {id} to node {} while node {}'s value \
                             is still live in it",
                            step.node, gen.owner
                        ),
                    ));
                }
                live[id] = Some(SlotGen { owner: step.node, last_touch: k });
                ever_written[id] = true;
            }
        }

        // -- record this node's read footprint for downstream steps -------
        let bases = resolve_bases(step, inputs.first(), &node_bases, &mut findings, &here);
        node_bases[step.node] = Some(bases);

        // -- frees: dies_after must free exactly at last use --------------
        for &d in &step.dies_after {
            if d >= n_slots {
                findings.push(finding(
                    CheckClass::Liveness,
                    format!("{here}: frees slot {d} but the pool has only {n_slots} slots"),
                ));
                continue;
            }
            if Some(d) == own_slot {
                findings.push(finding(
                    CheckClass::Liveness,
                    format!("{here}: frees its own output slot {d}"),
                ));
            }
            match live[d] {
                None => findings.push(finding(
                    CheckClass::Liveness,
                    format!("{here}: frees slot {d} which holds no live value (double free?)"),
                )),
                Some(gen) => {
                    if gen.last_touch != k {
                        findings.push(finding(
                            CheckClass::Liveness,
                            format!(
                                "{here}: frees slot {d} (node {}) but its last use was \
                                 step {} — dies_after disagrees with actual liveness",
                                gen.owner, gen.last_touch
                            ),
                        ));
                    }
                    live[d] = None;
                }
            }
        }
    }

    // -- terminal state: pred's bases live, everything else freed ---------
    match node_bases.get(pred).and_then(|b| b.as_ref()) {
        None => findings.push(finding(
            CheckClass::DefBeforeUse,
            format!("pred node {pred} was never scheduled"),
        )),
        Some(pred_bases) => {
            for &(slot, owner) in pred_bases {
                match live.get(slot).copied().flatten() {
                    None => findings.push(finding(
                        CheckClass::Liveness,
                        format!("pred's slot {slot} (node {owner}) was freed before the end"),
                    )),
                    Some(gen) if gen.owner != owner => findings.push(finding(
                        CheckClass::Liveness,
                        format!(
                            "pred's slot {slot} was reused by node {} after node {owner} wrote it",
                            gen.owner
                        ),
                    )),
                    Some(_) => {}
                }
            }
            for (slot, gen) in live.iter().enumerate() {
                if let Some(gen) = gen {
                    if !pred_bases.iter().any(|&(s, _)| s == slot) {
                        findings.push(finding(
                            CheckClass::Liveness,
                            format!(
                                "slot {slot} (node {}) is still live at the end of the \
                                 schedule but pred does not read it — missing dies_after",
                                gen.owner
                            ),
                        ));
                    }
                }
            }
        }
    }
    findings
}

/// Resolve a step's value to the physical `(slot, owner-node)` pairs a
/// reader of it will touch — re-deriving the scheduler's alias bases from
/// storage classes alone. `input0` is the step's first plan input.
fn resolve_bases(
    step: &Step,
    input0: Option<&usize>,
    node_bases: &[Option<Vec<(usize, usize)>>],
    findings: &mut Vec<VerifyFinding>,
    here: &str,
) -> Vec<(usize, usize)> {
    let mut input0 = || {
        input0.and_then(|&i| node_bases.get(i)).and_then(|b| b.clone()).unwrap_or_else(
            || {
                findings.push(finding(
                    CheckClass::DefBeforeUse,
                    format!("{here}: view has no resolvable input bases"),
                ));
                Vec::new()
            },
        )
    };
    match step.storage {
        Storage::Param(_) => Vec::new(), // parameter segment: always live
        Storage::Slot(id) => vec![(id, step.node)],
        Storage::View => input0(),
        Storage::ViewOrSlot(id) => {
            // bind time decides view vs materialize; both must stay live
            let mut b = input0();
            b.push((id, step.node));
            b
        }
    }
}

// ---------------------------------------------------------------------------
// Check 4: partition disjointness — the static race detector for lip-par.
// ---------------------------------------------------------------------------

/// Check that `ranges` — in chunk order — are non-empty, pairwise disjoint,
/// and cover `0..len` exactly. This is the judgement both the bounded sweep
/// and the seeded-mutation tests feed; overlaps and gaps get distinct
/// messages so a corrupted partition names its exact defect.
pub fn check_chunk_ranges(len: usize, ranges: &[Range<usize>]) -> Vec<VerifyFinding> {
    let mut findings = Vec::new();
    if len == 0 {
        if !ranges.is_empty() {
            findings.push(finding(
                CheckClass::PartitionDisjoint,
                format!("{} chunk(s) produced for an empty input", ranges.len()),
            ));
        }
        return findings;
    }
    if ranges.is_empty() {
        findings.push(finding(
            CheckClass::PartitionDisjoint,
            format!("no chunks cover 0..{len}"),
        ));
        return findings;
    }
    if ranges[0].start != 0 {
        findings.push(finding(
            CheckClass::PartitionDisjoint,
            format!("first chunk starts at {} instead of 0", ranges[0].start),
        ));
    }
    for (i, r) in ranges.iter().enumerate() {
        if r.start >= r.end {
            findings.push(finding(
                CheckClass::PartitionDisjoint,
                format!("chunk {i} is empty or inverted ({}..{})", r.start, r.end),
            ));
        }
        if let Some(next) = ranges.get(i + 1) {
            if r.end > next.start {
                findings.push(finding(
                    CheckClass::PartitionDisjoint,
                    format!(
                        "chunks {i} and {} overlap: {}..{} vs {}..{}",
                        i + 1,
                        r.start,
                        r.end,
                        next.start,
                        next.end
                    ),
                ));
            } else if r.end < next.start {
                findings.push(finding(
                    CheckClass::PartitionDisjoint,
                    format!(
                        "gap between chunk {i} (ends {}) and chunk {} (starts {})",
                        r.end,
                        i + 1,
                        next.start
                    ),
                ));
            }
        }
    }
    let last = ranges.last().expect("non-empty").end;
    if last != len {
        findings.push(finding(
            CheckClass::PartitionDisjoint,
            format!("last chunk ends at {last}, not the input length {len}"),
        ));
    }
    findings
}

/// Exhaustively prove the **real** [`lip_par::Partition`] disjoint-exact on
/// the bounded domain `len ≤ max_len, chunk ≤ max_chunk`, and — linking the
/// running code to the symbolic certificate — that its ranges equal the
/// closed-form window formula `i·c .. min((i+1)·c, n)` the symbolic proof
/// covers for *unbounded* `n`.
pub fn verify_partition_bounded(max_len: usize, max_chunk: usize) -> Vec<VerifyFinding> {
    let mut findings = Vec::new();
    for chunk in 1..=max_chunk {
        for len in 0..=max_len {
            let part = lip_par::Partition::new(len, chunk);
            let ranges: Vec<Range<usize>> = part.ranges().collect();
            findings.extend(check_chunk_ranges(len, &ranges).into_iter().map(|f| {
                finding(f.class, format!("Partition(len={len}, chunk={chunk}): {}", f.message))
            }));
            for (i, r) in ranges.iter().enumerate() {
                let formula = (i * chunk)..((i + 1) * chunk).min(len);
                if *r != formula {
                    findings.push(finding(
                        CheckClass::PartitionDisjoint,
                        format!(
                            "Partition(len={len}, chunk={chunk}) chunk {i} is {}..{} but the \
                             verified window formula gives {}..{}",
                            r.start, r.end, formula.start, formula.end
                        ),
                    ));
                }
            }
        }
    }
    findings
}

/// A polynomial with integer coefficients over a fixed set of symbols that
/// range over the **non-negative** integers. If every coefficient is
/// non-negative, the polynomial is non-negative over the whole domain —
/// the sound (and here, complete enough) certificate the partition proof
/// uses.
#[derive(Clone, PartialEq, Eq)]
struct MPoly {
    /// exponent vector (one entry per symbol) → coefficient
    terms: BTreeMap<[u8; 4], i64>,
}

impl MPoly {
    fn zero() -> Self {
        MPoly { terms: BTreeMap::new() }
    }
    fn constant(c: i64) -> Self {
        let mut p = Self::zero();
        if c != 0 {
            p.terms.insert([0; 4], c);
        }
        p
    }
    fn sym(i: usize) -> Self {
        let mut e = [0u8; 4];
        e[i] = 1;
        let mut p = Self::zero();
        p.terms.insert(e, 1);
        p
    }
    fn add(&self, o: &MPoly) -> Self {
        let mut t = self.terms.clone();
        for (e, c) in &o.terms {
            let v = t.entry(*e).or_insert(0);
            *v += c;
            if *v == 0 {
                t.remove(e);
            }
        }
        MPoly { terms: t }
    }
    fn sub(&self, o: &MPoly) -> Self {
        self.add(&o.mul(&MPoly::constant(-1)))
    }
    fn mul(&self, o: &MPoly) -> Self {
        let mut t: BTreeMap<[u8; 4], i64> = BTreeMap::new();
        for (ea, ca) in &self.terms {
            for (eb, cb) in &o.terms {
                let mut e = *ea;
                for (x, y) in e.iter_mut().zip(eb) {
                    *x += y;
                }
                let v = t.entry(e).or_insert(0);
                *v += ca * cb;
                if *v == 0 {
                    t.remove(&e);
                }
            }
        }
        MPoly { terms: t }
    }
    /// Certificate: all coefficients ≥ 0 ⟹ the polynomial is ≥ 0 for every
    /// non-negative assignment of the symbols.
    fn is_nonneg(&self) -> bool {
        self.terms.values().all(|&c| c >= 0)
    }
    fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }
}

/// Prove — for **every** input length `n` and chunk size `c ≥ 1`, not a
/// sampled subset — that the window formula behind [`lip_par::Partition`]
/// (`range(i) = i·c .. min((i+1)·c, n)`, `m = ⌈n/c⌉` chunks) partitions
/// `0..n` into pairwise-disjoint, exactly-covering, non-empty windows.
///
/// The argument: with `start(0) = 0`, it suffices that
///
/// 1. `n − (m−1)·c ≥ 1` — every chunk, including the last, is non-empty
///    and every non-final chunk `i ≤ m−2` ends at `(i+1)·c ≤ n`, making
///    `end(i) = start(i+1)` (adjacency ⇒ no gaps, no overlaps);
/// 2. `m·c − n ≥ 0` — the final `min` clamps to `n`, so `end(m−1) = n`
///    (exact cover on the right).
///
/// Both are verified as polynomial-nonnegativity certificates over
/// non-negative symbols, in the two exhaustive cases of the division
/// `n = q·c + r`: `r = 0` (with `q ≥ 1`, i.e. `n > 0`) and `1 ≤ r ≤ c−1`.
/// Together with [`verify_partition_bounded`] (which proves the running
/// code equals this formula on a dense bounded domain) this is the static
/// race detector's core lemma: two `par_chunks_mut` windows can never
/// alias, at any `n` — including every slot extent any batch size `B`
/// produces.
pub fn verify_partition_symbolic() -> Vec<VerifyFinding> {
    let mut findings = Vec::new();
    let mut lemma = |name: &str, ok: bool| {
        if !ok {
            findings.push(finding(
                CheckClass::PartitionDisjoint,
                format!("symbolic partition proof failed: {name}"),
            ));
        }
    };

    // Symbols (all ranging over non-negative integers):
    //   0: c'  with c = c' + 1          (chunk size ≥ 1)
    //   1: q'  with q = q' + 1 (case A) / q = q' (case B, any q ≥ 0)
    //   2: r'  with r = r' + 1          (case B remainder ≥ 1)
    //   3: s   with c = r + 1 + s       (case B remainder ≤ c − 1)
    let one = MPoly::constant(1);

    // Case A: n = q·c with q ≥ 1 → m = q chunks.
    {
        let c = MPoly::sym(0).add(&one);
        let q = MPoly::sym(1).add(&one);
        let n = q.mul(&c);
        let m = q.clone();
        // L1: n − (m−1)·c − 1 ≥ 0   (here n − (m−1)·c = c ≥ 1)
        let l1 = n.sub(&m.sub(&one).mul(&c)).sub(&one);
        lemma("case r=0: n - (m-1)c >= 1", l1.is_nonneg());
        // L2: m·c − n ≥ 0           (here exactly 0)
        let l2 = m.mul(&c).sub(&n);
        lemma("case r=0: m·c - n >= 0", l2.is_nonneg());
        lemma("case r=0: m·c - n == 0 (exact division)", l2.is_zero());
    }

    // Case B: n = q·c + r with 1 ≤ r ≤ c−1, any q ≥ 0 → m = q + 1 chunks.
    {
        let r = MPoly::sym(2).add(&one);
        let c = r.add(&one).add(&MPoly::sym(3)); // c = r + 1 + s  ⇒  r ≤ c − 1
        let q = MPoly::sym(1);
        let n = q.mul(&c).add(&r);
        let m = q.add(&one);
        // L1: n − (m−1)·c − 1 = r − 1 ≥ 0
        let l1 = n.sub(&m.sub(&one).mul(&c)).sub(&one);
        lemma("case r>0: n - (m-1)c >= 1", l1.is_nonneg());
        // L2: m·c − n = c − r ≥ 0 (in fact ≥ 1: the min clamps strictly)
        let l2 = m.mul(&c).sub(&n);
        lemma("case r>0: m·c - n >= 0", l2.is_nonneg());
        lemma("case r>0: m·c - n >= 1 (last chunk is short)", l2.sub(&one).is_nonneg());
    }
    findings
}

// ---------------------------------------------------------------------------
// Kernel-source audit: all parallel mutation behind the disjoint-chunk API.
// ---------------------------------------------------------------------------

/// Audit one tensor-kernel source file: every parallel mutation must go
/// through `lip_par::par_chunks_mut` (whose windows the partition proof
/// covers). Flags `unsafe` blocks, raw thread spawns, direct use of
/// `for_each_chunk` (whose closure could mutate captured state without the
/// disjoint-window discipline), and core-count lookups (kernels take their
/// budget from lip-par; chunks sized by core count would break the rule
/// that partitions depend on size alone). Returns the number of
/// `par_chunks_mut` call sites found alongside any findings.
pub fn audit_kernel_source(name: &str, text: &str) -> (usize, Vec<VerifyFinding>) {
    let mut findings = Vec::new();
    let mut sites = 0usize;
    for (lineno, raw) in text.lines().enumerate() {
        // strip line comments so documentation may talk about unsafe code
        let line = raw.split("//").next().unwrap_or("");
        let flag = |findings: &mut Vec<VerifyFinding>, what: &str| {
            findings.push(finding(
                CheckClass::KernelAudit,
                format!("{name}:{}: {what}", lineno + 1),
            ));
        };
        if line.contains("unsafe") {
            flag(&mut findings, "`unsafe` outside lip-par — kernels must stay safe Rust");
        }
        if line.contains("thread::spawn") || line.contains("std::thread::Builder") {
            flag(&mut findings, "raw thread spawn — parallelism must route through lip-par");
        }
        if line.contains("for_each_chunk") {
            flag(
                &mut findings,
                "direct for_each_chunk — mutation must use the disjoint-window \
                 par_chunks_mut API",
            );
        }
        if line.contains("available_parallelism") {
            flag(
                &mut findings,
                "core-count lookup — kernels take their budget from lip-par, and \
                 partitions depend on size alone",
            );
        }
        sites += line.matches("par_chunks_mut(").count();
    }
    (sites, findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_forward_loss;
    use lip_data::CovariateSpec;
    use lipformer::{LiPFormer, LiPFormerConfig};

    fn implicit_spec() -> CovariateSpec {
        CovariateSpec { numerical: 0, cardinalities: vec![], time_features: 4 }
    }

    #[test]
    fn dim_domination_is_for_all_b() {
        let d = |p, f| SymDim { per_batch: p, fixed: f };
        assert!(dim_dominates(d(2, 0), d(1, 1))); // 2B >= B+1 for B>=1
        assert!(!dim_dominates(d(1, 5), d(2, 0))); // B+5 < 2B at B=6
        assert!(dim_dominates(d(0, 7), d(0, 7)));
        assert!(!dim_dominates(d(0, 7), d(0, 8)));
    }

    #[test]
    fn real_schedules_verify_clean() {
        for channels in [2usize, 3] {
            let config = LiPFormerConfig::small(48, 24, channels);
            let model = LiPFormer::new(config, &implicit_spec(), 0);
            let plan = plan_forward_loss(&model, &implicit_spec(), false).unwrap();
            let sched = InferenceSchedule::build(&plan).unwrap();
            let findings = verify_schedule(&plan, &sched);
            assert!(
                findings.is_empty(),
                "clean schedule flagged: {:#?}",
                findings.iter().map(|f| f.to_string()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn partition_symbolic_proof_holds() {
        assert!(verify_partition_symbolic().is_empty());
    }

    #[test]
    fn partition_bounded_sweep_holds() {
        assert!(verify_partition_bounded(257, 17).is_empty());
    }

    #[test]
    fn corrupt_ranges_are_named_precisely() {
        // overlap
        let f = check_chunk_ranges(10, &[0..6, 5..10]);
        assert!(f.iter().any(|f| f.message.contains("overlap")), "{f:?}");
        // gap
        let f = check_chunk_ranges(10, &[0..4, 6..10]);
        assert!(f.iter().any(|f| f.message.contains("gap")), "{f:?}");
        // short cover
        let f = check_chunk_ranges(10, &[0..4, 4..9]);
        assert!(f.iter().any(|f| f.message.contains("ends at 9")), "{f:?}");
        // all clean
        assert!(check_chunk_ranges(10, &[0..4, 4..8, 8..10]).is_empty());
    }

    #[test]
    fn mpoly_certificates() {
        let c = MPoly::sym(0).add(&MPoly::constant(1));
        let q = MPoly::sym(1);
        // q·c − q ≥ 0 (c ≥ 1): q·c − q = q·c' — nonneg certificate exists
        assert!(q.mul(&c).sub(&q).is_nonneg());
        // q − q·c is negative somewhere: certificate must fail
        assert!(!q.sub(&q.mul(&c)).is_nonneg());
        assert!(q.sub(&q).is_zero());
    }

    #[test]
    fn kernel_audit_flags_escapes() {
        let (_, f) = audit_kernel_source("x.rs", "let w = unsafe { p.add(1) };\n");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unsafe"));
        let (_, f) = audit_kernel_source("x.rs", "lip_par::for_each_chunk(p, |i, r| ());\n");
        assert_eq!(f.len(), 1);
        let (_, f) = audit_kernel_source(
            "x.rs",
            "// sized by available_parallelism? no\nlet t = std::thread::available_parallelism();\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("x.rs:2: core-count lookup"), "{f:?}");
        let (sites, f) =
            audit_kernel_source("x.rs", "// unsafe in a comment is fine\npar_chunks_mut(out, 4, |_, _, d| ());\n");
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(sites, 1);
    }
}
