//! Process-wide accounting of layout-related data movement.
//!
//! Every layout operation on [`crate::Tensor`] reports here: view-producing
//! ops (`permute`, `slice_axis`, `broadcast_to`, stride-compatible `reshape`,
//! `sliding_window`) record the bytes they *avoided* copying, while
//! materializations (`contiguous()` packing for dense kernels, non-viewable
//! reshapes) record the bytes they actually moved. The `perf_suite` kernel
//! gate snapshots these counters around a model forward to prove the
//! zero-copy guarantee instead of asserting it, and fails if any
//! permute/slice/broadcast/unfold copied.
//!
//! Counters are relaxed atomics bumped once per tensor-level op (never inside
//! element loops), so the accounting costs nothing measurable and does not
//! perturb the deterministic kernels.

use std::sync::atomic::{AtomicU64, Ordering};

/// The layout operations whose data movement is tracked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CopyKind {
    /// Axis reorder (`permute` / `transpose` / `t`). Always a view now.
    Permute,
    /// Contiguous sub-range along one axis (`slice_axis`). Always a view now.
    SliceAxis,
    /// Broadcast expansion (`broadcast_to`). Always a view now.
    BroadcastTo,
    /// `reshape`: a view when the strides are compatible, a copy otherwise.
    Reshape,
    /// Overlapping sliding-window view (`sliding_window`). Always a view.
    Unfold,
    /// `contiguous()` packing a strided view into dense row-major storage
    /// on behalf of a kernel that requires density (matmul, reductions,
    /// serialization).
    Pack,
}

/// All tracked kinds, in the order they are reported.
pub const KINDS: [CopyKind; 6] = [
    CopyKind::Permute,
    CopyKind::SliceAxis,
    CopyKind::BroadcastTo,
    CopyKind::Reshape,
    CopyKind::Unfold,
    CopyKind::Pack,
];

impl CopyKind {
    /// Stable lower-case name used in bench JSON and failure messages.
    pub fn name(self) -> &'static str {
        match self {
            CopyKind::Permute => "permute",
            CopyKind::SliceAxis => "slice_axis",
            CopyKind::BroadcastTo => "broadcast_to",
            CopyKind::Reshape => "reshape",
            CopyKind::Unfold => "unfold",
            CopyKind::Pack => "pack",
        }
    }

    #[inline]
    fn idx(self) -> usize {
        match self {
            CopyKind::Permute => 0,
            CopyKind::SliceAxis => 1,
            CopyKind::BroadcastTo => 2,
            CopyKind::Reshape => 3,
            CopyKind::Unfold => 4,
            CopyKind::Pack => 5,
        }
    }
}

const N: usize = KINDS.len();
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

static COPY_OPS: [AtomicU64; N] = [ZERO; N];
static COPY_BYTES: [AtomicU64; N] = [ZERO; N];
static VIEW_OPS: [AtomicU64; N] = [ZERO; N];
static VIEW_BYTES: [AtomicU64; N] = [ZERO; N];

/// A materialization happened: `bytes` of f32 payload were actually copied.
#[inline]
pub(crate) fn record_copy(kind: CopyKind, bytes: usize) {
    COPY_OPS[kind.idx()].fetch_add(1, Ordering::Relaxed);
    COPY_BYTES[kind.idx()].fetch_add(bytes as u64, Ordering::Relaxed);
}

/// A zero-copy view was produced where the pre-view implementation would
/// have materialized `bytes` of f32 payload.
#[inline]
pub(crate) fn record_view(kind: CopyKind, bytes: usize) {
    VIEW_OPS[kind.idx()].fetch_add(1, Ordering::Relaxed);
    VIEW_BYTES[kind.idx()].fetch_add(bytes as u64, Ordering::Relaxed);
}

/// Zero all counters (start of a measured region).
pub fn reset() {
    for i in 0..N {
        COPY_OPS[i].store(0, Ordering::Relaxed);
        COPY_BYTES[i].store(0, Ordering::Relaxed);
        VIEW_OPS[i].store(0, Ordering::Relaxed);
        VIEW_BYTES[i].store(0, Ordering::Relaxed);
    }
}

/// Per-kind counter values at one point in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Materializations performed under this kind.
    pub copy_ops: u64,
    /// f32 payload bytes actually copied by those materializations.
    pub copy_bytes: u64,
    /// Zero-copy views produced under this kind.
    pub view_ops: u64,
    /// Payload bytes those views would have copied pre-refactor.
    pub view_bytes: u64,
}

/// Snapshot of all layout-movement counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CopyStats {
    per_kind: [KindStats; N],
}

/// Read the current counter values.
pub fn snapshot() -> CopyStats {
    let mut per_kind = [KindStats::default(); N];
    for (i, k) in per_kind.iter_mut().enumerate() {
        k.copy_ops = COPY_OPS[i].load(Ordering::Relaxed);
        k.copy_bytes = COPY_BYTES[i].load(Ordering::Relaxed);
        k.view_ops = VIEW_OPS[i].load(Ordering::Relaxed);
        k.view_bytes = VIEW_BYTES[i].load(Ordering::Relaxed);
    }
    CopyStats { per_kind }
}

impl CopyStats {
    /// Counters for one kind.
    pub fn kind(&self, kind: CopyKind) -> KindStats {
        self.per_kind[kind.idx()]
    }

    /// Total bytes actually copied across every kind.
    pub fn copied_bytes(&self) -> u64 {
        self.per_kind.iter().map(|k| k.copy_bytes).sum()
    }

    /// Total materializing allocations across every kind.
    pub fn copy_ops(&self) -> u64 {
        self.per_kind.iter().map(|k| k.copy_ops).sum()
    }

    /// Total zero-copy views produced across every kind.
    pub fn view_ops(&self) -> u64 {
        self.per_kind.iter().map(|k| k.view_ops).sum()
    }

    /// Bytes the pre-view implementation would have copied for the same op
    /// sequence. Before this refactor every `permute` / `slice_axis` /
    /// `broadcast_to` (and the slice-loop equivalent of `sliding_window`)
    /// materialized its full output; `reshape` was already O(1), so it is
    /// excluded. Comparing [`CopyStats::copied_bytes`] against this number
    /// measures the real win: copies that merely *moved* (a permute view
    /// later packed for matmul) cancel out, copies that vanished (a slice
    /// feeding an elementwise kernel directly) show up as the difference.
    pub fn baseline_layout_bytes(&self) -> u64 {
        [
            CopyKind::Permute,
            CopyKind::SliceAxis,
            CopyKind::BroadcastTo,
            CopyKind::Unfold,
        ]
        .into_iter()
        .map(|k| {
            let s = self.kind(k);
            s.copy_bytes + s.view_bytes
        })
        .sum()
    }

    /// Names of pure-layout kinds (permute / slice / broadcast / unfold)
    /// that performed any copy at all. Empty iff the zero-copy guarantee
    /// held over the measured region.
    pub fn layout_copy_violations(&self) -> Vec<&'static str> {
        [
            CopyKind::Permute,
            CopyKind::SliceAxis,
            CopyKind::BroadcastTo,
            CopyKind::Unfold,
        ]
        .into_iter()
        .filter(|&k| self.kind(k).copy_ops > 0)
        .map(|k| k.name())
        .collect()
    }

    /// Difference `self - earlier`, for measuring a region between two
    /// snapshots without resetting the globals.
    pub fn since(&self, earlier: &CopyStats) -> CopyStats {
        let mut per_kind = [KindStats::default(); N];
        for (i, k) in per_kind.iter_mut().enumerate() {
            k.copy_ops = self.per_kind[i].copy_ops - earlier.per_kind[i].copy_ops;
            k.copy_bytes = self.per_kind[i].copy_bytes - earlier.per_kind[i].copy_bytes;
            k.view_ops = self.per_kind[i].view_ops - earlier.per_kind[i].view_ops;
            k.view_bytes = self.per_kind[i].view_bytes - earlier.per_kind[i].view_bytes;
        }
        CopyStats { per_kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: counters are process-global, so this test nudges them and checks
    // deltas rather than absolute values (other tests run concurrently).
    #[test]
    fn records_and_diffs() {
        let before = snapshot();
        record_view(CopyKind::Permute, 400);
        record_copy(CopyKind::Pack, 100);
        let delta = snapshot().since(&before);
        assert!(delta.kind(CopyKind::Permute).view_ops >= 1);
        assert!(delta.kind(CopyKind::Permute).view_bytes >= 400);
        assert!(delta.kind(CopyKind::Pack).copy_bytes >= 100);
        assert!(delta.baseline_layout_bytes() >= 400);
        assert!(delta.copied_bytes() >= 100);
    }

    #[test]
    fn violations_name_the_offenders() {
        let before = snapshot();
        record_copy(CopyKind::Reshape, 4); // reshape may legitimately copy
        let delta = snapshot().since(&before);
        assert!(delta.layout_copy_violations().is_empty());
        record_copy(CopyKind::BroadcastTo, 4);
        let delta = snapshot().since(&before);
        assert_eq!(delta.layout_copy_violations(), vec!["broadcast_to"]);
    }
}
