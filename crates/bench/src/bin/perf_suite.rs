//! `perf_suite` — the regression-gated kernel performance suite, the
//! workspace's one in-repo kernel gate (recorded as `BENCH_pr7.json`).
//!
//! For each of the nine synthetic benchmarks: build the small LiPFormer for
//! its standard (48, 24) task, then measure a batch-32 forward through both
//! engines —
//!
//! * **tape** (`Graph`-recorded, the training path) — serial and full
//!   `lip-par` budget per-forward CPU times, plus the `lip_tensor::stats`
//!   copy counters (`pack_copied` is the matmul-packing traffic the tiled
//!   kernel is supposed to eliminate);
//! * **exec** (`lip-exec` compiled arena program) — serial and full-budget
//!   per-forward CPU times and the arena footprint.
//!
//! Timings are **process CPU seconds** (see [`cpu_seconds`]), not wall
//! clock: the gate must be reproducible on shared hosts, where wall-clock
//! noise dwarfs any 10%-level tolerance. End-to-end wall-clock latency and
//! throughput are the repository benchmark's job (`perfbench/`).
//!
//! Before timing, parity is enforced: tape serial, tape parallel, exec
//! serial, and exec parallel predictions must be byte-identical (compared
//! as fnv1a-64 hashes, which are also recorded). Any divergence exits
//! non-zero — the suite is a determinism gate first and a stopwatch second.
//! The same tape forward also proves the zero-copy layout contract: no
//! byte may be copied by `permute`, `slice_axis`, `broadcast_to` or
//! `sliding_window`, and the total copied must stay below what the
//! pre-view implementation copied for the same op sequence.
//!
//! ```text
//! cargo run --release -p lip-bench --bin perf_suite [OUT.json] [BASELINE.json]
//! ```
//!
//! With a `BASELINE.json` (the committed `BENCH_pr7.json`), the suite
//! self-gates: per dataset it fails if `pack_copied` exceeds the baseline
//! (the counter is deterministic, so this is exact), and the
//! **nine-dataset timing totals** must stay within
//! `LIP_PERF_TOL` (default 0.10 = 10%) of the baseline totals —
//! per-dataset times jitter under bursty interference, but the jitter is
//! independent across datasets and cancels in the sum. Hard floors
//! independent of the baseline: `pack_copied <= PACK_CEILING` and zero
//! layout copies on every dataset. The committed baseline also carries a
//! `fused_ops` key that no code reads; the decoder skips unknown keys.
//! If the totals still flake on a badly loaded host, bump `LIP_PERF_TOL`
//! rather than deleting the gate.

use std::time::Instant;

use lip_autograd::Graph;
use lip_data::pipeline::prepare;
use lip_data::window::Batch;
use lip_data::{generate, DatasetName, GeneratorConfig};
use lip_exec::compile_inference;
use lip_rng::rngs::StdRng;
use lip_rng::SeedableRng;
use lip_tensor::stats::{self, CopyKind};
use lipformer::{Forecaster, LiPFormer, LiPFormerConfig};

/// Post-tiling ceiling for per-forward matmul packing bytes (batch 32):
/// only the attention K-transpose still packs (~385 KB); the old
/// pack-everything pipeline copied ~1.65 MB. A value above this means the
/// read-in-place paths stopped being taken.
const PACK_CEILING: u64 = 450_000;

/// One dataset's performance measurements.
struct PerfRecord {
    dataset: String,
    batch: usize,
    threads: usize,
    /// CPU seconds per tape forward (100-rep block), 1 thread / full budget.
    tape_serial_s: f64,
    tape_parallel_s: f64,
    /// CPU seconds per compiled-arena forward, 1 thread / full budget.
    exec_serial_s: f64,
    exec_parallel_s: f64,
    /// Bytes `contiguous()` packed for matmul during one tape forward.
    pack_copied: u64,
    /// Total bytes copied by layout ops + packing during one tape forward.
    copied_bytes: u64,
    /// Whole-arena footprint of the bound executor at this batch.
    arena_bytes: u64,
    /// fnv1a-64 of the prediction bytes (identical across all four engines
    /// × thread configurations by construction — the suite enforces it).
    parity_hash: u64,
}

lip_serde::json_struct!(PerfRecord {
    dataset,
    batch,
    threads,
    tape_serial_s,
    tape_parallel_s,
    exec_serial_s,
    exec_parallel_s,
    pack_copied,
    copied_bytes,
    arena_bytes,
    parity_hash,
});

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn tape_forward_bytes(model: &LiPFormer, batch: &Batch) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(0);
    let mut g = Graph::new(model.store());
    let y = model.forward(&mut g, batch, false, &mut rng);
    g.value(y).to_bytes()
}

/// Whole-process CPU seconds consumed so far (utime + stime from
/// `/proc/self/stat`, in `USER_HZ = 100` ticks), falling back to wall
/// clock where procfs is unavailable. CPU time is the gating statistic on
/// purpose: it excludes runqueue waits, which are the dominant noise on a
/// shared host — observed wall-clock minima swing 30–50% between runs
/// there, where CPU time stays within a few percent.
fn cpu_seconds(wall_anchor: Instant) -> f64 {
    if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
        // comm (field 2) may contain spaces; fields are reliable only after
        // the closing paren. utime/stime are fields 14/15 (1-based), i.e.
        // 11/12 counting from the field after ") ".
        if let Some(rest) = stat.rsplit(") ").next() {
            let mut it = rest.split_ascii_whitespace().skip(11);
            if let (Some(ut), Some(st)) = (it.next(), it.next()) {
                if let (Ok(ut), Ok(st)) = (ut.parse::<u64>(), st.parse::<u64>()) {
                    return (ut + st) as f64 / 100.0;
                }
            }
        }
    }
    wall_anchor.elapsed().as_secs_f64()
}

/// CPU seconds per run of `f`, measured over one `reps`-sized block after
/// two untimed warmups. `reps` must be large enough that the block spans
/// many 10 ms accounting ticks (the suite uses ~0.5–1 s blocks, so tick
/// quantization stays under ~5%).
fn cpu_time(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    f();
    let anchor = Instant::now();
    let before = cpu_seconds(anchor);
    for _ in 0..reps {
        f();
    }
    (cpu_seconds(anchor) - before) / reps as f64
}

fn load_baseline(path: &str) -> Option<Vec<PerfRecord>> {
    let text = std::fs::read_to_string(path).ok()?;
    match lip_serde::from_str::<Vec<PerfRecord>>(&text) {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("cannot parse baseline {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pr7.json".to_string());
    let baseline = std::env::args().nth(2).and_then(|p| {
        let b = load_baseline(&p);
        if b.is_none() {
            eprintln!("note: baseline {p} not found; recording without gating");
        }
        b
    });
    let tol: f64 = std::env::var("LIP_PERF_TOL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.10);
    let threads = lip_par::max_threads();
    let batch_size = 32usize;
    let reps = 100usize;
    println!(
        "perf_suite: nine-benchmark tape+exec sweep, 1 vs {threads} thread(s), \
         batch {batch_size}, tolerance {:.0}%",
        tol * 100.0
    );

    let mut records: Vec<PerfRecord> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for name in DatasetName::all() {
        let ds = generate(name, GeneratorConfig::test(3));
        let prep = prepare(&ds, 48, 24);
        let config = LiPFormerConfig::small(48, 24, prep.channels);
        let model = LiPFormer::new(config, &prep.spec, 7);
        let indices: Vec<usize> = (0..batch_size.min(prep.train.len())).collect();
        let batch = prep.train.batch(&indices);

        let compiled = compile_inference(&model, &prep.spec)
            .unwrap_or_else(|e| panic!("{name:?}: {e}"));
        let mut bound = compiled.bind(indices.len());
        let arena_bytes = bound.arena_bytes() as u64;

        // Parity first: all four engine × thread configurations must agree
        // byte-for-byte before any of them is worth timing.
        let tape_1 = lip_par::with_threads(1, || tape_forward_bytes(&model, &batch));
        let tape_n = lip_par::with_threads(threads, || tape_forward_bytes(&model, &batch));
        let exec_1 = lip_par::with_threads(1, || bound.run(&batch).to_bytes());
        let exec_n = lip_par::with_threads(threads, || bound.run(&batch).to_bytes());
        let parity_hash = fnv1a(&tape_1);
        for (label, bytes) in
            [("tape parallel", &tape_n), ("exec serial", &exec_1), ("exec parallel", &exec_n)]
        {
            if fnv1a(bytes) != parity_hash {
                failures.push(format!(
                    "{name:?}: {label} output diverges from serial tape (hash \
                     {:#x} vs {parity_hash:#x})",
                    fnv1a(bytes)
                ));
            }
        }

        // Copy accounting over one tape forward (the executor's packs go
        // through preallocated scratch and are not Tensor copies).
        let before = stats::snapshot();
        std::hint::black_box(tape_forward_bytes(&model, &batch));
        let delta = stats::snapshot().since(&before);
        let pack_copied = delta.kind(CopyKind::Pack).copy_bytes;
        let copied_bytes = delta.copied_bytes();

        let tape_serial_s =
            lip_par::with_threads(1, || cpu_time(reps, || {
                std::hint::black_box(tape_forward_bytes(&model, &batch));
            }));
        let tape_parallel_s =
            lip_par::with_threads(threads, || cpu_time(reps, || {
                std::hint::black_box(tape_forward_bytes(&model, &batch));
            }));
        let exec_serial_s = lip_par::with_threads(1, || {
            cpu_time(reps, || {
                std::hint::black_box(bound.run(&batch).numel());
            })
        });
        let exec_parallel_s = lip_par::with_threads(threads, || {
            cpu_time(reps, || {
                std::hint::black_box(bound.run(&batch).numel());
            })
        });

        // Hard floors, independent of any baseline.
        if pack_copied > PACK_CEILING {
            failures.push(format!(
                "{name:?}: pack_copied {pack_copied} B exceeds the post-tiling \
                 ceiling of {PACK_CEILING} B"
            ));
        }
        let violations = delta.layout_copy_violations();
        if !violations.is_empty() {
            failures.push(format!(
                "{name:?}: layout ops copied data (offending kinds: {})",
                violations.join(", ")
            ));
        }
        let layout_baseline = delta.baseline_layout_bytes();
        if copied_bytes >= layout_baseline {
            failures.push(format!(
                "{name:?}: forward copied {copied_bytes} B, not below the \
                 pre-view baseline of {layout_baseline} B"
            ));
        }

        // Baseline gates: counters must never regress, timings within tol.
        if let Some(base) = baseline
            .as_ref()
            .and_then(|b| b.iter().find(|r| r.dataset == format!("{name:?}")))
        {
            if pack_copied > base.pack_copied {
                failures.push(format!(
                    "{name:?}: pack_copied regressed {} → {pack_copied} B",
                    base.pack_copied
                ));
            }
        }

        println!(
            "  {name:>13?}  tape {:>8.3} ms  exec {:>8.3} ms  pack {:>7} B",
            tape_serial_s * 1e3,
            exec_serial_s * 1e3,
            pack_copied,
        );
        records.push(PerfRecord {
            dataset: format!("{name:?}"),
            batch: indices.len(),
            threads,
            tape_serial_s,
            tape_parallel_s,
            exec_serial_s,
            exec_parallel_s,
            pack_copied,
            copied_bytes,
            arena_bytes,
            parity_hash,
        });
    }

    // Timing gate, over the nine-dataset totals: per-dataset CPU times
    // still jitter ±30% under bursty interference, but the swings are
    // independent across datasets and average out — observed run-to-run
    // drift of the totals is a few percent, so a 10% tolerance holds.
    if let Some(base) = baseline.as_ref() {
        let total = |f: fn(&PerfRecord) -> f64, rs: &[PerfRecord]| -> f64 {
            rs.iter().map(f).sum()
        };
        for (metric, get) in [
            ("total tape_serial_s", (|r: &PerfRecord| r.tape_serial_s) as fn(&PerfRecord) -> f64),
            ("total tape_parallel_s", |r: &PerfRecord| r.tape_parallel_s),
            ("total exec_serial_s", |r: &PerfRecord| r.exec_serial_s),
            ("total exec_parallel_s", |r: &PerfRecord| r.exec_parallel_s),
        ] {
            let (new, old) = (total(get, &records), total(get, base));
            if new > old * (1.0 + tol) {
                failures.push(format!(
                    "{metric} regressed {:.1} ms → {:.1} ms (> {:.0}% tolerance)",
                    old * 1e3,
                    new * 1e3,
                    tol * 100.0
                ));
            }
        }
    }

    let json = lip_serde::to_string_pretty(&records);
    std::fs::write(&out_path, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(2);
    });
    println!("suite → {out_path}");

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAILED: {f}");
        }
        std::process::exit(1);
    }
}
