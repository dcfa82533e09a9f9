//! The runtime microbenchmark: `Runtime::alloc`, `tcfree` and `collect`
//! called directly, each timed on the host clock and read off the
//! virtual clock, so the `CostModel`'s ordering can be checked against
//! host time.

use std::collections::HashSet;
use std::fmt::Write as _;
use std::time::Instant;

use minigo_runtime::{Category, CostModel, FreeOutcome, FreeSource, Runtime, RuntimeConfig};

use crate::stats::median;

/// Objects per alloc/free batch: fewer than a 48-byte span holds, so
/// LIFO frees land in the span still cached and succeed.
const BATCH: usize = 64;
/// Batches per repetition.
const BATCHES: usize = 2000;
/// Objects on the heap at each measured collection.
const HEAP_OBJECTS: usize = 50_000;
/// Repetitions; each figure is the median.
const REPS: usize = 5;
/// Object size in bytes.
const SIZE: u64 = 48;

/// Per-operation costs on both clocks.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MicroCosts {
    /// Host ns per `alloc`.
    pub(crate) alloc_ns: f64,
    /// Host ns per successful `tcfree`.
    pub(crate) tcfree_ns: f64,
    /// Host ns per heap object of one `collect`.
    pub(crate) collect_ns_per_obj: f64,
    /// Virtual ticks per `alloc`.
    pub(crate) alloc_vt: f64,
    /// Virtual ticks per `tcfree`.
    pub(crate) tcfree_vt: f64,
    /// Virtual ticks per heap object of one `collect`.
    pub(crate) collect_vt_per_obj: f64,
    /// Share of the microbenchmark's frees that succeeded.
    pub(crate) tcfree_ok: f64,
}

fn runtime(seed: u64) -> Runtime {
    Runtime::new(RuntimeConfig {
        gc_enabled: false,
        migrate_prob: 0.0,
        jitter: 0.0,
        seed,
        ..RuntimeConfig::default()
    })
}

/// Runs the microbenchmark.
pub(crate) fn measure(seed: u64) -> MicroCosts {
    let (mut alloc_ns, mut free_ns, mut collect_ns) = (vec![], vec![], vec![]);
    let (mut alloc_vt, mut free_vt, mut collect_vt) = (0.0, 0.0, 0.0);
    let (mut freed, mut attempts) = (0u64, 0u64);
    let mut addrs = Vec::with_capacity(HEAP_OBJECTS);
    for _ in 0..REPS {
        let mut rt = runtime(seed);
        let (mut a_ns, mut f_ns, mut a_vt, mut f_vt) = (0u128, 0u128, 0u64, 0u64);
        for _ in 0..BATCHES {
            addrs.clear();
            let (t, v) = (Instant::now(), rt.now());
            for _ in 0..BATCH {
                addrs.push(rt.alloc(SIZE, Category::Slice));
            }
            a_ns += t.elapsed().as_nanos();
            a_vt += rt.now() - v;
            let (t, v) = (Instant::now(), rt.now());
            for &a in addrs.iter().rev() {
                let out = rt.tcfree(a, FreeSource::SliceLifetime);
                freed += u64::from(matches!(out, FreeOutcome::Freed { .. }));
            }
            f_ns += t.elapsed().as_nanos();
            f_vt += rt.now() - v;
            attempts += BATCH as u64;
        }
        let ops = (BATCH * BATCHES) as f64;
        alloc_ns.push(a_ns as f64 / ops);
        free_ns.push(f_ns as f64 / ops);
        alloc_vt = a_vt as f64 / ops;
        free_vt = f_vt as f64 / ops;

        // A collection over a heap with every other object reachable.
        let mut rt = runtime(seed);
        addrs.clear();
        addrs.extend((0..HEAP_OBJECTS).map(|_| rt.alloc(SIZE, Category::Other)));
        let marked: HashSet<_> = addrs.iter().step_by(2).copied().collect();
        let (t, v) = (Instant::now(), rt.now());
        let out = rt.collect(&marked);
        collect_ns.push(t.elapsed().as_nanos() as f64 / HEAP_OBJECTS as f64);
        collect_vt = (rt.now() - v) as f64 / HEAP_OBJECTS as f64;
        assert_eq!(
            out.freed.len(),
            HEAP_OBJECTS / 2,
            "half the heap is garbage"
        );
    }
    MicroCosts {
        alloc_ns: median(&alloc_ns),
        tcfree_ns: median(&free_ns),
        collect_ns_per_obj: median(&collect_ns),
        alloc_vt,
        tcfree_vt: free_vt,
        collect_vt_per_obj: collect_vt,
        tcfree_ok: freed as f64 / attempts as f64,
    }
}

/// The cost-model cross-check: host and virtual cost per operation side
/// by side, with every pair whose order the two clocks disagree on
/// flagged as a finding. The constants are reported, never retuned.
pub(crate) fn cost_model_table(c: &MicroCosts) -> String {
    let k = CostModel::default();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "CostModel: alloc_small={} tcfree_attempt={} tcfree_small={} gc_cycle_base={} \
         gc_mark_object={} gc_scan_per_64b={} gc_sweep_span={}",
        k.alloc_small,
        k.tcfree_attempt,
        k.tcfree_small,
        k.gc_cycle_base,
        k.gc_mark_object,
        k.gc_scan_per_64b,
        k.gc_sweep_span
    );
    let _ = writeln!(
        out,
        "microbenchmark ({SIZE}-byte objects; {:.1}% of frees succeeded):",
        c.tcfree_ok * 100.0
    );
    let ops = [
        ("alloc", c.alloc_ns, c.alloc_vt),
        ("tcfree", c.tcfree_ns, c.tcfree_vt),
        ("collect/obj", c.collect_ns_per_obj, c.collect_vt_per_obj),
    ];
    let _ = writeln!(out, "  {:<12} {:>10} {:>10}", "op", "host ns", "ticks");
    for (name, ns, vt) in ops {
        let _ = writeln!(out, "  {name:<12} {ns:>10.2} {vt:>10.3}");
    }
    for (i, a) in ops.iter().enumerate() {
        for b in &ops[i + 1..] {
            let host = a.1.total_cmp(&b.1);
            let virt = a.2.total_cmp(&b.2);
            let verdict = if host == virt {
                "agree"
            } else {
                "INVERSION (finding)"
            };
            let _ = writeln!(
                out,
                "  {} vs {}: host {:?}, ticks {:?} -> {verdict}",
                a.0, b.0, host, virt
            );
        }
    }
    out
}
