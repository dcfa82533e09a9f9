//! The three workloads: their programs, compile cells, set-up, and the
//! untraced timed passes that give the end-to-end metrics.

use gofree::{
    compile, execute, run_service, Arrival, AuditMode, CompileOptions, Compiled, FreePlacement,
    Report, RunConfig, ServiceConfig, ServiceStats, Setting, TICKS_PER_SEC,
};
use gofree_workloads::{corpus, programs, service, Scale};

use crate::calib;
use crate::refs::Refs;
use crate::stats::{geomean, median, ratio, Fnv};

/// Functions in the generated compile corpus.
pub(crate) const CORPUS_FUNCS: usize = 1280;
/// Requests per `kv-poisson` service run, per setting.
pub(crate) const KV_REQUESTS: usize = 50_000;
/// Offered load of `kv-poisson`, requests per simulated second.
pub(crate) const KV_RPS: u64 = 600;
/// Highest utilization `kv-poisson` may run at: above it the latency
/// tail measures backlog instead of pauses.
pub(crate) const MAX_UTILIZATION: f64 = 0.6;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The six table-6 analogues plus `lowfree`, compiled and run under
    /// Go, GoFree and Go-GCOff.
    Subjects,
    /// A 1280-function generated corpus under three compile pipelines.
    CorpusCompile,
    /// The `kv` service under open-loop Poisson load below capacity.
    KvPoisson,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Subjects,
        Workload::CorpusCompile,
        Workload::KvPoisson,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Subjects => "subjects",
            Workload::CorpusCompile => "corpus-compile",
            Workload::KvPoisson => "kv-poisson",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Compiles of each cell per timed pass: enough that cheap compiles
    /// get as many samples as expensive ones get time.
    fn compile_reps(self) -> usize {
        match self {
            Workload::Subjects => 5,
            Workload::CorpusCompile => 1,
            Workload::KvPoisson => 20,
        }
    }

    /// Executions of each cell per timed pass.
    fn exec_reps(self) -> usize {
        match self {
            Workload::CorpusCompile => 20,
            Workload::Subjects | Workload::KvPoisson => 1,
        }
    }
}

/// One program of a workload.
#[derive(Debug, Clone)]
pub(crate) struct Program {
    /// Name (a subject, `corpus-1280` or `kv`).
    pub(crate) name: &'static str,
    /// MiniGo source.
    pub(crate) source: String,
}

/// One (program, pipeline) pair: compiled with `opts`, run under
/// `setting`.
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    /// Index into the workload's programs.
    pub(crate) program: usize,
    /// `gcoff`, `go`, `gofree` or `lastuse`.
    pub(crate) pipeline: &'static str,
    /// Compiler options.
    pub(crate) opts: CompileOptions,
    /// Run setting.
    pub(crate) setting: Setting,
}

/// Generates a workload's programs. Sources depend on nothing but the
/// workload: the seed drives only the run.
pub(crate) fn programs(w: Workload) -> Vec<Program> {
    match w {
        Workload::Subjects => programs::all(Scale::Full)
            .into_iter()
            .chain([programs::lowfree(Scale::Full)])
            .map(|p| Program {
                name: p.name,
                source: p.source,
            })
            .collect(),
        Workload::CorpusCompile => vec![Program {
            name: "corpus-1280",
            source: corpus::generate(CORPUS_FUNCS),
        }],
        Workload::KvPoisson => vec![Program {
            name: "kv",
            source: service::kv(Scale::Full).source,
        }],
    }
}

/// The compile cells of a workload over `nprog` programs. GCOff comes
/// first so the capacity guard runs before any GC-on service run.
pub(crate) fn cells(w: Workload, nprog: usize) -> Vec<Cell> {
    let per_program: Vec<(&'static str, CompileOptions, Setting)> = match w {
        Workload::Subjects | Workload::KvPoisson => [
            ("gcoff", Setting::GoGcOff),
            ("go", Setting::Go),
            ("gofree", Setting::GoFree),
        ]
        .into_iter()
        .map(|(p, s)| (p, s.compile_options(), s))
        .collect(),
        Workload::CorpusCompile => vec![
            ("go", CompileOptions::go(), Setting::Go),
            ("gofree", CompileOptions::default(), Setting::GoFree),
            (
                "lastuse",
                CompileOptions {
                    free_placement: FreePlacement::LastUse,
                    audit: AuditMode::Warn,
                    ..CompileOptions::default()
                },
                Setting::GoFree,
            ),
        ],
    };
    (0..nprog)
        .flat_map(|program| {
            per_program
                .iter()
                .map(move |(pipeline, opts, setting)| Cell {
                    program,
                    pipeline,
                    opts: opts.clone(),
                    setting: *setting,
                })
        })
        .collect()
}

/// A workload ready to measure.
pub(crate) struct Setup {
    /// The workload.
    pub(crate) workload: Workload,
    /// Its programs.
    pub(crate) programs: Vec<Program>,
    /// Its cells.
    pub(crate) cells: Vec<Cell>,
    /// Each cell's compile, in cell order.
    pub(crate) compiled: Vec<Compiled>,
}

impl Setup {
    /// Generates the sources and compiles every cell.
    ///
    /// # Errors
    ///
    /// A compile diagnostic.
    pub(crate) fn build(w: Workload) -> Result<Setup, String> {
        let programs = programs(w);
        let cells = cells(w, programs.len());
        let compiled = cells
            .iter()
            .map(|c| {
                let src = &programs[c.program].source;
                compile(src, &c.opts).map_err(|d| {
                    format!(
                        "{} ({}): {}",
                        programs[c.program].name,
                        c.pipeline,
                        d.render(src)
                    )
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Setup {
            workload: w,
            programs,
            cells,
            compiled,
        })
    }

    /// `program/pipeline` of cell `i`.
    pub(crate) fn label(&self, i: usize) -> String {
        let c = &self.cells[i];
        format!("{}/{}", self.programs[c.program].name, c.pipeline)
    }

    /// The cell of `program` compiled by `pipeline`, if any.
    pub(crate) fn find(&self, program: usize, pipeline: &str) -> Option<usize> {
        self.cells
            .iter()
            .position(|c| c.program == program && c.pipeline == pipeline)
    }
}

/// The run configuration: the paper's defaults (jitter and migrations
/// on, bytecode engine at `--opt full`, the `go` collector) with the
/// benchmark's seed and one worker thread.
pub(crate) fn run_config(seed: u64) -> RunConfig {
    RunConfig {
        seed,
        jobs: 1,
        ..RunConfig::default()
    }
}

/// The `kv-poisson` traffic.
pub(crate) fn service_config() -> ServiceConfig {
    ServiceConfig {
        requests: KV_REQUESTS,
        rps: KV_RPS,
        arrival: Arrival::Poisson,
    }
}

/// What one execution of a cell produced.
#[derive(Debug, Clone)]
pub(crate) struct Outcome {
    /// The run report (for a service run, its end-of-run report).
    pub(crate) report: Report,
    /// Service-harness observables, for `kv-poisson`.
    pub(crate) service: Option<ServiceStats>,
}

impl Outcome {
    /// Virtual work: a batch run's time, or a service run's summed
    /// request service ticks (GC pauses inside requests included,
    /// idle time between arrivals excluded).
    pub(crate) fn vtime(&self) -> u64 {
        match &self.service {
            Some(s) => s.service_time.sum(),
            None => self.report.time,
        }
    }

    /// Every virtual observable, canonically rendered: the exactness
    /// guard demands this be bit-identical in every pass of a run.
    pub(crate) fn virtual_key(&self) -> String {
        let r = &self.report;
        format!(
            "time={} steps={} ic={}/{} output={:?} metrics={:?} service={:?}",
            r.time, r.steps, r.ic_hits, r.ic_misses, r.output, r.metrics, self.service
        )
    }
}

/// Executes one cell of `setup` with `compiled` (the set-up's compile or
/// an equivalent one).
///
/// # Errors
///
/// A VM error, rendered.
pub(crate) fn run_cell(
    setup: &Setup,
    cell: usize,
    compiled: &Compiled,
    cfg: &RunConfig,
) -> Result<Outcome, String> {
    let setting = setup.cells[cell].setting;
    let out = match setup.workload {
        Workload::KvPoisson => {
            run_service(compiled, setting, cfg, &service_config()).map(|r| Outcome {
                report: r.report,
                service: Some(r.stats),
            })
        }
        _ => execute(compiled, setting, cfg).map(|report| Outcome {
            report,
            service: None,
        }),
    };
    out.map_err(|e| format!("{}: {e}", setup.label(cell)))
}

/// Checks an outcome against the reference files.
///
/// # Errors
///
/// Describes the mismatch.
pub(crate) fn check(setup: &Setup, refs: &Refs, cell: usize, o: &Outcome) -> Result<(), String> {
    let name = setup.programs[setup.cells[cell].program].name;
    match &o.service {
        Some(s) => {
            let want = refs.checksum(name)?;
            if s.requests != KV_REQUESTS as u64 || s.checksum != want {
                return Err(format!(
                    "{}: {} requests with checksum {}, reference {} requests with checksum {want}",
                    setup.label(cell),
                    s.requests,
                    s.checksum,
                    KV_REQUESTS
                ));
            }
        }
        None => {
            let want = refs.output(name)?;
            if o.report.output != want {
                return Err(format!(
                    "{}: output {:?} differs from reference {:?}",
                    setup.label(cell),
                    o.report.output,
                    want
                ));
            }
        }
    }
    Ok(())
}

/// Utilization of the `kv-poisson` offered load: rate × mean Go-GCOff
/// service time, exact in virtual ticks.
pub(crate) fn utilization(gcoff: &ServiceStats) -> f64 {
    let mean_ticks = gcoff.service_time.sum() as f64 / gcoff.service_time.count().max(1) as f64;
    KV_RPS as f64 * mean_ticks / TICKS_PER_SEC as f64
}

/// The capacity guard: refuses a utilization above [`MAX_UTILIZATION`].
///
/// # Errors
///
/// Names the utilization.
pub(crate) fn capacity_guard(utilization: f64) -> Result<(), String> {
    if utilization > MAX_UTILIZATION {
        return Err(format!(
            "refusing to run: utilization {utilization:.3} exceeds {MAX_UTILIZATION}; \
             the latency tail would measure backlog, not pauses"
        ));
    }
    Ok(())
}

/// Operation counts of a run: every compile and execution is checked.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Tally {
    /// Operations attempted.
    pub(crate) attempted: u64,
    /// Operations that raised an error or disagreed with the references.
    pub(crate) failed: u64,
}

impl Tally {
    /// Counts one operation, logging a failure.
    pub(crate) fn count<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED: {e}");
                None
            }
        }
    }
}

/// Compile facts that must not change between compiles of one cell.
pub(crate) fn compile_key(c: &Compiled) -> String {
    format!(
        "free={} lowered={} optimized={} opt={:?} placement={:?} suppressed={}",
        c.free_count(),
        c.lowered.instr_count(),
        c.optimized.instr_count(),
        c.opt_stats,
        c.placement,
        c.frees_suppressed
    )
}

/// The reference pass: every cell executed once, checked, and kept as
/// the baseline of the exactness guard. Refuses `kv-poisson` when the
/// offered load is above [`MAX_UTILIZATION`].
///
/// # Errors
///
/// A failed execution (no baseline to compare against) or an
/// over-capacity service.
pub(crate) fn reference_pass(
    setup: &Setup,
    refs: &Refs,
    cfg: &RunConfig,
    tally: &mut Tally,
) -> Result<Vec<Outcome>, String> {
    let mut out = Vec::with_capacity(setup.cells.len());
    for (i, compiled) in setup.compiled.iter().enumerate() {
        let o = run_cell(setup, i, compiled, cfg)?;
        tally.attempted += 1;
        check(setup, refs, i, &o)?;
        if let (Some(s), Setting::GoGcOff) = (&o.service, setup.cells[i].setting) {
            capacity_guard(utilization(s))?;
        }
        out.push(o);
    }
    Ok(out)
}

/// Host-clock samples of the untraced passes, per cell, in ms.
#[derive(Debug, Default)]
pub(crate) struct Samples {
    /// One `gofree::compile` each.
    pub(crate) compile: Vec<Vec<f64>>,
    /// One execution (batch run or whole service run) each.
    pub(crate) exec: Vec<Vec<f64>>,
    /// `compile` in ms on the reference host (see [`calib`]).
    pub(crate) compile_ref: Vec<Vec<f64>>,
    /// `exec` in ms on the reference host.
    pub(crate) exec_ref: Vec<Vec<f64>>,
    /// Each pass's summed execution ms, one per pass.
    pub(crate) pass_exec: Vec<Vec<f64>>,
    /// Mean ms of the calibration units around each timed operation.
    pub(crate) calib: Vec<f64>,
    /// Service requests completed per host second, one per pass.
    pub(crate) rps: Vec<f64>,
    /// Passes completed.
    pub(crate) passes: usize,
}

impl Samples {
    /// Empty samples for `n` cells.
    pub(crate) fn new(n: usize) -> Samples {
        Samples {
            compile: vec![Vec::new(); n],
            exec: vec![Vec::new(); n],
            compile_ref: vec![Vec::new(); n],
            exec_ref: vec![Vec::new(); n],
            pass_exec: vec![Vec::new(); n],
            ..Samples::default()
        }
    }
}

/// The exactness guard: a virtual observable that differs between
/// passes is a bug, never noise.
///
/// # Errors
///
/// Names the cell and both renderings.
pub(crate) fn guard(
    setup: &Setup,
    cell: usize,
    baseline: &Outcome,
    o: &Outcome,
) -> Result<(), String> {
    let (a, b) = (baseline.virtual_key(), o.virtual_key());
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "exactness guard: {} differs between passes\n first: {a}\n later: {b}",
            setup.label(cell)
        ))
    }
}

/// One untraced timed pass over every cell, in `order`: each cell is
/// compiled and executed its workload's number of times, each operation
/// timed between calibration units, checked against the references and
/// against the baseline.
///
/// # Errors
///
/// An exactness-guard violation.
pub(crate) fn timed_pass(
    setup: &Setup,
    refs: &Refs,
    cfg: &RunConfig,
    baseline: &[Outcome],
    order: &[usize],
    samples: &mut Samples,
    tally: &mut Tally,
) -> Result<(), String> {
    let w = setup.workload;
    let mut service_secs = 0.0;
    let mut requests = 0u64;
    for &i in order {
        let cell = &setup.cells[i];
        let src = &setup.programs[cell.program].source;
        let want = compile_key(&setup.compiled[i]);
        for _ in 0..w.compile_reps() {
            let (c, t) = calib::time(|| compile(src, &cell.opts));
            let ok = c.map_err(|d| d.render(src)).and_then(|c| {
                let got = compile_key(&c);
                if got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: compile differs: {got} vs {want}",
                        setup.label(i)
                    ))
                }
            });
            if tally.count(ok).is_some() {
                samples.compile[i].push(t.ms);
                samples.compile_ref[i].push(t.reference_ms());
                samples.calib.push(t.calib_ms);
            }
        }
        let mut pass_ms = 0.0;
        for _ in 0..w.exec_reps() {
            let (o, t) = calib::time(|| run_cell(setup, i, &setup.compiled[i], cfg));
            let o = o.and_then(|o| check(setup, refs, i, &o).map(|()| o));
            if let Some(o) = tally.count(o) {
                guard(setup, i, &baseline[i], &o)?;
                samples.exec[i].push(t.ms);
                samples.exec_ref[i].push(t.reference_ms());
                samples.calib.push(t.calib_ms);
                pass_ms += t.ms;
                if let Some(s) = &o.service {
                    service_secs += t.ms / 1e3;
                    requests += s.requests;
                }
            }
        }
        samples.pass_exec[i].push(pass_ms);
    }
    if requests > 0 {
        samples.rps.push(requests as f64 / service_secs);
    }
    samples.passes += 1;
    Ok(())
}

/// Cell order of pass `n`: alternating direction, so slow drift of the
/// host's speed reaches every cell alike.
pub(crate) fn pass_order(ncells: usize, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..ncells).collect();
    if n % 2 == 1 {
        order.reverse();
    }
    order
}

/// Every GoFree-compiled cell paired with the same program's Go cell.
fn gofree_pairs(setup: &Setup) -> Vec<(usize, usize)> {
    (0..setup.programs.len())
        .flat_map(|p| {
            let go = setup.find(p, "go").expect("every workload has a go cell");
            ["gofree", "lastuse"]
                .into_iter()
                .filter_map(move |f| setup.find(p, f).map(|g| (g, go)))
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Virtual-clock metrics of one pass's outcomes (one per cell): exact
/// for a given seed. The end-to-end ratios, plus the per-layer runtime,
/// vm and service counts.
pub(crate) fn virtual_metrics(setup: &Setup, outs: &[Outcome]) -> Vec<(&'static str, f64)> {
    let mut v = Vec::new();
    let pairs = gofree_pairs(setup);
    let geo = |f: &dyn Fn(&Outcome) -> u64| {
        geomean(
            &pairs
                .iter()
                .map(|&(g, go)| f(&outs[g]) as f64 / f(&outs[go]) as f64)
                .collect::<Vec<_>>(),
        )
    };
    v.push(("vtime_ratio", geo(&|o| o.vtime())));
    v.push(("heap_ratio", geo(&|o| o.report.metrics.maxheap)));
    let sum_over = |cells: &mut dyn Iterator<Item = usize>, f: &dyn Fn(&Outcome) -> u64| {
        cells.map(|i| f(&outs[i]) as f64).sum::<f64>()
    };
    let gofree_cells = || pairs.iter().map(|&(g, _)| g);
    let go_cells = || pairs.iter().map(|&(_, go)| go);
    v.push((
        "free_ratio",
        sum_over(&mut gofree_cells(), &|o| o.report.metrics.freed_bytes)
            / sum_over(&mut gofree_cells(), &|o| o.report.metrics.alloced_bytes),
    ));
    v.push((
        "runtime.gc_count_ratio",
        ratio(
            sum_over(&mut gofree_cells(), &|o| o.report.metrics.gcs),
            sum_over(&mut go_cells(), &|o| o.report.metrics.gcs),
        ),
    ));
    // The paper's GC time: (GoFree - GCOff) / (Go - GCOff), summed over
    // the programs that have a GCOff cell.
    let (mut free_gc, mut go_gc) = (0.0, 0.0);
    for p in 0..setup.programs.len() {
        if let (Some(off), Some(go), Some(g)) = (
            setup.find(p, "gcoff"),
            setup.find(p, "go"),
            setup.find(p, "gofree"),
        ) {
            let off = outs[off].vtime() as f64;
            free_gc += outs[g].vtime() as f64 - off;
            go_gc += outs[go].vtime() as f64 - off;
        }
    }
    v.push(("runtime.gc_time_ratio", ratio(free_gc, go_gc)));
    v.push((
        "runtime.gc_vt_share",
        ratio(
            sum_over(&mut go_cells(), &|o| o.report.metrics.gc_ticks),
            sum_over(&mut go_cells(), &|o| o.vtime()),
        ),
    ));

    // Per-pass runtime and vm totals over every cell.
    let total = |f: &dyn Fn(&Outcome) -> u64| outs.iter().map(|o| f(o) as f64).sum::<f64>();
    v.push((
        "runtime.allocs",
        total(&|o| o.report.metrics.alloced_objects),
    ));
    v.push((
        "runtime.alloc_bytes",
        total(&|o| o.report.metrics.alloced_bytes),
    ));
    let attempts = total(&|o| o.report.metrics.tcfree_attempts);
    let bails = total(&|o| o.report.metrics.tcfree_bails.iter().sum());
    v.push(("runtime.tcfree_attempts", attempts));
    v.push(("runtime.tcfree_ok_ratio", ratio(attempts - bails, attempts)));
    for (i, name) in [
        "runtime.tcfree_bails.gc_running",
        "runtime.tcfree_bails.ownership_changed",
        "runtime.tcfree_bails.already_free",
        "runtime.tcfree_bails.span_swapped_out",
    ]
    .into_iter()
    .enumerate()
    {
        v.push((name, total(&|o| o.report.metrics.tcfree_bails[i])));
    }
    v.push(("runtime.gcs", total(&|o| o.report.metrics.gcs)));
    v.push(("vm.steps", total(&|o| o.report.steps)));
    let hits = total(&|o| o.report.ic_hits);
    v.push((
        "vm.ic_hit_ratio",
        ratio(hits, hits + total(&|o| o.report.ic_misses)),
    ));

    // The service layer, under GoFree; 0 on batch workloads.
    let svc = (0..setup.cells.len())
        .find(|&i| setup.cells[i].pipeline == "gofree")
        .and_then(|i| outs[i].service.as_ref());
    let gcoff = (0..setup.cells.len())
        .find(|&i| setup.cells[i].pipeline == "gcoff")
        .and_then(|i| outs[i].service.as_ref());
    let s = |f: &dyn Fn(&ServiceStats) -> u64| svc.map_or(0.0, |s| f(s) as f64);
    v.push(("service.lat_p50_vt", s(&|s| s.latency_q.p50)));
    v.push(("service.lat_p99_vt", s(&|s| s.latency_q.p99)));
    v.push(("service.lat_p999_vt", s(&|s| s.latency_q.p999)));
    v.push(("service.queue_p99_vt", s(&|s| s.queue_q.p99)));
    v.push(("service.pause_max_vt", s(&|s| s.pause_max())));
    v.push(("service.gcs", s(&|s| s.gcs())));
    v.push(("service.heap_hwm_bytes", s(&|s| s.heap_hwm)));
    v.push(("service.utilization", gcoff.map_or(0.0, utilization)));
    v
}

/// The exactness digest of a run: every virtual observable of the
/// baseline pass and every virtual metric derived from it.
pub(crate) fn digest(baseline: &[Outcome], virt: &[(&'static str, f64)]) -> u64 {
    let mut f = Fnv::default();
    for o in baseline {
        f.write(o.virtual_key().as_bytes());
    }
    for (name, value) in virt {
        f.write(name.as_bytes());
        f.write(&value.to_bits().to_le_bytes());
    }
    f.finish()
}

/// Host-clock end-to-end metrics from the untraced samples. Times are
/// in ms on the reference host; the GoFree/Go ratio needs no
/// calibration, since its two cells run next to each other in every
/// pass: it is the median over passes of that pass's ratio.
pub(crate) fn host_metrics(setup: &Setup, samples: &Samples) -> Vec<(&'static str, f64)> {
    let med = |v: &[Vec<f64>]| v.iter().map(|s| median(s)).collect::<Vec<_>>();
    let pe = &samples.pass_exec;
    let ratios: Vec<f64> = gofree_pairs(setup)
        .into_iter()
        .map(|(g, go)| {
            let per_pass: Vec<f64> = pe[g].iter().zip(&pe[go]).map(|(a, b)| a / b).collect();
            median(&per_pass)
        })
        .collect();
    vec![
        ("compile_ms", geomean(&med(&samples.compile_ref))),
        ("run_ms", geomean(&med(&samples.exec_ref))),
        ("host_time_ratio", geomean(&ratios)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_guard_refuses_a_backlogged_service() {
        assert!(capacity_guard(0.47).is_ok());
        assert!(capacity_guard(MAX_UTILIZATION + 0.01).is_err());
    }

    #[test]
    fn exactness_guard_accepts_repeats_and_catches_differences() {
        let setup = Setup::build(Workload::Subjects).unwrap();
        let run = |seed| run_cell(&setup, 0, &setup.compiled[0], &run_config(seed)).unwrap();
        let first = run(1);
        assert!(guard(&setup, 0, &first, &run(1)).is_ok());
        assert!(guard(&setup, 0, &first, &run(2)).is_err());
    }
}
