//! The traced pass: the benchmark drives every layer through its public
//! functions itself, one span per layer call, and runs the runtime with
//! event tracing on. The layers carry no tracing of their own; every
//! span is recorded here, around the call.

use std::collections::BTreeMap;
use std::time::Instant;

use gofree::{
    compile, CompileOptions, Compiled, Histogram, Quantiles, RunConfig, ServiceStats, Setting,
};
use minigo_escape::{
    analyze, audit, instrument, instrument_with_plan, plan_placement, strip_unproven,
    AnalyzeOptions, AuditMode, FreePlacement, Mode,
};
use minigo_runtime::{CycleKind, RuntimeConfig};
use minigo_syntax::{parse, resolve, typecheck};
use minigo_vm::{lower, optimize, BSession, Value, VmConfig};

use crate::refs::Refs;
use crate::stats::{median, ms};
use crate::work::{check, compile_key, guard, run_cell, service_config, Outcome, Setup, Tally};

/// No parent.
const ROOT: u32 = u32::MAX;

/// One layer call: name, host interval in ns since the pass began, the
/// span that caused it, and the cell it served.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    /// Layer call name (`syntax.parse`, `service.handle`, ...).
    pub(crate) name: &'static str,
    /// Cell index, or `u32::MAX` outside any cell.
    pub(crate) cell: u32,
    /// Index of the enclosing span, or `u32::MAX`.
    pub(crate) parent: u32,
    /// Start, ns since the pass began.
    pub(crate) start_ns: u64,
    /// End, ns since the pass began.
    pub(crate) end_ns: u64,
}

/// An in-memory span recorder.
#[derive(Debug)]
pub(crate) struct Spans {
    origin: Instant,
    /// Every span recorded, in start order.
    pub(crate) spans: Vec<Span>,
    open: Vec<u32>,
    cell: u32,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: ROOT,
        }
    }
}

impl Spans {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub(crate) fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            cell: self.cell,
            parent: self.open.last().copied().unwrap_or(ROOT),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost span, which must be `id`; returns its length
    /// in ms.
    pub(crate) fn exit(&mut self, id: u32) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let end = self.now();
        let s = &mut self.spans[id as usize];
        s.end_ns = end;
        (end - s.start_ns) as f64 / 1e6
    }

    /// Times one call as a span with no children.
    pub(crate) fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let v = f();
        (v, self.exit(id))
    }

    /// Per-name call count, total and self time in ms (self = the span's
    /// length minus what its direct children cover).
    pub(crate) fn layer_table(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut t: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let e = t.entry(s.name).or_default();
            let len = s.end_ns - s.start_ns;
            e.0 += 1;
            e.1 += len as f64 / 1e6;
            e.2 += len.saturating_sub(c) as f64 / 1e6;
        }
        t
    }

    /// The spans as tab-separated lines: id, parent, cell, name, start,
    /// end (`-` for none).
    pub(crate) fn tsv(&self, setup: &Setup) -> String {
        let mut out = String::from("id\tparent\tcell\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let cell = if s.cell == ROOT {
                "-".to_string()
            } else {
                setup.label(s.cell as usize)
            };
            out.push_str(&format!(
                "{i}\t{parent}\t{cell}\t{}\t{}\t{}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// The layer calls of one compile, in pipeline order.
pub(crate) const COMPILE_LAYERS: [&str; 9] = [
    "syntax.parse",
    "syntax.resolve",
    "syntax.typecheck",
    "analysis.analyze",
    "analysis.liveness",
    "analysis.instrument",
    "analysis.audit",
    "vm.lower",
    "vm.optimize",
];

/// Host ms of each layer call of one compile, in call order.
pub(crate) type LayerTimes = Vec<(&'static str, f64)>;

/// `gofree::compile`, driven layer by layer: the same calls in the same
/// order, each timed as a span. Returns the compile and each layer's ms.
///
/// # Errors
///
/// A front-end diagnostic.
pub(crate) fn layered_compile(
    src: &str,
    opts: &CompileOptions,
    spans: &mut Spans,
) -> Result<(Compiled, LayerTimes), String> {
    let mut times = Vec::with_capacity(COMPILE_LAYERS.len());
    let mut timed = |spans: &mut Spans, name: &'static str, f: &mut dyn FnMut()| {
        let ((), dt) = spans.leaf(name, f);
        times.push((name, dt));
    };
    let render = |d: minigo_syntax::Diagnostic| d.render(src);

    let mut program = None;
    timed(spans, "syntax.parse", &mut || program = Some(parse(src)));
    let program = program.expect("ran").map_err(render)?;
    let mut resolution = None;
    timed(spans, "syntax.resolve", &mut || {
        resolution = Some(resolve(&program))
    });
    let mut resolution = resolution.expect("ran").map_err(render)?;
    let mut types = None;
    timed(spans, "syntax.typecheck", &mut || {
        types = Some(typecheck(&program, &resolution))
    });
    let mut types = types.expect("ran").map_err(render)?;

    let aopts = AnalyzeOptions {
        mode: opts.mode,
        free_targets: opts.free_targets,
        content_tags: opts.content_tags,
        back_propagation: opts.back_propagation,
        ..AnalyzeOptions::default()
    };
    let mut analysis = None;
    timed(spans, "analysis.analyze", &mut || {
        analysis = Some(analyze(&program, &resolution, &types, &aopts))
    });
    let analysis = analysis.expect("ran");

    let mut placement = None;
    let mut program = if opts.mode == Mode::GoFree {
        let mut out = None;
        if opts.free_placement == FreePlacement::LastUse {
            let mut plan = None;
            timed(spans, "analysis.liveness", &mut || {
                plan = Some(plan_placement(&program, &resolution, &types, &analysis))
            });
            let plan = plan.expect("ran");
            placement = Some(plan.stats);
            timed(spans, "analysis.instrument", &mut || {
                out = Some(instrument_with_plan(
                    &program,
                    &mut resolution,
                    &mut types,
                    &analysis,
                    &plan,
                ))
            });
        } else {
            timed(spans, "analysis.instrument", &mut || {
                out = Some(instrument(&program, &mut resolution, &analysis))
            });
        }
        out.expect("ran")
    } else {
        program
    };

    let mut report = None;
    let mut frees_suppressed = 0;
    if opts.mode == Mode::GoFree && opts.audit != AuditMode::Off {
        timed(spans, "analysis.audit", &mut || {
            let r = audit(&program, &resolution, &types);
            if opts.audit == AuditMode::Deny {
                let (stripped, removed) = strip_unproven(&program, &r);
                program = stripped;
                frees_suppressed = removed;
            }
            report = Some(r);
        });
        if let (Some(p), Some(r)) = (placement.as_mut(), report.as_ref()) {
            p.suppressed = r.unproven().count() as u64;
        }
    }

    let mut lowered = None;
    timed(spans, "vm.lower", &mut || {
        lowered = Some(lower(&program, &resolution, &types, &analysis))
    });
    let lowered = lowered.expect("ran");
    let mut opt = None;
    timed(spans, "vm.optimize", &mut || opt = Some(optimize(&lowered)));
    let (optimized, opt_stats) = opt.expect("ran");

    let compiled = Compiled {
        program,
        resolution,
        types,
        analysis,
        lowered,
        optimized,
        opt_stats,
        audit: report,
        frees_suppressed,
        placement,
        phase_times: Vec::new(),
    };
    Ok((compiled, times))
}

/// A service run driven by the benchmark through the public
/// `BSession` API, timing every `handle` call. It replays
/// `gofree::run_service` step for step, so its stats must equal that
/// function's.
pub(crate) struct Session {
    /// The replayed harness observables.
    pub(crate) stats: ServiceStats,
    /// Host µs of each `handle` call.
    pub(crate) handle_us: Vec<f64>,
    /// Host ms of the whole session, set-up to finish.
    pub(crate) total_ms: f64,
}

/// Drives one service session (see [`Session`]).
///
/// # Errors
///
/// A VM error.
pub(crate) fn drive_session(
    compiled: &Compiled,
    setting: Setting,
    cfg: &RunConfig,
    spans: &mut Spans,
) -> Result<Session, String> {
    let t0 = Instant::now();
    let runtime = RuntimeConfig {
        gc_enabled: setting.gc_enabled(),
        gogc: cfg.gogc,
        min_heap: cfg.min_heap,
        migrate_prob: cfg.migrate_prob,
        seed: cfg.seed,
        jitter: cfg.jitter,
        poison: cfg.poison,
        trace: cfg.trace,
        trace_cap: cfg.trace_cap,
        collector: cfg.collector,
        nursery_size: cfg.nursery_size,
        ..RuntimeConfig::default()
    };
    let vm_cfg = VmConfig {
        runtime,
        step_limit: cfg.step_limit,
        grow_map_free_old: compiled.analysis.options.mode == Mode::GoFree,
        sanitize: cfg.sanitize,
        ..VmConfig::default()
    };
    let svc = service_config();
    let arrivals = svc.schedule(cfg.seed);
    let err = |e: minigo_vm::ExecError| e.to_string();
    let mut sess = BSession::new(&compiled.optimized, vm_cfg).map_err(err)?;
    let state = sess.call("setup", Vec::new()).map_err(err)?;
    sess.hold(state.clone());

    let mut stats = ServiceStats {
        requests: 0,
        checksum: 0,
        total_time: 0,
        latency: Histogram::new(),
        service_time: Histogram::new(),
        queue: Histogram::new(),
        latency_q: Quantiles::default(),
        queue_q: Quantiles::default(),
        pause_minor: Histogram::new(),
        pause_major: Histogram::new(),
        heap_hwm: 0,
        footprint_hwm: 0,
    };
    let mut handle_us = Vec::with_capacity(arrivals.len());
    let mut latencies = Vec::with_capacity(arrivals.len());
    let mut queues = Vec::with_capacity(arrivals.len());
    let mut pauses_seen = 0;
    for (i, &arrival) in arrivals.iter().enumerate() {
        sess.idle_until(arrival);
        let start = sess.now();
        let mut args = state.clone();
        args.push(Value::Int(i as i64));
        let id = spans.enter("service.handle");
        let results = sess.call("handle", args);
        handle_us.push(spans.exit(id) * 1e3);
        let results = results.map_err(err)?;
        let done = sess.now();
        sess.note_request(i as u64, arrival, start);
        for v in &results {
            if let Value::Int(n) = v {
                stats.checksum = stats.checksum.wrapping_add(*n);
            }
        }
        stats.latency.record(done - arrival);
        stats.service_time.record(done - start);
        stats.queue.record(start - arrival);
        latencies.push(done - arrival);
        queues.push(start - arrival);
        stats.heap_hwm = stats.heap_hwm.max(sess.heap_live());
        stats.footprint_hwm = stats.footprint_hwm.max(sess.footprint());
        for p in &sess.pauses()[pauses_seen..] {
            match p.kind {
                CycleKind::Minor => stats.pause_minor.record(p.ticks),
                CycleKind::Major => stats.pause_major.record(p.ticks),
            }
        }
        pauses_seen = sess.pauses().len();
        stats.requests += 1;
    }
    stats.total_time = sess.now();
    latencies.sort_unstable();
    queues.sort_unstable();
    stats.latency_q = Quantiles::from_sorted(&latencies);
    stats.queue_q = Quantiles::from_sorted(&queues);
    drop(sess.finish());
    Ok(Session {
        stats,
        handle_us,
        total_ms: ms(t0.elapsed()),
    })
}

/// Samples of the traced passes.
#[derive(Debug, Default)]
pub(crate) struct TracedSamples {
    /// Layer name → per-cell ms samples.
    pub(crate) layers: BTreeMap<&'static str, Vec<Vec<f64>>>,
    /// Per cell: ms of one `gofree::compile`, timed beside the layered
    /// compile.
    pub(crate) pipeline: Vec<Vec<f64>>,
    /// Per cell: ms of the summed layer calls of one layered compile.
    pub(crate) layered: Vec<Vec<f64>>,
    /// Per cell: ms of the traced path (layered compile + execution with
    /// runtime tracing).
    pub(crate) traced_path: Vec<Vec<f64>>,
    /// Host µs of each GoFree `handle` call.
    pub(crate) handle_us: Vec<f64>,
    /// Host ms of GoFree driven sessions, and of their `handle` calls.
    pub(crate) session_ms: f64,
    /// See `session_ms`.
    pub(crate) handle_ms: f64,
    /// Runtime trace events of the last traced pass.
    pub(crate) events: u64,
    /// Whether every runtime trace reconciled with its run's metrics.
    pub(crate) reconciled: bool,
    /// Passes completed.
    pub(crate) passes: usize,
    /// The spans of every traced pass.
    pub(crate) spans: Spans,
}

impl TracedSamples {
    /// Empty samples for `n` cells.
    pub(crate) fn new(n: usize) -> TracedSamples {
        TracedSamples {
            layers: COMPILE_LAYERS
                .iter()
                .map(|&l| (l, vec![Vec::new(); n]))
                .collect(),
            pipeline: vec![Vec::new(); n],
            layered: vec![Vec::new(); n],
            traced_path: vec![Vec::new(); n],
            reconciled: true,
            ..TracedSamples::default()
        }
    }
}

/// One traced pass over every cell in `order`.
///
/// # Errors
///
/// An exactness-guard violation, or a layered compile that differs from
/// `gofree::compile`.
pub(crate) fn traced_pass(
    setup: &Setup,
    refs: &Refs,
    cfg: &RunConfig,
    baseline: &[Outcome],
    order: &[usize],
    ts: &mut TracedSamples,
    tally: &mut Tally,
) -> Result<(), String> {
    let traced_cfg = RunConfig {
        trace: true,
        ..cfg.clone()
    };
    let pass = ts.spans.enter("pass");
    let mut events = 0u64;
    for &i in order {
        let cell = &setup.cells[i];
        let src = &setup.programs[cell.program].source;
        ts.spans.cell = i as u32;
        let cell_span = ts.spans.enter("cell");

        // The compile layer by layer, and the same compile in one call;
        // which goes first alternates between passes, so warm caches
        // favour neither.
        let whole_first = ts.passes % 2 == 1;
        let mut whole = None;
        if whole_first {
            whole = Some(ts.spans.leaf("gofree.compile", || compile(src, &cell.opts)));
        }
        let t = Instant::now();
        let id = ts.spans.enter("compile");
        let layered = layered_compile(src, &cell.opts, &mut ts.spans);
        ts.spans.exit(id);
        let compile_ms = ms(t.elapsed());
        if !whole_first {
            whole = Some(ts.spans.leaf("gofree.compile", || compile(src, &cell.opts)));
        }
        let (whole, dt) = whole.expect("compiled above");
        ts.pipeline[i].push(dt);
        let Some((hand, times)) =
            tally.count(layered.map_err(|e| format!("{}: {e}", setup.label(i))))
        else {
            ts.spans.exit(cell_span);
            continue;
        };
        for (name, dt) in &times {
            ts.layers.get_mut(name).expect("declared layer")[i].push(*dt);
        }
        ts.layered[i].push(times.iter().map(|(_, dt)| dt).sum());
        let (same, _) = ts.spans.leaf("bench.check", || {
            whole.map_err(|d| d.render(src)).and_then(|whole| {
                let (a, b) = (compile_key(&hand), compile_key(&whole));
                if a == b && hand.instrumented_source() == whole.instrumented_source() {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: layered compile differs: {a} vs {b}",
                        setup.label(i)
                    ))
                }
            })
        });
        tally.count(same);

        // The execution with runtime tracing on: out of band, so every
        // virtual observable must still equal the untraced baseline.
        let t = Instant::now();
        let (o, _) = ts.spans.leaf("vm.execute_traced", || {
            run_cell(setup, i, &hand, &traced_cfg)
        });
        let exec_ms = ms(t.elapsed());
        let o = o.and_then(|o| check(setup, refs, i, &o).map(|()| o));
        if let Some(o) = tally.count(o) {
            guard(setup, i, &baseline[i], &o)?;
            let trace = o.report.trace.as_ref().expect("tracing was on");
            events += trace.events.len() as u64;
            if let Err(e) = trace.reconcile(&o.report.metrics) {
                eprintln!("{}: {e}", setup.label(i));
                ts.reconciled = false;
            }
            ts.traced_path[i].push(compile_ms + exec_ms);
        }

        // A service session driven call by call, runtime tracing off.
        if baseline[i].service.is_some() {
            let id = ts.spans.enter("service.session");
            let s = drive_session(&setup.compiled[i], cell.setting, cfg, &mut ts.spans);
            ts.spans.exit(id);
            let s = s
                .map_err(|e| format!("{}: {e}", setup.label(i)))
                .and_then(|s| {
                    if Some(&s.stats) == baseline[i].service.as_ref() {
                        Ok(s)
                    } else {
                        Err(format!(
                            "{}: driven session differs from run_service",
                            setup.label(i)
                        ))
                    }
                });
            if let Some(s) = tally.count(s) {
                if cell.setting == Setting::GoFree {
                    ts.session_ms += s.total_ms;
                    ts.handle_ms += s.handle_us.iter().sum::<f64>() / 1e3;
                    ts.handle_us.extend(s.handle_us);
                }
            }
        }
        ts.spans.exit(cell_span);
    }
    ts.spans.cell = ROOT;
    ts.spans.exit(pass);
    ts.events = events;
    ts.passes += 1;
    Ok(())
}

/// Sum over cells of the median of each cell's samples (cells without
/// samples contribute 0): ms per pass over the workload.
pub(crate) fn per_pass(samples: &[Vec<f64>]) -> f64 {
    samples
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .fold(0.0, |a, b| a + b)
}
