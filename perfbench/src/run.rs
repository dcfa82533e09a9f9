//! One benchmark run: arguments, set-up, the untraced passes, the
//! traced pass, and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::calib;
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::micro;
use crate::refs::Refs;
use crate::stats::{median, peak_rss_mb, percentile, ratio};
use crate::traced::{per_pass, traced_pass, TracedSamples};
use crate::work::{
    digest, host_metrics, pass_order, reference_pass, run_config, timed_pass, virtual_metrics,
    Samples, Setup, Tally, Workload,
};

/// Share of an end-to-end run's measuring time spent on repeated
/// set-ups; `setup_s` is the median of all of them, in seconds on the
/// reference host.
const SETUP_SHARE: f64 = 0.1;
/// Most set-ups per run.
const MAX_SETUPS: usize = 1000;
/// Fewest timed passes of a full run, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// Where the traced pass writes its spans and layer table.
pub(crate) const OUT_DIR: &str = ".bench_out";

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub(crate) workload: Workload,
    /// Run seed.
    pub(crate) seed: u64,
    /// Seconds of measurement.
    pub(crate) seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end one.
    pub(crate) trace: bool,
    /// One pass of each kind and one set-up, for tests.
    pub(crate) smoke: bool,
}

/// What the command line asks for.
#[derive(Debug)]
pub enum Command {
    /// Measure.
    Run(Args),
    /// Regenerate the reference files.
    WriteRefs,
}

/// The usage line.
pub const USAGE: &str = "usage: perfbench --workload subjects|corpus-compile|kv-poisson \
--seed N --seconds S --trace 0|1 [--smoke]\n       perfbench --write-refs";

/// Parses the command line strictly.
///
/// # Errors
///
/// An unknown flag, a missing or malformed value.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    if args == ["--write-refs"] {
        return Ok(Command::WriteRefs);
    }
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    }))
}

/// Repeats `pass(n)` for `budget`, at least `min` times.
fn repeat(
    budget: Duration,
    min: usize,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let t = Instant::now();
    let mut n = 0;
    while n < min || t.elapsed() < budget {
        pass(n)?;
        n += 1;
    }
    Ok(())
}

/// Runs the benchmark; returns the lines to print on stdout, the result
/// line last.
///
/// # Errors
///
/// A set-up failure, a baseline pass that fails its references, an
/// over-capacity service, or an exactness-guard violation.
pub fn run(args: &Args) -> Result<Vec<String>, String> {
    let w = args.workload;
    let refs = Refs::load(w)?;
    let (setup, t) = calib::time(|| Setup::build(w));
    let setup = setup?;
    let mut setup_s = vec![t.reference_ms() / 1e3];
    let mut setup_host_s = t.ms / 1e3;
    let cfg = run_config(args.seed);
    let mut tally = Tally::default();
    let baseline = reference_pass(&setup, &refs, &cfg, &mut tally)?;
    let virt = virtual_metrics(&setup, &baseline);
    let digest = digest(&baseline, &virt);

    let n = setup.cells.len();
    let mut samples = Samples::new(n);
    let mut ts = TracedSamples::new(n);
    let measuring = Instant::now();
    // A traced run alternates untraced and traced passes, so the tracing
    // overhead is not confounded with drift in the host's speed.
    let stride = if args.trace { 2 } else { 1 };
    let min = stride * if args.smoke { 1 } else { MIN_PASSES };
    let budget = if args.smoke {
        Duration::ZERO
    } else {
        Duration::from_secs(args.seconds)
    };
    repeat(budget, min, |p| {
        let order = pass_order(n, p / stride);
        if args.trace && p % 2 == 1 {
            return traced_pass(&setup, &refs, &cfg, &baseline, &order, &mut ts, &mut tally);
        }
        timed_pass(
            &setup,
            &refs,
            &cfg,
            &baseline,
            &order,
            &mut samples,
            &mut tally,
        )?;
        // Set-up samples are spread over the whole run, like the others.
        let wanted = SETUP_SHARE * measuring.elapsed().as_secs_f64();
        while !args.trace && setup_s.len() < MAX_SETUPS && setup_host_s < wanted {
            let (again, t) = calib::time(|| Setup::build(w));
            drop(std::hint::black_box(again?));
            setup_s.push(t.reference_ms() / 1e3);
            setup_host_s += t.ms / 1e3;
        }
        Ok(())
    })?;

    let mut values = Values::default();
    let mut lines = vec![format!(
        "digest {digest:016x} ({} virtual observables and metrics, identical in every pass)",
        w.name()
    )];
    if args.trace {
        let costs = micro::measure(args.seed);
        per_layer(&setup, &samples, &ts, &costs, &virt, tally, &mut values);
        let report = layer_report(&setup, &samples, &ts, &costs, &values, &baseline);
        eprint!("{report}");
        write_outputs(&setup, &ts, &report)?;
    } else {
        values.set("setup_s", median(&setup_s));
        values.set("peak_rss_mb", peak_rss_mb()?);
        for (name, v) in host_metrics(&setup, &samples) {
            values.set(name, v);
        }
        for &(name, v) in &virt {
            if END_TO_END.iter().any(|m| m.name == name) {
                values.set(name, v);
            }
        }
    }
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    lines.push(values.result_line(declared, tally.failed == 0, tally.attempted, tally.failed)?);
    Ok(lines)
}

/// Analysis and lowering counts of one pass over the compile cells.
fn compile_counts(setup: &Setup) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&gofree::Compiled) -> usize| {
        setup.compiled.iter().map(|c| f(c) as f64).sum::<f64>()
    };
    let sites = sum(&|c| c.audit.as_ref().map_or(0, |a| a.sites.len()));
    vec![
        (
            "syntax.src_bytes",
            setup
                .cells
                .iter()
                .map(|c| setup.programs[c.program].source.len() as f64)
                .sum(),
        ),
        (
            "analysis.solve_walks",
            sum(&|c| c.analysis.stats.solve.walks),
        ),
        (
            "analysis.solve_relaxations",
            sum(&|c| c.analysis.stats.solve.relaxations),
        ),
        ("analysis.to_free", sum(&|c| c.free_count())),
        (
            "analysis.lastuse_advanced",
            sum(&|c| c.placement.map_or(0, |p| p.lastuse_advanced as usize)),
        ),
        (
            "analysis.audit_proved_ratio",
            ratio(sum(&|c| c.audit.as_ref().map_or(0, |a| a.proved())), sites),
        ),
        ("vm.instrs_lowered", sum(&|c| c.lowered.instr_count())),
        ("vm.instrs_optimized", sum(&|c| c.optimized.instr_count())),
    ]
}

/// Host ms of Go minus Go-GCOff execution, per program with both cells.
fn gc_host_ms(setup: &Setup, samples: &Samples) -> Vec<(usize, f64, f64)> {
    (0..setup.programs.len())
        .filter_map(|p| {
            let (go, off) = (setup.find(p, "go")?, setup.find(p, "gcoff")?);
            Some((p, median(&samples.exec[go]), median(&samples.exec[off])))
        })
        .collect()
}

fn per_layer(
    setup: &Setup,
    samples: &Samples,
    ts: &TracedSamples,
    costs: &micro::MicroCosts,
    virt: &[(&'static str, f64)],
    tally: Tally,
    values: &mut Values,
) {
    for &(name, v) in virt {
        if PER_LAYER.iter().any(|m| m.name == name) {
            values.set(name, v);
        }
    }
    for (name, v) in compile_counts(setup) {
        values.set(name, v);
    }
    let layer = |name: &str| per_pass(&ts.layers[name]);
    for (metric, span) in [
        ("syntax.parse_ms", "syntax.parse"),
        ("syntax.resolve_ms", "syntax.resolve"),
        ("syntax.typecheck_ms", "syntax.typecheck"),
        ("analysis.analyze_ms", "analysis.analyze"),
        ("analysis.liveness_ms", "analysis.liveness"),
        ("analysis.instrument_ms", "analysis.instrument"),
        ("analysis.audit_ms", "analysis.audit"),
        ("vm.lower_ms", "vm.lower"),
        ("vm.optimize_ms", "vm.optimize"),
    ] {
        values.set(metric, layer(span));
    }
    let src_mb = values.get("syntax.src_bytes").expect("set above") / 1e6;
    values.set(
        "syntax.parse_mb_per_s",
        ratio(src_mb, layer("syntax.parse") / 1e3),
    );
    let exec_ms = per_pass(&samples.exec);
    values.set("vm.exec_ms", exec_ms);
    let steps = values.get("vm.steps").expect("virtual metric");
    values.set("vm.ns_per_step", ratio(exec_ms * 1e6, steps));
    values.set(
        "runtime.gc_host_ms",
        gc_host_ms(setup, samples)
            .iter()
            .fold(0.0, |sum, (_, go, off)| sum + go - off),
    );
    values.set("runtime.alloc_ns", costs.alloc_ns);
    values.set("runtime.tcfree_ns", costs.tcfree_ns);
    values.set("runtime.collect_ns_per_obj", costs.collect_ns_per_obj);
    values.set(
        "service.host_rps",
        if samples.rps.is_empty() {
            0.0
        } else {
            median(&samples.rps)
        },
    );
    let (p50, p99) = if ts.handle_us.is_empty() {
        (0.0, 0.0)
    } else {
        (
            percentile(&ts.handle_us, 50.0),
            percentile(&ts.handle_us, 99.0),
        )
    };
    values.set("service.handle_us_p50", p50);
    values.set("service.handle_us_p99", p99);
    values.set(
        "service.harness_overhead_ratio",
        ratio(ts.session_ms - ts.handle_ms, ts.session_ms),
    );
    values.set(
        "core.pipeline_overhead_ms",
        per_pass(&ts.pipeline) - per_pass(&ts.layered),
    );
    values.set(
        "core.error_rate",
        ratio(tally.failed as f64, tally.attempted as f64),
    );
    values.set("trace.events", ts.events as f64);
    values.set("trace.reconciled", if ts.reconciled { 1.0 } else { 0.0 });
    values.set(
        "trace.overhead_ratio",
        ratio(
            per_pass(&ts.traced_path),
            per_pass(&samples.compile) + per_pass(&samples.exec),
        ),
    );
}

/// The traced run's human-readable report: per-layer span table, the
/// per-layer metrics, and the cost-model cross-check.
fn layer_report(
    setup: &Setup,
    samples: &Samples,
    ts: &TracedSamples,
    costs: &micro::MicroCosts,
    values: &Values,
    baseline: &[crate::work::Outcome],
) -> String {
    let mut out = String::new();
    let w = setup.workload.name();
    let _ = writeln!(
        out,
        "== {w}: spans of {} traced pass(es), {} untraced pass(es)",
        ts.passes, samples.passes
    );
    let _ = writeln!(
        out,
        "{:<22} {:>9} {:>12} {:>12}",
        "span", "calls", "total ms", "self ms"
    );
    for (name, (calls, total, own)) in ts.spans.layer_table() {
        let _ = writeln!(out, "{name:<22} {calls:>9} {total:>12.3} {own:>12.3}");
    }
    let _ = writeln!(out, "== {w}: per-layer metrics");
    for m in PER_LAYER {
        if let Some(v) = values.get(m.name) {
            let _ = writeln!(out, "{:<40} {v:>16.6} {}", m.name, m.unit);
        }
    }
    let _ = writeln!(
        out,
        "== {w}: GC share, host clock vs virtual clock (Go setting)"
    );
    let _ = writeln!(
        out,
        "{:<12} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "program", "go ms", "gcoff ms", "host gc%", "vt gc%", "vt go-off%"
    );
    for (p, go, off) in gc_host_ms(setup, samples) {
        let cell = |pl| &baseline[setup.find(p, pl).expect("gc_host_ms found it")];
        let (g, o) = (cell("go"), cell("gcoff"));
        let _ = writeln!(
            out,
            "{:<12} {go:>10.3} {off:>10.3} {:>9.1}% {:>9.1}% {:>11.1}%",
            setup.programs[p].name,
            100.0 * (go - off) / go,
            100.0 * g.report.metrics.gc_ticks as f64 / g.vtime() as f64,
            100.0 * (g.vtime() as f64 - o.vtime() as f64) / g.vtime() as f64,
        );
    }
    out.push_str(&micro::cost_model_table(costs));
    let _ = writeln!(
        out,
        "== {w}: calibration unit, median {:.4} host ms over {} timed operations \
         (reference host {} ms; end-to-end times are scaled by the ratio)",
        median(&samples.calib),
        samples.calib.len(),
        calib::REFERENCE_MS
    );
    out
}

fn write_outputs(setup: &Setup, ts: &TracedSamples, report: &str) -> Result<(), String> {
    let dir = std::path::Path::new(OUT_DIR).join(setup.workload.name());
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    for (file, text) in [
        ("spans.tsv", ts.spans.tsv(setup)),
        ("layers.txt", report.to_string()),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}
