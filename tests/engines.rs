//! Differential tests: the bytecode engine — at both `--opt off`
//! (baseline lowering) and `--opt full` (the optimizer tier) — must be
//! observationally identical to the tree-walking interpreter:
//! byte-identical program output, the same `tcfree` insertion counts,
//! and bit-identical runtime metrics (allocations, frees, GC cycles,
//! virtual time) on every workload, in both Go and GoFree modes.

use gofree::{
    compile, execute, CompileOptions, Compiled, OptLevel, Report, RunConfig, Setting, VmEngine,
};
use gofree_workloads::{corpus, fuzzgen, micro, Scale};
use minigo_vm::{BSession, Session, VmConfig};

/// Runs one compiled program on the tree-walk and on the bytecode
/// engine at both opt levels, asserting every observable field of the
/// three reports matches.
fn assert_engines_agree(label: &str, compiled: &Compiled, setting: Setting, cfg: &RunConfig) {
    let run_on = |engine: VmEngine, opt: OptLevel| -> Report {
        let cfg = RunConfig {
            engine,
            opt,
            ..cfg.clone()
        };
        execute(compiled, setting, &cfg)
            .unwrap_or_else(|e| panic!("{label} ({setting}, {engine}, opt {opt}): {e}"))
    };
    let tree = run_on(VmEngine::TreeWalk, OptLevel::Off);
    for opt in [OptLevel::Off, OptLevel::Full] {
        let byte = run_on(VmEngine::Bytecode, opt);
        assert_eq!(
            tree.output, byte.output,
            "{label} ({setting}/{opt}): output"
        );
        assert_eq!(tree.time, byte.time, "{label} ({setting}/{opt}): time");
        assert_eq!(tree.steps, byte.steps, "{label} ({setting}/{opt}): steps");
        assert_eq!(
            format!("{:?}", tree.metrics),
            format!("{:?}", byte.metrics),
            "{label} ({setting}/{opt}): metrics"
        );
        assert_eq!(
            tree.site_profile, byte.site_profile,
            "{label} ({setting}/{opt}): site profile"
        );
    }
}

/// Compiles `src` both ways and checks engine agreement under Go and
/// GoFree (the two compilers produce different programs — both must
/// agree across engines), plus the GC-off setting.
fn check_source(label: &str, src: &str, cfg: &RunConfig) {
    let go = compile(src, &CompileOptions::go())
        .unwrap_or_else(|e| panic!("{label}: {}", e.render(src)));
    let gofree = compile(src, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("{label}: {}", e.render(src)));
    assert!(
        gofree.free_count() == gofree.analysis.stats.to_free,
        "{label}: free_count is engine-independent"
    );
    assert_engines_agree(label, &go, Setting::Go, cfg);
    assert_engines_agree(label, &go, Setting::GoGcOff, cfg);
    assert_engines_agree(label, &gofree, Setting::GoFree, cfg);
}

#[test]
fn engines_agree_on_all_workloads() {
    for w in gofree_workloads::all(Scale::Test) {
        check_source(w.name, &w.source, &RunConfig::deterministic(7));
    }
}

#[test]
fn engines_agree_on_lowfree_workload() {
    let w = gofree_workloads::programs::lowfree(Scale::Test);
    check_source(w.name, &w.source, &RunConfig::deterministic(7));
}

#[test]
fn engines_agree_with_jitter_and_migrations() {
    // Parity must hold for any seed, including with clock jitter and
    // scheduler migrations enabled: both engines must draw the same RNG
    // sequence from the simulated runtime.
    for seed in [0xDEAD_BEEF] {
        let cfg = RunConfig {
            seed,
            ..RunConfig::default()
        };
        for w in gofree_workloads::all(Scale::Test) {
            check_source(w.name, &w.source, &cfg);
        }
    }
}

#[test]
fn engines_agree_on_map_micro() {
    for &c in micro::C_VALUES {
        let src = micro::source(c, 20_000);
        check_source(&format!("micro c={c}"), &src, &RunConfig::deterministic(3));
    }
}

#[test]
fn engines_agree_on_generated_corpus() {
    for nfuncs in [1, 4, 16] {
        let src = corpus::generate(nfuncs);
        check_source(
            &format!("corpus n={nfuncs}"),
            &src,
            &RunConfig::deterministic(11),
        );
    }
}

#[test]
fn engines_agree_on_fuzzed_programs() {
    for seed in 0..40 {
        let src = fuzzgen::generate(seed);
        let label = format!("fuzz seed={seed}");
        // Fuzzed programs may legitimately fail at run time (bounds,
        // nil); both engines must then fail identically too, so compare
        // the full result including the error rendering.
        let go = compile(&src, &CompileOptions::go())
            .unwrap_or_else(|e| panic!("{label}: {}", e.render(&src)));
        let gofree = compile(&src, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{label}: {}", e.render(&src)));
        for (compiled, setting) in [(&go, Setting::Go), (&gofree, Setting::GoFree)] {
            let run_on = |engine: VmEngine, opt: OptLevel| {
                let cfg = RunConfig {
                    engine,
                    opt,
                    ..RunConfig::deterministic(5)
                };
                execute(compiled, setting, &cfg)
            };
            let tree = run_on(VmEngine::TreeWalk, OptLevel::Off);
            for opt in [OptLevel::Off, OptLevel::Full] {
                match (&tree, run_on(VmEngine::Bytecode, opt)) {
                    (Ok(t), Ok(b)) => {
                        assert_eq!(t.output, b.output, "{label} ({setting}/{opt}): output");
                        assert_eq!(t.time, b.time, "{label} ({setting}/{opt}): time");
                        assert_eq!(
                            format!("{:?}", t.metrics),
                            format!("{:?}", b.metrics),
                            "{label} ({setting}/{opt}): metrics"
                        );
                    }
                    (Err(t), Err(b)) => {
                        assert_eq!(
                            t.to_string(),
                            b.to_string(),
                            "{label} ({setting}/{opt}): error"
                        );
                    }
                    (t, b) => panic!(
                        "{label} ({setting}/{opt}): engines disagree on success: \
                         tree-walk={t:?} bytecode={b:?}"
                    ),
                }
            }
        }
    }
}

#[test]
fn opt_levels_agree_on_traces_and_folded_profiles() {
    // The optimizer tier must preserve the runtime event stream and the
    // stack-attributed profile bit-for-bit, not just the scalar
    // metrics: traced runs at `--opt off` and `--opt full` must emit
    // identical event sequences and fold to identical profiles.
    let cfg = RunConfig {
        trace: true,
        ..RunConfig::deterministic(7)
    };
    for w in gofree_workloads::all(Scale::Test) {
        let compiled = compile(&w.source, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {}", w.name, e.render(&w.source)));
        let run_at = |opt: OptLevel| -> Report {
            let cfg = RunConfig { opt, ..cfg.clone() };
            execute(&compiled, Setting::GoFree, &cfg)
                .unwrap_or_else(|e| panic!("{} (opt {opt}): {e}", w.name))
        };
        let off = run_at(OptLevel::Off);
        let full = run_at(OptLevel::Full);
        let t_off = off.trace.as_ref().expect("traced run");
        let t_full = full.trace.as_ref().expect("traced run");
        assert_eq!(
            format!("{:?}", t_off.events),
            format!("{:?}", t_full.events),
            "{}: trace events differ across opt levels",
            w.name
        );
        t_full
            .reconcile(&full.metrics)
            .unwrap_or_else(|e| panic!("{}: optimized trace reconciles: {e}", w.name));
        let p_off = gofree::Profile::build(t_off);
        let p_full = gofree::Profile::build(t_full);
        let folded_off =
            gofree::folded_stacks(&p_off, &t_off.stacks, gofree::FoldedMetric::AllocBytes);
        let folded_full =
            gofree::folded_stacks(&p_full, &t_full.stacks, gofree::FoldedMetric::AllocBytes);
        assert_eq!(
            folded_off, folded_full,
            "{}: folded profiles differ across opt levels",
            w.name
        );
        // The optimizer actually did something on real workloads, and
        // the run reports it.
        let stats = full.opt.as_ref().expect("optimized run carries stats");
        assert!(
            stats.instrs_after < stats.instrs_before,
            "{}: optimizer had no effect: {stats:?}",
            w.name
        );
        assert!(off.opt.is_none(), "{}: --opt off carries no stats", w.name);
    }
}

#[test]
fn lowered_jump_targets_are_all_patched_and_in_bounds() {
    // The lowerer resolves forward jumps through a single back-patch
    // table applied once per function; every emitted placeholder must
    // have been claimed. A leftover `usize::MAX` (or any out-of-bounds
    // target) in either the baseline or the optimized stream would mean
    // a patch was recorded against the wrong index.
    let mut srcs: Vec<(String, String)> = gofree_workloads::all(Scale::Test)
        .into_iter()
        .map(|w| (w.name.to_string(), w.source))
        .collect();
    for nfuncs in [1, 4, 16] {
        srcs.push((format!("corpus n={nfuncs}"), corpus::generate(nfuncs)));
    }
    for seed in 0..20 {
        srcs.push((format!("fuzz seed={seed}"), fuzzgen::generate(seed)));
    }
    for (label, src) in &srcs {
        for opts in [CompileOptions::go(), CompileOptions::default()] {
            let compiled =
                compile(src, &opts).unwrap_or_else(|e| panic!("{label}: {}", e.render(src)));
            for (stream, module) in [("lowered", &compiled.lowered), ("opt", &compiled.optimized)] {
                for f in &module.funcs {
                    for (pc, instr) in f.code.iter().enumerate() {
                        if let Some(t) = instr.jump_target() {
                            assert!(
                                t < f.code.len(),
                                "{label} ({stream}): {}@{pc} jumps to {t}, \
                                 out of bounds for {} instrs: {instr:?}",
                                f.name,
                                f.code.len()
                            );
                        }
                    }
                    assert!(
                        matches!(f.code.last(), Some(minigo_vm::bytecode::Instr::Ret)),
                        "{label} ({stream}): {} does not end in Ret",
                        f.name
                    );
                }
            }
        }
    }
}

#[test]
fn engines_agree_on_sample_programs() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/programs");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).expect("samples directory") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("mgo") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("readable");
        check_source(
            &path.display().to_string(),
            &src,
            &RunConfig::deterministic(1),
        );
        checked += 1;
    }
    assert!(checked > 0, "no sample programs found");
}

/// Runs `main` of `src` (GoFree compile) to its error on the tree-walk
/// and on the bytecode engine at `--opt off` and `--opt full`. Returns,
/// per engine, the error and the output printed before it, plus the
/// optimized stream's `main`.
fn run_to_error(label: &str, src: &str) -> (Vec<(String, String)>, String) {
    let c = compile(src, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("{label}: {}", e.render(src)));
    let err = |r: Result<Vec<minigo_vm::Value>, minigo_vm::ExecError>| match r {
        Err(e) => e.to_string(),
        Ok(_) => panic!("{label}: main returned without the expected error"),
    };
    let mut tree = Session::tree_walk(
        &c.program,
        &c.resolution,
        &c.types,
        &c.analysis,
        VmConfig::default(),
    )
    .expect("valid config");
    let e = err(tree.call("main", Vec::new()));
    let mut runs = vec![(e, tree.finish().output)];
    for module in [&c.lowered, &c.optimized] {
        let mut byte = BSession::new(module, VmConfig::default()).expect("valid config");
        let e = err(byte.call("main", Vec::new()));
        runs.push((e, byte.finish().output));
    }
    let main = c
        .optimized
        .funcs
        .iter()
        .find(|f| f.name == "main")
        .expect("main");
    (runs, format!("{:?}", main.code))
}

#[test]
fn engines_agree_on_errors_in_fused_forms() {
    // Errors are observables too: every fused form must raise the same
    // `ExecError` as the tree-walk and the unfused stream, after the
    // same output. (Not at the same virtual time: a fused instruction
    // charges its constituents' ticks up front, so its clock can run
    // ahead of the tree-walk's when it fails midway. A failed run
    // yields no report, so that clock is never observed.) Each
    // statement below fails inside one fused instruction (named beside
    // it, and checked to be in the optimized stream); the bytecode
    // engine's scalar fast paths must decline these operands and leave
    // the error to the generic handler.
    let cases = [
        ("print(a / z)", "LoadLoadBin {", "integer divide by zero"),
        ("b = a % z", "LoadLoadBinStore", "integer divide by zero"),
        ("print(a / 0)", "LoadConstBin {", "integer divide by zero"),
        ("b = a % 0", "LoadConstBinStore", "integer divide by zero"),
        ("print((a + 1) / z)", "BinSlot", "integer divide by zero"),
        ("print((a + 1) % 0)", "BinConst {", "integer divide by zero"),
        ("b = (a + 1) / 0", "BinConstStore", "integer divide by zero"),
        (
            "print(s[i])",
            "LoadLoadIndexGet",
            "index out of range [3] with length 3",
        ),
        (
            "print(s[n])",
            "LoadLoadIndexGet",
            "index out of range [-1] with length 3",
        ),
        (
            "print(s[3])",
            "LoadConstIndexGet",
            "index out of range [3] with length 3",
        ),
        (
            "s[i] = 1",
            "LoadLoadIndexSet",
            "index out of range [3] with length 3",
        ),
        (
            "s[5] = 1",
            "LoadConstIndexSet",
            "index out of range [5] with length 3",
        ),
        (
            "print(ns[z])",
            "LoadLoadIndexGet",
            "nil pointer dereference",
        ),
        (
            "print(ns[0])",
            "LoadConstIndexGet",
            "nil pointer dereference",
        ),
        ("ns[z] = 1", "LoadLoadIndexSet", "nil pointer dereference"),
        ("ns[0] = 1", "LoadConstIndexSet", "nil pointer dereference"),
    ];
    for (stmt, form, want) in cases {
        let src = format!(
            "func main() {{\n    a := 7\n    z := 0\n    b := 1\n    i := 3\n    n := -1\n    \
             s := make([]int, 3)\n    var ns []int\n    print(\"before\", a, b, i, n, len(s), len(ns))\n    \
             {stmt}\n    print(\"after\", b)\n}}\n"
        );
        let (runs, code) = run_to_error(stmt, &src);
        assert!(
            code.contains(form),
            "`{stmt}`: expected a {form} in the optimized stream: {code}"
        );
        let (tree_err, tree_out) = &runs[0];
        assert!(
            tree_err.contains(want),
            "`{stmt}`: tree-walk raised {tree_err:?}, expected {want:?}"
        );
        assert_eq!(
            tree_out, "before 7 1 3 -1 3 0\n",
            "`{stmt}`: output before the error"
        );
        for ((err, out), stream) in runs[1..].iter().zip(["opt off", "opt full"]) {
            assert_eq!(err, tree_err, "`{stmt}` ({stream}): error");
            assert_eq!(
                out, tree_out,
                "`{stmt}` ({stream}): output before the error"
            );
        }
    }
}

#[test]
fn engines_agree_with_batched_frees() {
    // `VmConfig::batch_frees` (§5, "Possibility of Batching") lets the
    // second and later `tcfree`s of an adjacent run share one call
    // overhead. The tree-walk batches adjacent `tcfree` statements, the
    // bytecode engine `Tcfree` instructions marked `follows_free`; both
    // must charge the same frees the same way. No `RunConfig` field
    // reaches this option, so the engines are driven directly.
    let cfg = |batch_frees| VmConfig {
        runtime: minigo_runtime::RuntimeConfig {
            seed: 7,
            migrate_prob: 0.0,
            jitter: 0.0,
            ..minigo_runtime::RuntimeConfig::default()
        },
        batch_frees,
        ..VmConfig::default()
    };
    let mut workloads = gofree_workloads::all(Scale::Test);
    workloads.push(gofree_workloads::programs::lowfree(Scale::Test));
    let mut batching_moved_time = false;
    for w in &workloads {
        let c = compile(&w.source, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{}: {}", w.name, e.render(&w.source)));
        let tree_run = |cfg| {
            minigo_vm::run(&c.program, &c.resolution, &c.types, &c.analysis, cfg)
                .unwrap_or_else(|e| panic!("{} (tree-walk): {e}", w.name))
        };
        let tree = tree_run(cfg(true));
        for (module, opt) in [(&c.lowered, "off"), (&c.optimized, "full")] {
            let byte = minigo_vm::run_module(module, cfg(true))
                .unwrap_or_else(|e| panic!("{} (opt {opt}): {e}", w.name));
            let label = format!("{} (batched, opt {opt})", w.name);
            assert_eq!(tree.output, byte.output, "{label}: output");
            assert_eq!(tree.time, byte.time, "{label}: time");
            assert_eq!(tree.steps, byte.steps, "{label}: steps");
            assert_eq!(
                format!("{:?}", tree.metrics),
                format!("{:?}", byte.metrics),
                "{label}: metrics"
            );
            assert_eq!(
                tree.site_profile, byte.site_profile,
                "{label}: site profile"
            );
        }
        batching_moved_time |= tree_run(cfg(false)).time != tree.time;
    }
    assert!(
        batching_moved_time,
        "batching changed no workload's virtual time: the batched path never ran"
    );
}

#[test]
fn session_calls_check_arity_on_every_engine() {
    // `Session::call` checks the argument count before any engine runs
    // the call: too few, too many, and arguments to a zero-parameter
    // function all fail with the same typed error on the tree-walk and
    // at both opt levels, and nothing runs (no output, no ticks).
    let src = "func add(a int, b int) int {\n    print(\"add\")\n    return a + b\n}\n\n\
               func zero() int {\n    print(\"zero\")\n    return 1\n}\n\nfunc main() {\n}\n";
    let c =
        compile(src, &CompileOptions::default()).unwrap_or_else(|e| panic!("{}", e.render(src)));
    let cases: [(&str, usize, &str); 3] = [
        ("add", 1, "func add() takes 2 arguments, called with 1"),
        ("add", 3, "func add() takes 2 arguments, called with 3"),
        ("zero", 1, "func zero() takes 0 arguments, called with 1"),
    ];
    for (name, nargs, want) in cases {
        let args = vec![minigo_vm::Value::Int(1); nargs];
        let sessions = [
            (
                "tree-walk",
                Session::tree_walk(
                    &c.program,
                    &c.resolution,
                    &c.types,
                    &c.analysis,
                    VmConfig::default(),
                ),
            ),
            ("opt off", BSession::new(&c.lowered, VmConfig::default())),
            ("opt full", BSession::new(&c.optimized, VmConfig::default())),
        ];
        for (engine, session) in sessions {
            let mut session = session.expect("valid config");
            let err = session
                .call(name, args.clone())
                .expect_err("wrong arity must fail");
            assert_eq!(
                err,
                minigo_vm::ExecError::Arity {
                    func: name.to_string(),
                    params: if name == "add" { 2 } else { 0 },
                    args: nargs,
                },
                "{name} with {nargs} args ({engine})"
            );
            assert_eq!(err.to_string(), want, "{name} ({engine})");
            let out = session.finish();
            assert_eq!(out.output, "", "{name} ({engine}): nothing ran");
            assert_eq!(out.time, 0, "{name} ({engine}): nothing was charged");
        }
    }
}
