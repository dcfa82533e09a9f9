//! Persistent execution sessions over either engine.
//!
//! A [`Session`] is one runtime, one heap and one virtual clock, driven
//! through repeated function calls instead of a single `main`. One-shot
//! runs ([`crate::run`], [`crate::run_module`]) are sessions that call
//! `main` once; the service harness calls request handlers against
//! state that survives between calls, so GC pacing, tcfree bail-outs and
//! heap growth accumulate across requests exactly as they would inside
//! one long-running program.

use minigo_escape::Analysis;
use minigo_syntax::{Program, Resolution, TypeInfo};

use crate::bytecode::{BVm, Module};
use crate::error::ExecError;
use crate::interp::Vm;
use crate::mutator::{Mutator, Result, RunOutcome, VmConfig};
use crate::value::Value;

/// What a [`Session`] needs from an execution engine: its functions, its
/// ordinary call protocol, and the [`Mutator`] it runs against.
pub(crate) trait Engine {
    /// The function named `name`: its index and parameter count.
    fn lookup(&self, name: &str) -> Option<(usize, usize)>;
    /// The index of `main`.
    fn main(&self) -> Option<usize> {
        self.lookup("main").map(|(func, _)| func)
    }
    /// Calls function `func` with `args` exactly as the engine's own
    /// calls do, returning its results.
    fn invoke(&mut self, func: usize, args: Vec<Value>) -> Result<Vec<Value>>;
    fn mu(&self) -> &Mutator;
    fn mu_mut(&mut self) -> &mut Mutator;
    /// Finishes the run and assembles its report.
    fn finish(self: Box<Self>) -> RunOutcome;
}

/// A persistent execution session on either engine.
///
/// Values returned by one call may be passed back into later calls; to
/// keep them (and everything reachable from them) alive across the GC
/// cycles in between, root them with [`Session::hold`].
pub struct Session<'a> {
    engine: Box<dyn Engine + 'a>,
}

/// The bytecode engine's session: [`Session::new`] opens one.
pub type BSession<'m> = Session<'m>;

impl<'a> Session<'a> {
    fn open<E: Engine + 'a>(cfg: VmConfig, engine: impl FnOnce(Mutator) -> E) -> Result<Self> {
        cfg.runtime.validate().map_err(ExecError::InvalidConfig)?;
        Ok(Session {
            engine: Box::new(engine(Mutator::new(cfg))),
        })
    }

    /// Opens a session on the bytecode engine, over a lowered (optionally
    /// optimized) module.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidConfig`] when the runtime
    /// configuration fails validation.
    pub fn new(module: &'a Module, cfg: VmConfig) -> Result<Self> {
        Self::open(cfg, |mu| BVm::new(module, mu))
    }

    /// Opens a session on the tree-walking interpreter.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidConfig`] when the runtime
    /// configuration fails validation.
    pub fn tree_walk(
        program: &'a Program,
        res: &'a Resolution,
        types: &'a TypeInfo,
        analysis: &'a Analysis,
        cfg: VmConfig,
    ) -> Result<Self> {
        Self::open(cfg, |mu| Vm::new(program, res, types, analysis, mu))
    }

    /// Calls a top-level function by name and returns its results. The
    /// call costs exactly what the same call would cost inside a
    /// program: it goes through the engine's ordinary call protocol, so
    /// session runs stay bit-identical across engines.
    ///
    /// # Errors
    ///
    /// [`ExecError::NoFunc`] for an unknown name, [`ExecError::Arity`]
    /// when `args` does not match the parameter count; otherwise
    /// whatever the call itself raises.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Vec<Value>> {
        let (func, params) = self
            .engine
            .lookup(name)
            .ok_or_else(|| ExecError::NoFunc(name.to_string()))?;
        if args.len() != params {
            return Err(ExecError::Arity {
                func: name.to_string(),
                params,
                args: args.len(),
            });
        }
        self.engine.invoke(func, args)
    }

    /// Calls `main`, discarding its results: a one-shot run.
    ///
    /// # Errors
    ///
    /// [`ExecError::NoMain`] when the program has no `main`; otherwise
    /// whatever the call raises.
    pub fn run_main(&mut self) -> Result<()> {
        let main = self.engine.main().ok_or(ExecError::NoMain)?;
        self.engine.invoke(main, Vec::new()).map(drop)
    }

    /// Roots `values` for the rest of the session: they (and everything
    /// reachable from them) survive every GC cycle until
    /// [`Session::finish`].
    pub fn hold(&mut self, values: Vec<Value>) {
        self.engine.mu_mut().hold(values);
    }

    /// Elapsed virtual time.
    pub fn now(&self) -> u64 {
        self.engine.mu().rt.now()
    }

    /// Advances the virtual clock to absolute time `t` (idle waiting; see
    /// [`Runtime::idle_until`](minigo_runtime::Runtime::idle_until)).
    pub fn idle_until(&mut self, t: u64) {
        self.engine.mu_mut().rt.idle_until(t);
    }

    /// Current live heap bytes.
    pub fn heap_live(&self) -> u64 {
        self.engine.mu().rt.heap_live()
    }

    /// Current page-level heap footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.engine.mu().rt.footprint()
    }

    /// Every completed GC cycle's stop record so far.
    pub fn pauses(&self) -> &[minigo_runtime::Pause] {
        self.engine.mu().rt.pauses()
    }

    /// Records a completed-request trace span (no-op without tracing).
    pub fn note_request(&mut self, id: u64, arrival: u64, start: u64) {
        self.engine.mu_mut().rt.trace_request(id, arrival, start);
    }

    /// Ends the session: finalizes the runtime (leftover objects count
    /// toward the GC columns, held state included) and assembles the
    /// same [`RunOutcome`] a one-shot run would produce.
    pub fn finish(self) -> RunOutcome {
        self.engine.finish()
    }
}
