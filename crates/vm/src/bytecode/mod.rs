//! The bytecode execution engine.
//!
//! The AST is lowered once ([`lower`]) into a slot-indexed [`Module`] —
//! flat instruction vectors with explicit jump targets, dense frame
//! slots, and a shared constant pool — then executed by a loop-dispatch
//! VM ([`run_module`]). Observable behaviour (program output, free
//! counts, heap/GC metrics, virtual time) is identical to the
//! tree-walking interpreter in [`crate::interp`]; the differential tests
//! in the workspace enforce this across the whole workload corpus.

mod exec;
mod ir;
mod lower;
mod opt;

pub use exec::run_module;
pub(crate) use exec::BVm;
pub use ir::{BFunc, Const, Instr, Module};
pub use lower::lower;
pub use opt::{optimize, OptStats};

use minigo_escape::Analysis;
use minigo_syntax::{Program, Resolution, TypeInfo};

use crate::mutator::{Result, RunOutcome, VmConfig};

/// Lowers `program` and runs its `main` on the bytecode engine.
///
/// Convenience entry point matching [`crate::interp::run`]'s signature;
/// callers that already hold a lowered [`Module`] should use
/// [`run_module`] directly and skip the lowering cost.
///
/// # Errors
///
/// Returns the same [`ExecError`](crate::ExecError)s as the tree-walking
/// interpreter.
pub fn run(
    program: &Program,
    res: &Resolution,
    types: &TypeInfo,
    analysis: &Analysis,
    cfg: VmConfig,
) -> Result<RunOutcome> {
    let module = lower(program, res, types, analysis);
    run_module(&module, cfg)
}
