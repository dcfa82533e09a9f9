//! The bytecode engine: a loop-dispatch VM over the slot-indexed IR.
//!
//! Executes one instruction stream per function against the same
//! [`Mutator`] as the tree-walking interpreter, with identical
//! observable behaviour: the sequence of allocations, frees, safepoints,
//! and GC cycles — and the total clock charge per statement — match the
//! tree-walk exactly, so outputs, free counts, and heap/GC metrics are
//! bit-identical across engines (enforced by the differential tests).
//!
//! Frames hold a dense `Vec` of slots instead of a `HashMap<VarId, _>`;
//! each call's operand stack is a plain local `Vec`. Operand-stack
//! temporaries are deliberately *not* GC roots: the collector marks
//! only frame slots and deferred-call arguments (see [`Roots`]).

use std::rc::Rc;

use minigo_syntax::{BinOp, Builtin};

use super::ir::{BFunc, Const, Instr, Module};
use crate::error::ExecError;
use crate::interp::{binop_rt, check_poison, int_bin, len_of, len_ref, reslice, value_eq};
use crate::mutator::{DeferKind, Deferred, Mutator, Result, Roots, RunOutcome, Slot, VmConfig};
use crate::session::{Engine, Session};
use crate::value::{Key, MapVal, PtrVal, SliceVal, Value};

/// Runs a lowered module's `main`.
///
/// # Errors
///
/// Returns the same [`ExecError`]s as the tree-walking interpreter:
/// panics, nil dereferences, bounds errors, poisoned reads, and
/// resource-limit violations.
pub fn run_module(module: &Module, cfg: VmConfig) -> Result<RunOutcome> {
    let mut session = Session::new(module, cfg)?;
    session.run_main()?;
    Ok(session.finish())
}

struct BFrame {
    slots: Vec<Slot>,
    defers: Vec<Deferred>,
}

impl Roots for BFrame {
    fn slots(&self) -> impl Iterator<Item = &Slot> {
        self.slots.iter()
    }

    fn defers(&self) -> &[Deferred] {
        &self.defers
    }
}

pub(crate) struct BVm<'m> {
    module: &'m Module,
    mu: Mutator,
    /// Per-run materialization of the module's (thread-shared) constant
    /// pool; entries are cloned onto the operand stack so string payloads
    /// are `Rc`-shared within the run, as with the old `Value` pool.
    consts: Vec<Value>,
    frames: Vec<BFrame>,
    /// Retired frame-slot vectors, reused across calls so a call does
    /// not malloc (values were dropped when the owning frame popped).
    slot_pool: Vec<Vec<Slot>>,
    /// Retired operand stacks, reused across calls for the same reason.
    stack_pool: Vec<Vec<Value>>,
    /// Monomorphic inline caches, one per `ic_slots` entry in the
    /// module. A cache can only *miss* when stale (the tag is the map
    /// storage's address and the cached entry's key is re-checked on
    /// every hit), so it accelerates lookups without being able to
    /// change any observable result.
    ics: Vec<IcEntry>,
    ic_hits: u64,
    ic_misses: u64,
}

impl Engine for BVm<'_> {
    fn lookup(&self, name: &str) -> Option<(usize, usize)> {
        let fid = self.module.funcs.iter().position(|f| f.name == name)?;
        Some((fid, self.module.funcs[fid].params.len()))
    }

    /// `main`'s index was found when the module was lowered; a search
    /// by name would walk every function of a large program.
    fn main(&self) -> Option<usize> {
        Some(self.module.main).filter(|&m| m != usize::MAX)
    }

    fn invoke(&mut self, func: usize, args: Vec<Value>) -> Result<Vec<Value>> {
        let want = self.module.funcs[func].results.len() as u32;
        let mut stack = args;
        let nargs = stack.len();
        self.call_on_stack(self.module, func, &mut stack, nargs, want)?;
        Ok(stack)
    }

    fn mu(&self) -> &Mutator {
        &self.mu
    }

    fn mu_mut(&mut self) -> &mut Mutator {
        &mut self.mu
    }

    fn finish(self: Box<Self>) -> RunOutcome {
        RunOutcome {
            ic_hits: self.ic_hits,
            ic_misses: self.ic_misses,
            ..self.mu.finish()
        }
    }
}

/// One inline-cache entry: the identity of the last map storage seen at
/// this site plus the entry index its key resolved to.
#[derive(Clone, Copy)]
struct IcEntry {
    tag: usize,
    idx: usize,
}

const IC_EMPTY: IcEntry = IcEntry {
    tag: 0,
    idx: usize::MAX,
};

fn expected_bool(v: &Value) -> ExecError {
    ExecError::Internal(format!("expected bool, got {}", v.display()))
}

fn expected_int(v: &Value) -> ExecError {
    ExecError::Internal(format!("expected int, got {}", v.display()))
}

/// The `CheckIndexBase` test, shared with the fused index handlers.
#[inline]
fn check_index_base(v: &Value) -> Result<()> {
    match v {
        Value::Slice(_) | Value::Map(_) => Ok(()),
        Value::Nil => Err(ExecError::NilDeref),
        _ => Err(ExecError::Internal("index of non-indexable".into())),
    }
}

/// [`int_bin`] over two peeked operands: `Some` only when both are ints
/// and the operator has a plain int result — the scalar fast path.
#[inline(always)]
fn int_pair(op: BinOp, l: Option<i64>, r: Option<i64>) -> Option<Value> {
    int_bin(op, l?, r?)
}

/// The int `depth` entries below the operand stack's top (0 = top).
#[inline(always)]
fn stack_int(stack: &[Value], depth: usize) -> Option<i64> {
    match stack.len().checked_sub(depth + 1).map(|i| &stack[i]) {
        Some(Value::Int(v)) => Some(*v),
        _ => None,
    }
}

/// The `JumpIfFalse` test, shared with the fused branch handlers.
#[inline]
fn branch_if_false(v: Value, pc: &mut usize, t: usize) -> Result<()> {
    match v {
        Value::Bool(b) => {
            if !b {
                *pc = t;
            }
            Ok(())
        }
        other => Err(expected_bool(&other)),
    }
}

impl<'m> BVm<'m> {
    pub(crate) fn new(module: &'m Module, mu: Mutator) -> Self {
        BVm {
            module,
            mu,
            consts: module.consts.iter().map(Const::to_value).collect(),
            frames: Vec::new(),
            slot_pool: Vec::new(),
            stack_pool: Vec::new(),
            ics: vec![IC_EMPTY; module.ic_slots as usize],
            ic_hits: 0,
            ic_misses: 0,
        }
    }

    // ---- calls ----

    /// Calls a function whose results are discarded (entry point and
    /// deferred calls); `args` become the callee's parameters. Results
    /// are still read and poison-checked exactly as a stack call's.
    fn run_function(&mut self, m: &Module, fid: usize, args: Vec<Value>) -> Result<()> {
        let mut stack = args;
        let nargs = stack.len();
        self.call_on_stack(m, fid, &mut stack, nargs, u32::MAX)
    }

    /// The call protocol: moves the top `nargs` of the caller's operand
    /// stack into the callee's parameter slots, runs body + defers, and
    /// pushes the poison-checked results back (dropped when `want` is
    /// `u32::MAX`). Frame-slot vectors and operand stacks are recycled
    /// through pools, so a call steady-state allocates nothing.
    fn call_on_stack(
        &mut self,
        m: &Module,
        fid: usize,
        stack: &mut Vec<Value>,
        nargs: usize,
        want: u32,
    ) -> Result<()> {
        if self.frames.len() >= self.mu.cfg.max_frames {
            return Err(ExecError::StackOverflow);
        }
        let f = &m.funcs[fid];
        let mut slots = self.slot_pool.pop().unwrap_or_default();
        slots.resize(f.nslots as usize, Slot::Empty);
        let base = stack.len() - nargs;
        for (&(slot, boxed), arg) in f.params.iter().zip(stack.drain(base..)) {
            slots[slot as usize] = Slot::new(arg, boxed);
        }
        for &(slot, boxed, zero) in &f.results {
            let Some(zero) = zero else {
                slots.clear();
                self.slot_pool.push(slots);
                return Err(ExecError::Internal("untyped result".into()));
            };
            slots[slot as usize] = Slot::new(self.consts[zero as usize].clone(), boxed);
        }
        self.frames.push(BFrame {
            slots,
            defers: Vec::new(),
        });
        let parent_stack = self.mu.enter_stack(&f.name);

        let body = self.exec(m, f);
        let defer_result = self.run_defers(m);
        match body.and(defer_result) {
            Err(e) => {
                self.mu.leave_stack(parent_stack);
                self.pop_frame();
                Err(e)
            }
            Ok(()) => {
                let rbase = stack.len();
                for &(slot, _, _) in &f.results {
                    // A result that fails to read leaves the frame in
                    // place, as the tree-walk's call protocol does.
                    let v = self.slot_value(f, slot)?;
                    stack.push(v);
                }
                self.mu.leave_stack(parent_stack);
                self.pop_frame();
                if want == u32::MAX {
                    stack.truncate(rbase);
                } else if stack.len() - rbase != want as usize {
                    return Err(ExecError::Internal("result arity mismatch".into()));
                }
                Ok(())
            }
        }
    }

    /// Pops the current frame, recycling its slot vector (the slot
    /// values drop here, exactly when the frame itself used to drop).
    fn pop_frame(&mut self) {
        if let Some(frame) = self.frames.pop() {
            let mut slots = frame.slots;
            slots.clear();
            self.slot_pool.push(slots);
        }
    }

    fn run_defers(&mut self, m: &Module) -> Result<()> {
        loop {
            let Some(d) = self.frames.last_mut().and_then(|f| f.defers.pop()) else {
                return Ok(());
            };
            match d.kind {
                DeferKind::Func(fid) => {
                    self.run_function(m, fid, d.args)?;
                }
                DeferKind::Builtin(Builtin::Print) => self.mu.print(&d.args),
                DeferKind::Builtin(_) => {}
            }
        }
    }

    // ---- the dispatch loop ----

    /// Runs one function body on a pooled operand stack.
    fn exec(&mut self, m: &Module, f: &BFunc) -> Result<()> {
        let mut stack = self.stack_pool.pop().unwrap_or_default();
        let res = self.exec_on(m, f, &mut stack);
        stack.clear();
        self.stack_pool.push(stack);
        res
    }

    #[allow(clippy::too_many_lines)]
    fn exec_on(&mut self, m: &Module, f: &BFunc, stack: &mut Vec<Value>) -> Result<()> {
        let code = &f.code;
        let mut pc = 0usize;
        loop {
            let instr = &code[pc];
            pc += 1;
            match instr {
                Instr::Safepoint => self.mu.safepoint(&self.frames)?,
                Instr::Tick(n) => self.mu.rt.tick(u64::from(*n)),
                Instr::Jump(t) => pc = *t,
                Instr::JumpIfFalse(t) => match pop(stack) {
                    Value::Bool(b) => {
                        if !b {
                            pc = *t;
                        }
                    }
                    other => return Err(expected_bool(&other)),
                },
                Instr::AndJump(t) => match pop(stack) {
                    Value::Bool(b) => {
                        if !b {
                            stack.push(Value::Bool(false));
                            pc = *t;
                        }
                    }
                    other => return Err(expected_bool(&other)),
                },
                Instr::OrJump(t) => match pop(stack) {
                    Value::Bool(b) => {
                        if b {
                            stack.push(Value::Bool(true));
                            pc = *t;
                        }
                    }
                    other => return Err(expected_bool(&other)),
                },
                Instr::AssertBool => {
                    let v = stack.last().expect("operand stack underflow");
                    if !matches!(v, Value::Bool(_)) {
                        return Err(expected_bool(v));
                    }
                }
                Instr::CaseJump(t) => {
                    let cv = pop(stack);
                    let sv = stack.last().expect("operand stack underflow");
                    if value_eq(sv, &cv)? {
                        stack.pop();
                        pc = *t;
                    }
                }
                Instr::Ret => return Ok(()),
                Instr::Call {
                    fid,
                    nargs,
                    want,
                    value_pos,
                } => {
                    if *value_pos {
                        self.mu.rt.tick(1);
                    }
                    self.mu.rt.tick(2);
                    self.call_on_stack(m, *fid, stack, *nargs as usize, *want)?;
                }
                Instr::DeferFunc { fid, nargs } => {
                    let args = stack.split_off(stack.len() - *nargs as usize);
                    self.frames
                        .last_mut()
                        .expect("in a frame")
                        .defers
                        .push(Deferred {
                            kind: DeferKind::Func(*fid),
                            args,
                        });
                }
                Instr::DeferBuiltin { builtin, nargs } => {
                    let args = stack.split_off(stack.len() - *nargs as usize);
                    self.frames
                        .last_mut()
                        .expect("in a frame")
                        .defers
                        .push(Deferred {
                            kind: DeferKind::Builtin(*builtin),
                            args,
                        });
                }
                Instr::Const(c) => {
                    self.mu.rt.tick(1);
                    stack.push(self.consts[*c as usize].clone());
                }
                Instr::ConstRaw(c) => stack.push(self.consts[*c as usize].clone()),
                Instr::LoadSlot(s) => {
                    self.mu.rt.tick(1);
                    let v = self.slot_value(f, *s)?;
                    stack.push(v);
                }
                Instr::StoreSlot(s) => {
                    let v = pop(stack);
                    self.store_slot(*s, v)?;
                }
                Instr::Declare {
                    slot,
                    boxed,
                    heap,
                    size,
                } => {
                    let v = pop(stack);
                    let new_slot = if *boxed {
                        self.mu.boxed_slot(*heap, *size, v)
                    } else {
                        Slot::Plain(v)
                    };
                    let frame = self.frames.last_mut().expect("in a frame");
                    frame.slots[*slot as usize] = new_slot;
                }
                Instr::Pop(n) => {
                    stack.truncate(stack.len() - *n as usize);
                }
                Instr::ReverseN(n) => {
                    let at = stack.len() - *n as usize;
                    stack[at..].reverse();
                }
                Instr::Neg => match pop(stack) {
                    Value::Int(v) => {
                        self.mu.rt.tick(1);
                        stack.push(Value::Int(v.wrapping_neg()));
                    }
                    other => return Err(expected_int(&other)),
                },
                Instr::Not => match pop(stack) {
                    Value::Bool(b) => {
                        self.mu.rt.tick(1);
                        stack.push(Value::Bool(!b));
                    }
                    other => return Err(expected_bool(&other)),
                },
                Instr::Bin(op) => {
                    self.mu.rt.tick(1);
                    if let Some(v) = int_pair(*op, stack_int(stack, 1), stack_int(stack, 0)) {
                        stack.pop();
                        set_top(stack, v);
                        continue;
                    }
                    let r = pop(stack);
                    let l = pop(stack);
                    stack.push(binop_rt(&mut self.mu.rt, *op, l, r)?);
                }
                Instr::BinRaw(op) => {
                    if let Some(v) = int_pair(*op, stack_int(stack, 1), stack_int(stack, 0)) {
                        stack.pop();
                        set_top(stack, v);
                        continue;
                    }
                    let r = pop(stack);
                    let l = pop(stack);
                    stack.push(binop_rt(&mut self.mu.rt, *op, l, r)?);
                }
                Instr::AddrOfSlot(s) => {
                    self.mu.rt.tick(1);
                    let frame = self.frames.last().expect("in a frame");
                    match &frame.slots[*s as usize] {
                        Slot::Boxed(cell, obj) => stack.push(Value::ptr(PtrVal {
                            cell: cell.clone(),
                            obj: *obj,
                        })),
                        Slot::Plain(_) => {
                            return Err(ExecError::Internal(format!(
                                "address taken of unboxed variable {}",
                                f.slot_names[*s as usize]
                            )))
                        }
                        Slot::Empty => {
                            return Err(ExecError::Internal("variable not found".into()))
                        }
                    }
                }
                Instr::AllocBox { heap, size, site } => {
                    self.mu.rt.tick(1);
                    let v = pop(stack);
                    let p = self.mu.new_ptr(*heap, *size, *site, v);
                    stack.push(p);
                }
                Instr::Deref => {
                    self.mu.rt.tick(1);
                    match pop(stack) {
                        Value::Ptr(p) => {
                            let v = self.mu.ptr_get(&p)?;
                            stack.push(v);
                        }
                        Value::Nil => return Err(ExecError::NilDeref),
                        _ => return Err(ExecError::Internal("deref of non-pointer".into())),
                    }
                }
                Instr::DerefSet => match pop(stack) {
                    Value::Ptr(p) => self.mu.ptr_set(&p, pop(stack)),
                    Value::Nil => return Err(ExecError::NilDeref),
                    _ => return Err(ExecError::Internal("store through non-pointer".into())),
                },
                Instr::GetField { idx, through_ptr } => {
                    self.mu.rt.tick(1);
                    let fields = match (pop(stack), through_ptr) {
                        (Value::Struct(fields), false) => fields,
                        (Value::Ptr(p), true) => {
                            self.mu.shadow_access(p.obj, "field read");
                            let inner = p.cell.borrow().clone();
                            match inner {
                                Value::Struct(fields) => fields,
                                Value::Poison => return Err(ExecError::PoisonedRead),
                                _ => return Err(ExecError::Internal("field of non-struct".into())),
                            }
                        }
                        (Value::Nil, _) => return Err(ExecError::NilDeref),
                        (Value::Poison, _) => return Err(ExecError::PoisonedRead),
                        _ => return Err(ExecError::Internal("field of non-struct".into())),
                    };
                    stack.push(check_poison(fields[*idx as usize].clone())?);
                }
                Instr::StructSetField { idx } => match pop(stack) {
                    Value::Struct(mut fields) => {
                        let v = pop(stack);
                        Rc::make_mut(&mut fields)[*idx as usize] = v;
                        stack.push(Value::Struct(fields));
                    }
                    Value::Nil => return Err(ExecError::NilDeref),
                    Value::Poison => return Err(ExecError::PoisonedRead),
                    _ => return Err(ExecError::Internal("field store on non-struct".into())),
                },
                Instr::FieldSetPtr { idx } => match pop(stack) {
                    Value::Ptr(p) => {
                        self.mu.before_store(p.obj, "field write");
                        let v = pop(stack);
                        let mut target = p.cell.borrow_mut();
                        match &mut *target {
                            Value::Struct(fields) => Rc::make_mut(fields)[*idx as usize] = v,
                            Value::Poison => return Err(ExecError::PoisonedRead),
                            _ => {
                                return Err(ExecError::Internal("field store on non-struct".into()))
                            }
                        }
                    }
                    Value::Nil => return Err(ExecError::NilDeref),
                    Value::Poison => return Err(ExecError::PoisonedRead),
                    _ => return Err(ExecError::Internal("field store on non-struct".into())),
                },
                Instr::CheckIndexBase => {
                    check_index_base(stack.last().expect("operand stack underflow"))?
                }
                Instr::IndexGet => {
                    self.mu.rt.tick(1);
                    let idx = pop(stack);
                    let base = pop(stack);
                    let v = self.index_get(base, idx, None)?;
                    stack.push(v);
                }
                Instr::IndexGetIC(ic) => {
                    self.mu.rt.tick(1);
                    let idx = pop(stack);
                    let base = pop(stack);
                    let v = self.index_get(base, idx, Some(*ic))?;
                    stack.push(v);
                }
                Instr::IndexSet => {
                    let idx = pop(stack);
                    let base = pop(stack);
                    let v = pop(stack);
                    self.index_set(base, idx, v, None)?;
                }
                Instr::IndexSetIC(ic) => {
                    let idx = pop(stack);
                    let base = pop(stack);
                    let v = pop(stack);
                    self.index_set(base, idx, v, Some(*ic))?;
                }
                Instr::ReSlice { has_hi } => {
                    self.mu.rt.tick(1);
                    let hi_v = if *has_hi { Some(pop(stack)) } else { None };
                    let lo_v = pop(stack);
                    let base = pop(stack);
                    let Value::Int(lo) = lo_v else {
                        return Err(expected_int(&lo_v));
                    };
                    let hi = match &hi_v {
                        Some(Value::Int(h)) => Some(*h),
                        Some(other) => return Err(expected_int(other)),
                        None => None,
                    };
                    stack.push(reslice(base, lo, hi)?);
                }
                Instr::MakeSlice {
                    elem_size,
                    has_cap,
                    heap,
                    site,
                    zero,
                } => {
                    self.mu.rt.tick(1);
                    let cap_v = if *has_cap { Some(pop(stack)) } else { None };
                    let len_v = pop(stack);
                    let Value::Int(len_raw) = len_v else {
                        return Err(expected_int(&len_v));
                    };
                    let len = len_raw.max(0) as usize;
                    let cap = match cap_v {
                        Some(Value::Int(c)) => (c.max(0) as usize).max(len),
                        Some(other) => return Err(expected_int(&other)),
                        None => len,
                    };
                    let zero = self.consts[*zero as usize].clone();
                    let s = self.mu.make_slice(*heap, *site, len, cap, *elem_size, zero);
                    stack.push(s);
                }
                Instr::MakeMap {
                    entry_size,
                    heap,
                    site,
                    default,
                } => {
                    self.mu.rt.tick(1);
                    let default = self.consts[*default as usize].clone();
                    let m = self.mu.make_map(*heap, *site, default, *entry_size);
                    stack.push(m);
                }
                Instr::NewPtr {
                    size,
                    heap,
                    site,
                    zero,
                } => {
                    self.mu.rt.tick(1);
                    let zero = self.consts[*zero as usize].clone();
                    let p = self.mu.new_ptr(*heap, *size, *site, zero);
                    stack.push(p);
                }
                Instr::Append { elem_size, site } => {
                    self.mu.rt.tick(1);
                    let item = pop(stack);
                    let sv = pop(stack);
                    let out = self.mu.append(sv, item, *elem_size, *site)?;
                    stack.push(out);
                }
                Instr::MakeStruct(n) => {
                    self.mu.rt.tick(1);
                    let fields = stack.split_off(stack.len() - *n as usize);
                    stack.push(Value::struct_of(fields));
                }
                Instr::Len => {
                    self.mu.rt.tick(1);
                    let v = len_of(pop(stack))?;
                    stack.push(v);
                }
                Instr::Cap => {
                    self.mu.rt.tick(1);
                    let v = match pop(stack) {
                        Value::Slice(s) => s.cap() as i64,
                        Value::Nil => 0,
                        _ => return Err(ExecError::Internal("cap of bad value".into())),
                    };
                    stack.push(Value::Int(v));
                }
                Instr::MapDelete => {
                    self.mu.rt.tick(1);
                    let kv = pop(stack);
                    if let Value::Map(map) = pop(stack) {
                        let key = kv
                            .as_key()
                            .ok_or_else(|| ExecError::Internal("bad map key".into()))?;
                        self.mu.map_delete(&map, &key);
                    }
                    stack.push(Value::Int(0));
                }
                Instr::Panic => {
                    self.mu.rt.tick(1);
                    let v = pop(stack);
                    return Err(ExecError::Panic(v.display()));
                }
                Instr::Print(n) => {
                    self.mu.rt.tick(1);
                    let args = stack.split_off(stack.len() - *n as usize);
                    self.mu.print(&args);
                    stack.push(Value::Int(0));
                }
                Instr::Itoa => {
                    self.mu.rt.tick(1);
                    match pop(stack) {
                        Value::Int(v) => {
                            stack.push(Value::Str(Rc::from(v.to_string().as_str())));
                        }
                        other => return Err(expected_int(&other)),
                    }
                }
                Instr::Tcfree { follows_free } => {
                    let v = pop(stack);
                    self.mu.tcfree(v, self.mu.cfg.batch_frees && *follows_free);
                }
                Instr::TrapUnsupported(msg) => {
                    return Err(ExecError::Unsupported(msg.to_string()));
                }
                Instr::TrapInternal(msg) => {
                    return Err(ExecError::Internal(msg.to_string()));
                }
                // ---- optimizer-tier instructions ----
                //
                // Each fused handler charges its summed constituent
                // ticks upfront, then runs the constituent logic in the
                // original order. Coalescing is invisible: the clock
                // charge is an exact add and no observable event can
                // occur between the constituents' charges.
                //
                // Handlers that compute on ints, take a length or index
                // a slice first try a scalar fast path over operands
                // peeked by reference (see `peek`). It takes only
                // operands on which the generic path could neither fail
                // nor emit an event; anything else falls through to the
                // generic code below it, the only place that raises
                // errors.
                Instr::ConstTicked { c, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    stack.push(self.consts[*c as usize].clone());
                }
                Instr::LoadLoadBin { a, b, op, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some(v) = int_pair(*op, self.peek_int(*a), self.peek_int(*b)) {
                        stack.push(v);
                        continue;
                    }
                    let l = self.slot_value(f, *a)?;
                    let r = self.slot_value(f, *b)?;
                    stack.push(binop_rt(&mut self.mu.rt, *op, l, r)?);
                }
                Instr::LoadConstBin { a, c, op, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some(v) = int_pair(*op, self.peek_int(*a), self.const_int(*c)) {
                        stack.push(v);
                        continue;
                    }
                    let l = self.slot_value(f, *a)?;
                    let r = self.consts[*c as usize].clone();
                    stack.push(binop_rt(&mut self.mu.rt, *op, l, r)?);
                }
                Instr::LoadLoadBinStore {
                    a,
                    b,
                    op,
                    dst,
                    ticks,
                } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some(v) = int_pair(*op, self.peek_int(*a), self.peek_int(*b)) {
                        self.store_slot(*dst, v)?;
                        continue;
                    }
                    let l = self.slot_value(f, *a)?;
                    let r = self.slot_value(f, *b)?;
                    let v = binop_rt(&mut self.mu.rt, *op, l, r)?;
                    self.store_slot(*dst, v)?;
                }
                Instr::LoadConstBinStore {
                    a,
                    c,
                    op,
                    dst,
                    ticks,
                } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some(v) = int_pair(*op, self.peek_int(*a), self.const_int(*c)) {
                        self.store_slot(*dst, v)?;
                        continue;
                    }
                    let l = self.slot_value(f, *a)?;
                    let r = self.consts[*c as usize].clone();
                    let v = binop_rt(&mut self.mu.rt, *op, l, r)?;
                    self.store_slot(*dst, v)?;
                }
                Instr::LoadLoadBinJump { a, b, op, t, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some(Value::Bool(c)) =
                        int_pair(*op, self.peek_int(*a), self.peek_int(*b))
                    {
                        if !c {
                            pc = *t;
                        }
                        continue;
                    }
                    let l = self.slot_value(f, *a)?;
                    let r = self.slot_value(f, *b)?;
                    let v = binop_rt(&mut self.mu.rt, *op, l, r)?;
                    branch_if_false(v, &mut pc, *t)?;
                }
                Instr::LoadConstBinJump { a, c, op, t, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some(Value::Bool(b)) =
                        int_pair(*op, self.peek_int(*a), self.const_int(*c))
                    {
                        if !b {
                            pc = *t;
                        }
                        continue;
                    }
                    let l = self.slot_value(f, *a)?;
                    let r = self.consts[*c as usize].clone();
                    let v = binop_rt(&mut self.mu.rt, *op, l, r)?;
                    branch_if_false(v, &mut pc, *t)?;
                }
                Instr::LoadJumpIfFalse { s, t, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    let v = self.slot_value(f, *s)?;
                    branch_if_false(v, &mut pc, *t)?;
                }
                Instr::BinJumpIfFalse { op, t, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some(Value::Bool(b)) =
                        int_pair(*op, stack_int(stack, 1), stack_int(stack, 0))
                    {
                        stack.truncate(stack.len() - 2);
                        if !b {
                            pc = *t;
                        }
                        continue;
                    }
                    let r = pop(stack);
                    let l = pop(stack);
                    let v = binop_rt(&mut self.mu.rt, *op, l, r)?;
                    branch_if_false(v, &mut pc, *t)?;
                }
                Instr::LoadLoadIndexGet {
                    base,
                    idx,
                    ic,
                    ticks,
                } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some(v) = self.fast_index_get(*base, self.peek_int(*idx)) {
                        stack.push(v);
                        continue;
                    }
                    let b = self.slot_value(f, *base)?;
                    check_index_base(&b)?;
                    let i = self.slot_value(f, *idx)?;
                    let v = self.index_get(b, i, Some(*ic))?;
                    stack.push(v);
                }
                Instr::LoadConstIndexGet { base, c, ic, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some(v) = self.fast_index_get(*base, self.const_int(*c)) {
                        stack.push(v);
                        continue;
                    }
                    let b = self.slot_value(f, *base)?;
                    check_index_base(&b)?;
                    let i = self.consts[*c as usize].clone();
                    let v = self.index_get(b, i, Some(*ic))?;
                    stack.push(v);
                }
                Instr::LoadLoadIndexSet {
                    base,
                    idx,
                    ic,
                    ticks,
                } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some((s, at)) = self.fast_index_set(*base, self.peek_int(*idx)) {
                        s.cells.borrow_mut()[at] = pop(stack);
                        continue;
                    }
                    let b = self.slot_value(f, *base)?;
                    check_index_base(&b)?;
                    let i = self.slot_value(f, *idx)?;
                    let v = pop(stack);
                    self.index_set(b, i, v, Some(*ic))?;
                }
                Instr::LoadConstIndexSet { base, c, ic, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some((s, at)) = self.fast_index_set(*base, self.const_int(*c)) {
                        s.cells.borrow_mut()[at] = pop(stack);
                        continue;
                    }
                    let b = self.slot_value(f, *base)?;
                    check_index_base(&b)?;
                    let i = self.consts[*c as usize].clone();
                    let v = pop(stack);
                    self.index_set(b, i, v, Some(*ic))?;
                }
                Instr::LoadLen { s, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some(n) = self.peek_len(*s) {
                        stack.push(Value::Int(n));
                        continue;
                    }
                    let v = len_of(self.slot_value(f, *s)?)?;
                    stack.push(v);
                }
                Instr::LoadLenStore { s, dst, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some(n) = self.peek_len(*s) {
                        self.store_slot(*dst, Value::Int(n))?;
                        continue;
                    }
                    let v = len_of(self.slot_value(f, *s)?)?;
                    self.store_slot(*dst, v)?;
                }
                Instr::LoadLoadLenBinJump { a, s, op, t, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some(Value::Bool(b)) =
                        int_pair(*op, self.peek_int(*a), self.peek_len(*s))
                    {
                        if !b {
                            pc = *t;
                        }
                        continue;
                    }
                    let l = self.slot_value(f, *a)?;
                    let r = len_of(self.slot_value(f, *s)?)?;
                    let v = binop_rt(&mut self.mu.rt, *op, l, r)?;
                    branch_if_false(v, &mut pc, *t)?;
                }
                Instr::BinSlot { s, op, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some(v) = int_pair(*op, stack_int(stack, 0), self.peek_int(*s)) {
                        set_top(stack, v);
                        continue;
                    }
                    let r = self.slot_value(f, *s)?;
                    let l = pop(stack);
                    stack.push(binop_rt(&mut self.mu.rt, *op, l, r)?);
                }
                Instr::BinConst { c, op, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some(v) = int_pair(*op, stack_int(stack, 0), self.const_int(*c)) {
                        set_top(stack, v);
                        continue;
                    }
                    let r = self.consts[*c as usize].clone();
                    let l = pop(stack);
                    stack.push(binop_rt(&mut self.mu.rt, *op, l, r)?);
                }
                Instr::BinConstStore { c, op, dst, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some(v) = int_pair(*op, stack_int(stack, 0), self.const_int(*c)) {
                        stack.pop();
                        self.store_slot(*dst, v)?;
                        continue;
                    }
                    let r = self.consts[*c as usize].clone();
                    let l = pop(stack);
                    let v = binop_rt(&mut self.mu.rt, *op, l, r)?;
                    self.store_slot(*dst, v)?;
                }
                Instr::BinConstJump { c, op, t, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    if let Some(Value::Bool(b)) =
                        int_pair(*op, stack_int(stack, 0), self.const_int(*c))
                    {
                        stack.pop();
                        if !b {
                            pc = *t;
                        }
                        continue;
                    }
                    let r = self.consts[*c as usize].clone();
                    let l = pop(stack);
                    let v = binop_rt(&mut self.mu.rt, *op, l, r)?;
                    branch_if_false(v, &mut pc, *t)?;
                }
                Instr::LoadLoad { a, b, ticks } => {
                    self.mu.rt.tick(u64::from(*ticks));
                    let va = self.slot_value(f, *a)?;
                    stack.push(va);
                    let vb = self.slot_value(f, *b)?;
                    stack.push(vb);
                }
            }
        }
    }

    /// The `LoadSlot` body (sans tick), shared with the fused handlers.
    /// The hot
    /// path (a plain, unpoisoned slot) must stay small enough to inline
    /// into the dispatch loop; the error constructions are kept out of
    /// line behind `#[cold]`. `inline(always)` because LLVM refuses the
    /// hint at this size yet the call sits on every fused load's hot
    /// path (a measured win; see DESIGN.md §12). It matches the slot in
    /// place: handing the value out through an `Option` first cost
    /// `subjects` 3% of `run_ms`.
    #[inline(always)]
    fn slot_value(&self, f: &BFunc, s: u32) -> Result<Value> {
        #[cold]
        fn undeclared(f: &BFunc, s: u32) -> ExecError {
            ExecError::Internal(format!(
                "variable {} not found in any frame",
                f.slot_names[s as usize]
            ))
        }
        let v = match &self.frames.last().expect("in a frame").slots[s as usize] {
            Slot::Plain(v) => v.clone(),
            Slot::Boxed(cell, _) => cell.borrow().clone(),
            Slot::Empty => return Err(undeclared(f, s)),
        };
        check_poison(v)
    }

    // ---- scalar fast-path peeks ----
    //
    // Each reads a `Slot::Plain` slot or a pool constant by reference
    // and answers `None` for everything the generic path must see:
    // `Boxed` and `Empty` slots, poison, and values of another kind.

    #[inline(always)]
    fn peek(&self, s: u32) -> Option<&Value> {
        match &self.frames.last().expect("in a frame").slots[s as usize] {
            Slot::Plain(v) => Some(v),
            _ => None,
        }
    }

    #[inline(always)]
    fn peek_int(&self, s: u32) -> Option<i64> {
        match self.peek(s) {
            Some(Value::Int(v)) => Some(*v),
            _ => None,
        }
    }

    #[inline(always)]
    fn peek_len(&self, s: u32) -> Option<i64> {
        self.peek(s).and_then(len_ref)
    }

    #[inline(always)]
    fn const_int(&self, c: u32) -> Option<i64> {
        match self.consts[c as usize] {
            Value::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The slice in plain slot `base` and the backing-array position of
    /// its element `i`, when indexing it can skip the generic path: `i`
    /// is an in-range int and no shadow heap must see the access.
    #[inline(always)]
    fn peek_elem(&self, base: u32, i: Option<i64>) -> Option<(&SliceVal, usize)> {
        if self.mu.sanitizing() {
            return None;
        }
        let Some(Value::Slice(s)) = self.peek(base) else {
            return None;
        };
        let i = usize::try_from(i?).ok().filter(|&i| i < s.len)?;
        Some((s, s.offset + i))
    }

    /// The fused index-get fast path: the element, unless it is poison.
    #[inline(always)]
    fn fast_index_get(&self, base: u32, i: Option<i64>) -> Option<Value> {
        let (s, at) = self.peek_elem(base, i)?;
        let v = s.cells.borrow()[at].clone();
        (!matches!(v, Value::Poison)).then_some(v)
    }

    /// The fused index-set fast path: where to store, when the
    /// collector has no write barrier to run.
    #[inline(always)]
    fn fast_index_set(&self, base: u32, i: Option<i64>) -> Option<(&SliceVal, usize)> {
        if self.mu.rt.has_write_barrier() {
            return None;
        }
        self.peek_elem(base, i)
    }

    /// The `StoreSlot` body, shared with the fused handlers.
    #[inline]
    fn store_slot(&mut self, s: u32, v: Value) -> Result<()> {
        self.frames.last_mut().expect("in a frame").slots[s as usize].set(v)
    }

    /// The `IndexGet` body, shared by the plain, IC, and fused handlers.
    /// The caller has already charged the instruction's own tick; map
    /// lookups charge their data-dependent ticks here, identically on
    /// hit and miss.
    #[inline]
    fn index_get(&mut self, base: Value, idx: Value, ic: Option<u32>) -> Result<Value> {
        match base {
            Value::Slice(s) => {
                let Value::Int(i) = idx else {
                    return Err(expected_int(&idx));
                };
                self.mu.slice_get(&s, i)
            }
            Value::Map(map) => {
                let key = idx
                    .as_key()
                    .ok_or_else(|| ExecError::Internal("bad map key".into()))?;
                let data = self.mu.map_lookup(&map)?;
                if let Some(slot) = ic {
                    let tag = Rc::as_ptr(&map.data) as usize;
                    let e = self.ics[slot as usize];
                    if e.tag == tag && data.entries.get(e.idx).is_some_and(|(k, _)| *k == key) {
                        // Hit: the cached entry index resolves this key
                        // without hashing. A stale tag or moved entry
                        // fails the check and falls through to a miss.
                        self.ic_hits += 1;
                        return check_poison(data.entries[e.idx].1.clone());
                    }
                    self.ic_misses += 1;
                    return match data.index.get(&key) {
                        Some(&i) => {
                            self.ics[slot as usize] = IcEntry { tag, idx: i };
                            check_poison(data.entries[i].1.clone())
                        }
                        None => {
                            self.ics[slot as usize] = IC_EMPTY;
                            Ok(data.default.clone())
                        }
                    };
                }
                match data.get(&key) {
                    Some(v) => check_poison(v.clone()),
                    None => Ok(data.default.clone()),
                }
            }
            Value::Nil => Err(ExecError::NilDeref),
            _ => Err(ExecError::Internal("index of non-indexable".into())),
        }
    }

    /// The `IndexSet` body, shared by the plain, IC, and fused handlers.
    #[inline]
    fn index_set(&mut self, base: Value, idx: Value, v: Value, ic: Option<u32>) -> Result<()> {
        match base {
            Value::Slice(s) => {
                let Value::Int(i) = idx else {
                    return Err(expected_int(&idx));
                };
                self.mu.slice_set(&s, i, v)
            }
            Value::Map(map) => {
                let key = idx
                    .as_key()
                    .ok_or_else(|| ExecError::Internal("bad map key".into()))?;
                self.map_insert(&map, key, v, ic)
            }
            Value::Nil => Err(ExecError::NilDeref),
            _ => Err(ExecError::Internal("store into non-indexable".into())),
        }
    }

    #[inline]
    fn map_insert(&mut self, m: &MapVal, key: Key, value: Value, ic: Option<u32>) -> Result<()> {
        self.mu.before_map_insert(m);
        if let Some(slot) = ic {
            let tag = Rc::as_ptr(&m.data) as usize;
            let e = self.ics[slot as usize];
            {
                let mut data = m.data.borrow_mut();
                if data.poisoned {
                    return Err(ExecError::PoisonedRead);
                }
                if e.tag == tag && data.entries.get(e.idx).is_some_and(|(k, _)| *k == key) {
                    // Hit: updating an existing entry in place — no
                    // growth check needed, exactly what the slow path's
                    // `insert` would do for a present key.
                    self.ic_hits += 1;
                    data.entries[e.idx].1 = value;
                    return Ok(());
                }
            }
            self.ic_misses += 1;
            self.mu.map_insert(m, key.clone(), value)?;
            let idx = m
                .data
                .borrow()
                .index
                .get(&key)
                .copied()
                .unwrap_or(usize::MAX);
            self.ics[slot as usize] = IcEntry { tag, idx };
            return Ok(());
        }
        self.mu.map_insert(m, key, value)
    }
}

#[inline]
fn pop(stack: &mut Vec<Value>) -> Value {
    stack.pop().expect("operand stack underflow")
}

#[inline(always)]
fn set_top(stack: &mut [Value], v: Value) {
    *stack.last_mut().expect("operand stack underflow") = v;
}
