//! The tree-walking interpreter.
//!
//! Executes an (optionally instrumented) MiniGo program by recursing
//! over its typed AST. Allocation sites honor the escape analysis'
//! stack-or-heap decisions, inserted `tcfree` statements free through
//! the runtime, and GC runs at statement boundaries (safepoints) when
//! the pacer requests it; all of that goes through the [`Mutator`] both
//! engines share. The engine itself owns only its frames and evaluation.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use minigo_escape::{AllocPlace, Analysis};
use minigo_runtime::Runtime;
use minigo_syntax::{
    BinOp, Block, Builtin, Expr, ExprKind, FuncId, Program, Resolution, Stmt, StmtKind, Type,
    TypeInfo, UnOp, VarId,
};

use crate::error::ExecError;
use crate::mutator::{DeferKind, Deferred, Mutator, Result, Roots, RunOutcome, Slot, VmConfig};
use crate::session::{Engine, Session};
use crate::value::{PtrVal, SliceVal, Value};

/// Runs `program`'s `main` function.
///
/// # Errors
///
/// Returns an [`ExecError`] on panics, nil dereferences, bounds errors,
/// poisoned reads (§6.8), or resource-limit violations.
pub fn run(
    program: &Program,
    res: &Resolution,
    types: &TypeInfo,
    analysis: &Analysis,
    cfg: VmConfig,
) -> Result<RunOutcome> {
    let mut session = Session::tree_walk(program, res, types, analysis, cfg)?;
    session.run_main()?;
    Ok(session.finish())
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

struct Frame {
    func: FuncId,
    slots: HashMap<VarId, Slot>,
    defers: Vec<Deferred>,
}

impl Roots for Frame {
    fn slots(&self) -> impl Iterator<Item = &Slot> {
        self.slots.values()
    }

    fn defers(&self) -> &[Deferred] {
        &self.defers
    }
}

pub(crate) struct Vm<'p> {
    program: &'p Program,
    res: &'p Resolution,
    types: &'p TypeInfo,
    analysis: &'p Analysis,
    mu: Mutator,
    frames: Vec<Frame>,
    /// Address-taken variables per function (these get boxed slots).
    addr_taken: HashMap<FuncId, HashSet<VarId>>,
}

impl Engine for Vm<'_> {
    fn lookup(&self, name: &str) -> Option<(usize, usize)> {
        let f = self.program.func(name)?;
        Some((f.id.index(), self.res.params_of(f.id).len()))
    }

    fn invoke(&mut self, func: usize, args: Vec<Value>) -> Result<Vec<Value>> {
        self.call_function(self.program.funcs[func].id, args)
    }

    fn mu(&self) -> &Mutator {
        &self.mu
    }

    fn mu_mut(&mut self) -> &mut Mutator {
        &mut self.mu
    }

    fn finish(self: Box<Self>) -> RunOutcome {
        self.mu.finish()
    }
}

impl<'p> Vm<'p> {
    pub(crate) fn new(
        program: &'p Program,
        res: &'p Resolution,
        types: &'p TypeInfo,
        analysis: &'p Analysis,
        mu: Mutator,
    ) -> Self {
        let mut addr_taken = HashMap::new();
        for func in &program.funcs {
            let mut set = HashSet::new();
            collect_addr_taken_block(&func.body, res, &mut set);
            addr_taken.insert(func.id, set);
        }
        Vm {
            program,
            res,
            types,
            analysis,
            mu,
            frames: Vec::new(),
            addr_taken,
        }
    }

    fn place_of(&self, expr: &Expr) -> AllocPlace {
        self.analysis.place_of(expr.id)
    }

    // ---- calls ----

    fn call_function(&mut self, fid: FuncId, args: Vec<Value>) -> Result<Vec<Value>> {
        if self.frames.len() >= self.mu.cfg.max_frames {
            return Err(ExecError::StackOverflow);
        }
        let func = &self.program.funcs[fid.index()];
        let mut slots = HashMap::new();
        let taken = &self.addr_taken[&fid];
        for (&pvar, arg) in self.res.params_of(fid).iter().zip(args) {
            slots.insert(pvar, Slot::new(arg, taken.contains(&pvar)));
        }
        for &rvar in self.res.results_of(fid) {
            let ty = self
                .types
                .var(rvar)
                .ok_or_else(|| ExecError::Internal("untyped result".into()))?;
            let zero = self.zero_value(ty);
            slots.insert(rvar, Slot::new(zero, taken.contains(&rvar)));
        }
        self.frames.push(Frame {
            func: fid,
            slots,
            defers: Vec::new(),
        });
        let parent_stack = self.mu.enter_stack(&func.name);

        let body = &func.body;
        let flow = self.exec_block(body);
        // Run defers LIFO regardless of how the body exited; on panic the
        // defers still run before unwinding continues.
        let defer_result = self.run_defers();
        if let Err(e) = flow.and(defer_result) {
            self.mu.leave_stack(parent_stack);
            self.frames.pop();
            return Err(e);
        }
        // A result that fails to read leaves the frame in place, as the
        // bytecode engine's call protocol does.
        let results = self
            .res
            .results_of(fid)
            .iter()
            .map(|&rvar| self.read_var(rvar))
            .collect::<Result<Vec<_>>>()?;
        self.mu.leave_stack(parent_stack);
        self.frames.pop();
        Ok(results)
    }

    fn run_defers(&mut self) -> Result<()> {
        loop {
            let Some(d) = self.frames.last_mut().and_then(|f| f.defers.pop()) else {
                return Ok(());
            };
            match d.kind {
                DeferKind::Func(func) => {
                    self.call_function(self.program.funcs[func].id, d.args)?;
                }
                DeferKind::Builtin(Builtin::Print) => self.mu.print(&d.args),
                DeferKind::Builtin(_) => {}
            }
        }
    }

    /// Declares a variable, boxing it when its address is taken and
    /// charging heap accounting when the analysis decided its storage
    /// escapes.
    fn declare_var(&mut self, var: VarId, value: Value) {
        let fid = self.frames.last().expect("in a frame").func;
        let slot = if self.addr_taken[&fid].contains(&var) {
            let heap = self
                .analysis
                .funcs
                .get(&fid)
                .and_then(|fg| fg.var_locs.get(&var).copied())
                .map(|loc| self.analysis.funcs[&fid].graph.loc(loc).heap_alloc)
                .unwrap_or(false);
            let size = self
                .types
                .var(var)
                .map(|t| self.types.inline_size(t))
                .unwrap_or(8);
            self.mu.boxed_slot(heap, size, value)
        } else {
            Slot::Plain(value)
        };
        self.frames
            .last_mut()
            .expect("in a frame")
            .slots
            .insert(var, slot);
    }

    fn read_var(&self, var: VarId) -> Result<Value> {
        let v = match self.frames.iter().rev().find_map(|f| f.slots.get(&var)) {
            Some(Slot::Plain(v)) => v.clone(),
            Some(Slot::Boxed(cell, _)) => cell.borrow().clone(),
            Some(Slot::Empty) | None => {
                return Err(ExecError::Internal(format!(
                    "variable {} not found in any frame",
                    self.res.var(var).name
                )))
            }
        };
        check_poison(v)
    }

    fn write_var(&mut self, var: VarId, value: Value) -> Result<()> {
        match self
            .frames
            .iter_mut()
            .rev()
            .find_map(|f| f.slots.get_mut(&var))
        {
            Some(slot) => slot.set(value),
            None => Err(ExecError::Internal("write to undeclared variable".into())),
        }
    }

    // ---- statements ----

    fn exec_block(&mut self, block: &Block) -> Result<Flow> {
        let mut prev_was_free = false;
        for stmt in &block.stmts {
            self.mu.safepoint(&self.frames)?;
            let batched = self.mu.cfg.batch_frees && prev_was_free;
            prev_was_free = matches!(stmt.kind, StmtKind::Free { .. });
            match self.exec_stmt(stmt, batched)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Executes one statement; `batched` marks a `tcfree` that directly
    /// follows another in its block, which shares that one's call
    /// overhead when [`VmConfig::batch_frees`] is on.
    fn exec_stmt(&mut self, stmt: &Stmt, batched: bool) -> Result<Flow> {
        match &stmt.kind {
            StmtKind::VarDecl { names, ty, init } => {
                let values = if init.is_empty() {
                    vec![self.zero_value(ty); names.len()]
                } else if init.len() == 1 && names.len() > 1 {
                    self.eval_multi(&init[0], names.len())?
                } else {
                    init.iter().map(|e| self.eval(e)).collect::<Result<_>>()?
                };
                for (i, v) in values.into_iter().enumerate() {
                    let var = self
                        .res
                        .decl_of(stmt.id, i)
                        .ok_or_else(|| ExecError::Internal("unresolved decl".into()))?;
                    self.declare_var(var, v);
                }
                Ok(Flow::Normal)
            }
            StmtKind::ShortDecl { names, init } => {
                let values = if init.len() == 1 && names.len() > 1 {
                    self.eval_multi(&init[0], names.len())?
                } else {
                    init.iter().map(|e| self.eval(e)).collect::<Result<_>>()?
                };
                for (i, v) in values.into_iter().enumerate() {
                    let var = self
                        .res
                        .decl_of(stmt.id, i)
                        .ok_or_else(|| ExecError::Internal("unresolved decl".into()))?;
                    self.declare_var(var, v);
                }
                Ok(Flow::Normal)
            }
            StmtKind::Assign { lhs, op, rhs } => {
                if let Some(op) = op {
                    let old = self.eval(&lhs[0])?;
                    let rv = self.eval(&rhs[0])?;
                    let new = self.binop(*op, old, rv)?;
                    self.store(&lhs[0], new)?;
                    return Ok(Flow::Normal);
                }
                let values = if rhs.len() == 1 && lhs.len() > 1 {
                    self.eval_multi(&rhs[0], lhs.len())?
                } else {
                    rhs.iter().map(|e| self.eval(e)).collect::<Result<_>>()?
                };
                for (l, v) in lhs.iter().zip(values) {
                    self.store(l, v)?;
                }
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then, els } => {
                if self.eval_bool(cond)? {
                    self.exec_block(then)
                } else if let Some(els) = els {
                    self.exec_stmt(els, false)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::For {
                init,
                cond,
                post,
                body,
            } => {
                if let Some(init) = init {
                    self.exec_stmt(init, false)?;
                }
                loop {
                    if let Some(cond) = cond {
                        if !self.eval_bool(cond)? {
                            break;
                        }
                    }
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(post) = post {
                        self.exec_stmt(post, false)?;
                    }
                    self.mu.safepoint(&self.frames)?;
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return { exprs } => {
                let fid = self.frames.last().expect("in a frame").func;
                let results = self.res.results_of(fid).to_vec();
                if !exprs.is_empty() {
                    let values = if exprs.len() == 1 && results.len() > 1 {
                        self.eval_multi(&exprs[0], results.len())?
                    } else {
                        exprs.iter().map(|e| self.eval(e)).collect::<Result<_>>()?
                    };
                    for (&rvar, v) in results.iter().zip(values) {
                        self.write_var(rvar, v)?;
                    }
                }
                Ok(Flow::Return)
            }
            StmtKind::Expr { expr } => {
                self.eval_multi(expr, usize::MAX)?;
                Ok(Flow::Normal)
            }
            StmtKind::BlockStmt { block } => self.exec_block(block),
            StmtKind::Defer { call } => {
                let (kind, args) = match &call.kind {
                    ExprKind::Call { callee, args } => {
                        let fid = self
                            .res
                            .func_by_name(callee)
                            .ok_or_else(|| ExecError::Internal("unknown callee".into()))?;
                        (DeferKind::Func(fid.index()), args)
                    }
                    ExprKind::Builtin { kind, args, .. } => (DeferKind::Builtin(*kind), args),
                    _ => return Err(ExecError::Internal("defer of non-call".into())),
                };
                let args = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<Result<Vec<_>>>()?;
                self.frames
                    .last_mut()
                    .expect("in a frame")
                    .defers
                    .push(Deferred { kind, args });
                Ok(Flow::Normal)
            }
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                let sv = self.eval(subject)?;
                for case in cases {
                    for v in &case.values {
                        let cv = self.eval(v)?;
                        if value_eq(&sv, &cv)? {
                            // Go semantics: `break` inside a switch exits
                            // the switch, not an enclosing loop.
                            return Ok(match self.exec_block(&case.body)? {
                                Flow::Break => Flow::Normal,
                                other => other,
                            });
                        }
                    }
                }
                if let Some(default) = default {
                    return Ok(match self.exec_block(default)? {
                        Flow::Break => Flow::Normal,
                        other => other,
                    });
                }
                Ok(Flow::Normal)
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Free { target, .. } => {
                let v = self.eval(target)?;
                self.mu.tcfree(v, batched);
                Ok(Flow::Normal)
            }
        }
    }

    // ---- expressions ----

    fn eval_bool(&mut self, e: &Expr) -> Result<bool> {
        match self.eval(e)? {
            Value::Bool(b) => Ok(b),
            other => Err(ExecError::Internal(format!(
                "expected bool, got {}",
                other.display()
            ))),
        }
    }

    fn eval_int(&mut self, e: &Expr) -> Result<i64> {
        match self.eval(e)? {
            Value::Int(v) => Ok(v),
            other => Err(ExecError::Internal(format!(
                "expected int, got {}",
                other.display()
            ))),
        }
    }

    /// Evaluates an expression that may yield multiple values (a call in
    /// multi-value position). `want == usize::MAX` means "any arity"
    /// (expression statements).
    fn eval_multi(&mut self, e: &Expr, want: usize) -> Result<Vec<Value>> {
        if let ExprKind::Call { callee, args } = &e.kind {
            let fid = self
                .res
                .func_by_name(callee)
                .ok_or_else(|| ExecError::Internal("unknown callee".into()))?;
            let argv = args
                .iter()
                .map(|a| self.eval(a))
                .collect::<Result<Vec<_>>>()?;
            // A call in value position charges its expression-node tick
            // here, after the arguments (the bytecode `Call` instruction's
            // `value_pos` extra).
            if want == 1 {
                self.mu.rt.tick(1);
            }
            self.mu.rt.tick(2);
            let out = self.call_function(fid, argv)?;
            if want != usize::MAX && out.len() != want {
                return Err(ExecError::Internal("result arity mismatch".into()));
            }
            return Ok(out);
        }
        Ok(vec![self.eval(e)?])
    }

    /// Evaluates an expression. Each node charges its one tick at the
    /// point where the bytecode VM's corresponding instruction charges it
    /// (post-order: after the operands, right before the node's own
    /// effect), so runtime trace timestamps are bit-identical across
    /// engines. Totals per statement are unchanged — one tick per node.
    fn eval(&mut self, e: &Expr) -> Result<Value> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                self.mu.rt.tick(1);
                Ok(Value::Int(*v))
            }
            ExprKind::BoolLit(b) => {
                self.mu.rt.tick(1);
                Ok(Value::Bool(*b))
            }
            ExprKind::StrLit(s) => {
                self.mu.rt.tick(1);
                Ok(Value::Str(Rc::from(s.as_str())))
            }
            ExprKind::Nil => {
                self.mu.rt.tick(1);
                Ok(Value::Nil)
            }
            ExprKind::Ident(_) => {
                self.mu.rt.tick(1);
                let var = self
                    .res
                    .def_of(e.id)
                    .ok_or_else(|| ExecError::Internal("unresolved ident".into()))?;
                self.read_var(var)
            }
            ExprKind::Unary { op, operand } => match op {
                UnOp::Neg => {
                    let v = self.eval_int(operand)?;
                    self.mu.rt.tick(1);
                    Ok(Value::Int(v.wrapping_neg()))
                }
                UnOp::Not => {
                    let v = self.eval_bool(operand)?;
                    self.mu.rt.tick(1);
                    Ok(Value::Bool(!v))
                }
                UnOp::Addr => self.addr_of(operand),
                UnOp::Deref => {
                    let v = self.eval(operand)?;
                    self.mu.rt.tick(1);
                    match v {
                        Value::Ptr(p) => self.mu.ptr_get(&p),
                        Value::Nil => Err(ExecError::NilDeref),
                        _ => Err(ExecError::Internal("deref of non-pointer".into())),
                    }
                }
            },
            ExprKind::Binary { op, lhs, rhs } => match op {
                // Short-circuit operators charge up front (the lowering
                // emits their tick before the left operand).
                BinOp::And => {
                    self.mu.rt.tick(1);
                    if !self.eval_bool(lhs)? {
                        return Ok(Value::Bool(false));
                    }
                    Ok(Value::Bool(self.eval_bool(rhs)?))
                }
                BinOp::Or => {
                    self.mu.rt.tick(1);
                    if self.eval_bool(lhs)? {
                        return Ok(Value::Bool(true));
                    }
                    Ok(Value::Bool(self.eval_bool(rhs)?))
                }
                _ => {
                    let l = self.eval(lhs)?;
                    let r = self.eval(rhs)?;
                    self.mu.rt.tick(1);
                    self.binop(*op, l, r)
                }
            },
            ExprKind::Field { base, name } => {
                let bv = self.eval(base)?;
                self.mu.rt.tick(1);
                if let Value::Ptr(p) = &bv {
                    self.mu.shadow_access(p.obj, "field read");
                }
                let (sv, sname) = self.auto_deref_struct(bv, base)?;
                let idx = self.field_index(&sname, name)?;
                check_poison(sv[idx].clone())
            }
            ExprKind::Index { base, index } => {
                let bv = self.eval(base)?;
                match bv {
                    Value::Slice(s) => {
                        let i = self.eval_int(index)?;
                        self.mu.rt.tick(1);
                        self.mu.slice_get(&s, i)
                    }
                    Value::Map(m) => {
                        let kv = self.eval(index)?;
                        self.mu.rt.tick(1);
                        let key = kv
                            .as_key()
                            .ok_or_else(|| ExecError::Internal("bad map key".into()))?;
                        let data = self.mu.map_lookup(&m)?;
                        match data.get(&key) {
                            Some(v) => check_poison(v.clone()),
                            None => Ok(data.default.clone()),
                        }
                    }
                    Value::Nil => Err(ExecError::NilDeref),
                    _ => Err(ExecError::Internal("index of non-indexable".into())),
                }
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                let bv = self.eval(base)?;
                let lo_v = match lo {
                    Some(e) => self.eval_int(e)?,
                    None => 0,
                };
                let hi_raw = match hi {
                    Some(e) => Some(self.eval_int(e)?),
                    None => None,
                };
                self.mu.rt.tick(1);
                reslice(bv, lo_v, hi_raw)
            }
            ExprKind::Call { .. } => {
                let mut out = self.eval_multi(e, 1)?;
                Ok(out.pop().expect("arity checked"))
            }
            ExprKind::Builtin {
                kind,
                ty_args,
                args,
            } => self.builtin(e, *kind, ty_args, args),
            ExprKind::StructLit { name, fields } => {
                let mut values = Vec::with_capacity(fields.len());
                for f in fields {
                    values.push(self.eval(f)?);
                }
                self.mu.rt.tick(1);
                let _ = name;
                Ok(Value::struct_of(values))
            }
        }
    }

    fn addr_of(&mut self, operand: &Expr) -> Result<Value> {
        match &operand.kind {
            ExprKind::Ident(_) => {
                self.mu.rt.tick(1);
                let var = self
                    .res
                    .def_of(operand.id)
                    .ok_or_else(|| ExecError::Internal("unresolved ident".into()))?;
                match self.frames.iter().rev().find_map(|f| f.slots.get(&var)) {
                    Some(Slot::Boxed(cell, obj)) => Ok(Value::ptr(PtrVal {
                        cell: cell.clone(),
                        obj: *obj,
                    })),
                    Some(Slot::Plain(_)) => Err(ExecError::Internal(format!(
                        "address taken of unboxed variable {}",
                        self.res.var(var).name
                    ))),
                    Some(Slot::Empty) | None => {
                        Err(ExecError::Internal("variable not found".into()))
                    }
                }
            }
            ExprKind::StructLit { .. } => {
                let v = self.eval(operand)?;
                self.mu.rt.tick(1);
                let heap = self.place_of(operand) == AllocPlace::Heap;
                let size = self
                    .types
                    .expr(operand.id)
                    .map(|t| self.types.inline_size(t))
                    .unwrap_or(8);
                Ok(self.mu.new_ptr(heap, size, operand.id, v))
            }
            ExprKind::Unary {
                op: UnOp::Deref,
                operand: inner,
            } => {
                // `&*p` evaluates to `p`; the `&` node still ticks (the
                // lowering emits its tick ahead of the inner expression).
                self.mu.rt.tick(1);
                self.eval(inner)
            }
            other => Err(ExecError::Unsupported(format!(
                "interior pointers (&{other:?}) are not supported by the VM"
            ))),
        }
    }

    fn builtin(
        &mut self,
        e: &Expr,
        kind: Builtin,
        ty_args: &[Type],
        args: &[Expr],
    ) -> Result<Value> {
        match kind {
            Builtin::Make => {
                let ty = &ty_args[0];
                match ty {
                    Type::Slice(elem) => {
                        let len = self.eval_int(&args[0])?.max(0) as usize;
                        let cap = if args.len() > 1 {
                            (self.eval_int(&args[1])?.max(0) as usize).max(len)
                        } else {
                            len
                        };
                        self.mu.rt.tick(1);
                        let elem_size = self.types.inline_size(elem);
                        let zero = self.zero_value(elem);
                        let heap = self.place_of(e) == AllocPlace::Heap;
                        Ok(self.mu.make_slice(heap, e.id, len, cap, elem_size, zero))
                    }
                    Type::Map(_, v) => {
                        self.mu.rt.tick(1);
                        let default = self.zero_value(v);
                        let entry_size = 16 + self.types.inline_size(v);
                        let heap = self.place_of(e) == AllocPlace::Heap;
                        Ok(self.mu.make_map(heap, e.id, default, entry_size))
                    }
                    _ => Err(ExecError::Internal("make of bad type".into())),
                }
            }
            Builtin::New => {
                self.mu.rt.tick(1);
                let ty = &ty_args[0];
                let zero = self.zero_value(ty);
                let heap = self.place_of(e) == AllocPlace::Heap;
                let size = self.types.inline_size(ty);
                Ok(self.mu.new_ptr(heap, size, e.id, zero))
            }
            Builtin::Append => {
                let sv = self.eval(&args[0])?;
                let item = self.eval(&args[1])?;
                self.mu.rt.tick(1);
                let elem_size = match self.types.expr(args[0].id) {
                    Some(Type::Slice(elem)) => self.types.inline_size(elem),
                    _ => 8,
                };
                self.mu.append(sv, item, elem_size, e.id)
            }
            Builtin::Len => {
                let v = self.eval(&args[0])?;
                self.mu.rt.tick(1);
                len_of(v)
            }
            Builtin::Cap => {
                let v = self.eval(&args[0])?;
                self.mu.rt.tick(1);
                match v {
                    Value::Slice(s) => Ok(Value::Int(s.cap() as i64)),
                    Value::Nil => Ok(Value::Int(0)),
                    _ => Err(ExecError::Internal("cap of bad value".into())),
                }
            }
            Builtin::Delete => {
                let mv = self.eval(&args[0])?;
                let kv = self.eval(&args[1])?;
                self.mu.rt.tick(1);
                if let Value::Map(m) = mv {
                    let key = kv
                        .as_key()
                        .ok_or_else(|| ExecError::Internal("bad map key".into()))?;
                    self.mu.map_delete(&m, &key);
                }
                Ok(Value::Int(0))
            }
            Builtin::Panic => {
                let v = self.eval(&args[0])?;
                self.mu.rt.tick(1);
                Err(ExecError::Panic(v.display()))
            }
            Builtin::Print => {
                let values = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<Result<Vec<_>>>()?;
                self.mu.rt.tick(1);
                self.mu.print(&values);
                Ok(Value::Int(0))
            }
            Builtin::Itoa => {
                let v = self.eval_int(&args[0])?;
                self.mu.rt.tick(1);
                Ok(Value::Str(Rc::from(v.to_string().as_str())))
            }
        }
    }

    fn binop(&mut self, op: BinOp, l: Value, r: Value) -> Result<Value> {
        binop_rt(&mut self.mu.rt, op, l, r)
    }

    // ---- lvalue stores ----

    fn store(&mut self, lv: &Expr, value: Value) -> Result<()> {
        match &lv.kind {
            ExprKind::Ident(_) => {
                let var = self
                    .res
                    .def_of(lv.id)
                    .ok_or_else(|| ExecError::Internal("unresolved ident".into()))?;
                self.write_var(var, value)
            }
            ExprKind::Unary {
                op: UnOp::Deref,
                operand,
            } => match self.eval(operand)? {
                Value::Ptr(p) => {
                    self.mu.ptr_set(&p, value);
                    Ok(())
                }
                Value::Nil => Err(ExecError::NilDeref),
                _ => Err(ExecError::Internal("store through non-pointer".into())),
            },
            ExprKind::Field { base, name } => {
                let bv = self.eval(base)?;
                match bv {
                    Value::Ptr(p) => {
                        // Through-pointer store: mutate in place.
                        self.mu.before_store(p.obj, "field write");
                        let sname = self.struct_name_of(base, true)?;
                        let idx = self.field_index(&sname, name)?;
                        let mut target = p.cell.borrow_mut();
                        match &mut *target {
                            Value::Struct(fields) => {
                                Rc::make_mut(fields)[idx] = value;
                                Ok(())
                            }
                            Value::Poison => Err(ExecError::PoisonedRead),
                            _ => Err(ExecError::Internal("field store on non-struct".into())),
                        }
                    }
                    Value::Struct(mut fields) => {
                        // Value semantics: copy, modify, write back.
                        let sname = self.struct_name_of(base, false)?;
                        let idx = self.field_index(&sname, name)?;
                        Rc::make_mut(&mut fields)[idx] = value;
                        self.store(base, Value::Struct(fields))
                    }
                    Value::Nil => Err(ExecError::NilDeref),
                    Value::Poison => Err(ExecError::PoisonedRead),
                    _ => Err(ExecError::Internal("field store on non-struct".into())),
                }
            }
            ExprKind::Index { base, index } => {
                let bv = self.eval(base)?;
                match bv {
                    Value::Slice(s) => {
                        let i = self.eval_int(index)?;
                        self.mu.slice_set(&s, i, value)
                    }
                    Value::Map(m) => {
                        let kv = self.eval(index)?;
                        let key = kv
                            .as_key()
                            .ok_or_else(|| ExecError::Internal("bad map key".into()))?;
                        self.mu.before_map_insert(&m);
                        self.mu.map_insert(&m, key, value)
                    }
                    Value::Nil => Err(ExecError::NilDeref),
                    _ => Err(ExecError::Internal("store into non-indexable".into())),
                }
            }
            _ => Err(ExecError::Internal("bad lvalue".into())),
        }
    }

    // ---- helpers ----

    fn auto_deref_struct(&self, v: Value, base: &Expr) -> Result<(Rc<Vec<Value>>, String)> {
        match v {
            Value::Struct(fields) => {
                let name = self.struct_name_of(base, false)?;
                Ok((fields, name))
            }
            Value::Ptr(p) => {
                let name = self.struct_name_of(base, true)?;
                let inner = p.cell.borrow().clone();
                match inner {
                    Value::Struct(fields) => Ok((fields, name)),
                    Value::Poison => Err(ExecError::PoisonedRead),
                    _ => Err(ExecError::Internal("field of non-struct".into())),
                }
            }
            Value::Nil => Err(ExecError::NilDeref),
            Value::Poison => Err(ExecError::PoisonedRead),
            _ => Err(ExecError::Internal("field of non-struct".into())),
        }
    }

    fn struct_name_of(&self, base: &Expr, through_ptr: bool) -> Result<String> {
        match self.types.expr(base.id) {
            Some(Type::Named(n)) if !through_ptr => Ok(n.clone()),
            Some(Type::Ptr(inner)) if through_ptr => match &**inner {
                Type::Named(n) => Ok(n.clone()),
                _ => Err(ExecError::Internal("pointer to non-struct".into())),
            },
            other => Err(ExecError::Internal(format!(
                "no struct type for base: {other:?}"
            ))),
        }
    }

    fn field_index(&self, sname: &str, field: &str) -> Result<usize> {
        self.types
            .fields_of(sname)
            .and_then(|fs| fs.iter().position(|(f, _)| f == field))
            .ok_or_else(|| ExecError::Internal(format!("no field {field} on {sname}")))
    }

    fn zero_value(&self, ty: &Type) -> Value {
        match ty {
            Type::Int => Value::Int(0),
            Type::Bool => Value::Bool(false),
            Type::Str => Value::Str(Rc::from("")),
            Type::Ptr(_) | Type::Slice(_) | Type::Map(_, _) => Value::Nil,
            Type::Named(name) => {
                let fields = self
                    .types
                    .fields_of(name)
                    .map(|fs| fs.to_vec())
                    .unwrap_or_default();
                Value::struct_of(fields.iter().map(|(_, t)| self.zero_value(t)).collect())
            }
        }
    }
}

/// The integer semantics of a binary operator: the one definition both
/// engines (and the bytecode engine's scalar fast paths) use. `None`
/// where an int pair has no plain result — `Div`/`Rem` by zero and the
/// short-circuit `And`/`Or` — so the caller's generic path raises the
/// error.
#[inline(always)]
pub(crate) fn int_bin(op: BinOp, a: i64, b: i64) -> Option<Value> {
    use BinOp::*;
    Some(match op {
        Add => Value::Int(a.wrapping_add(b)),
        Sub => Value::Int(a.wrapping_sub(b)),
        Mul => Value::Int(a.wrapping_mul(b)),
        Div if b != 0 => Value::Int(a.wrapping_div(b)),
        Rem if b != 0 => Value::Int(a.wrapping_rem(b)),
        Eq => Value::Bool(a == b),
        Ne => Value::Bool(a != b),
        Lt => Value::Bool(a < b),
        Le => Value::Bool(a <= b),
        Gt => Value::Bool(a > b),
        Ge => Value::Bool(a >= b),
        Div | Rem | And | Or => return None,
    })
}

/// Applies a binary operator, charging string-concatenation ticks on the
/// given runtime. Shared by both execution engines.
#[inline]
pub(crate) fn binop_rt(rt: &mut Runtime, op: BinOp, l: Value, r: Value) -> Result<Value> {
    use BinOp::*;
    if let (Value::Int(a), Value::Int(b)) = (&l, &r) {
        if let Some(v) = int_bin(op, *a, *b) {
            return Ok(v);
        }
    }
    if matches!(l, Value::Poison) || matches!(r, Value::Poison) {
        return Err(ExecError::PoisonedRead);
    }
    match (op, &l, &r) {
        (Add, Value::Str(a), Value::Str(b)) => {
            let mut s = a.to_string();
            s.push_str(b);
            rt.tick(1 + (s.len() as u64) / 16);
            Ok(Value::Str(Rc::from(s.as_str())))
        }
        (Div | Rem, Value::Int(_), Value::Int(_)) => Err(ExecError::DivByZero),
        (Lt, Value::Str(a), Value::Str(b)) => Ok(Value::Bool(a < b)),
        (Le, Value::Str(a), Value::Str(b)) => Ok(Value::Bool(a <= b)),
        (Gt, Value::Str(a), Value::Str(b)) => Ok(Value::Bool(a > b)),
        (Ge, Value::Str(a), Value::Str(b)) => Ok(Value::Bool(a >= b)),
        (Eq, _, _) => Ok(Value::Bool(value_eq(&l, &r)?)),
        (Ne, _, _) => Ok(Value::Bool(!value_eq(&l, &r)?)),
        _ => Err(ExecError::Internal(format!(
            "bad operands for {op}: {} and {}",
            l.display(),
            r.display()
        ))),
    }
}

/// `len(v)`, shared by both engines and the bytecode engine's fused
/// length handlers and their fast paths; `None` for a value without a length.
#[inline(always)]
pub(crate) fn len_ref(v: &Value) -> Option<i64> {
    Some(match v {
        Value::Slice(s) => s.len as i64,
        Value::Map(map) => map.data.borrow().len() as i64,
        Value::Str(s) => s.len() as i64,
        Value::Nil => 0,
        _ => return None,
    })
}

/// [`len_ref`] on an owned operand, raising the generic path's error.
#[inline]
pub(crate) fn len_of(v: Value) -> Result<Value> {
    len_ref(&v)
        .map(Value::Int)
        .ok_or_else(|| ExecError::Internal("len of bad value".into()))
}

/// `base[lo:hi]`, with `hi` defaulting to `len(base)`; shared by both
/// engines.
pub(crate) fn reslice(base: Value, lo: i64, hi: Option<i64>) -> Result<Value> {
    match base {
        Value::Slice(s) => {
            let hi = hi.unwrap_or(s.len as i64);
            // Go allows the high bound up to cap(s).
            if lo < 0 || hi < lo || hi as usize > s.cap() {
                return Err(ExecError::OutOfBounds {
                    index: hi,
                    len: s.cap(),
                });
            }
            Ok(Value::slice(SliceVal {
                cells: s.cells.clone(),
                obj: s.obj,
                offset: s.offset + lo as usize,
                len: (hi - lo) as usize,
                elem_size: s.elem_size,
            }))
        }
        Value::Nil if lo == 0 && hi.unwrap_or(0) == 0 => Ok(Value::Nil),
        Value::Nil => Err(ExecError::NilDeref),
        _ => Err(ExecError::Internal("reslice of non-slice".into())),
    }
}

#[inline]
pub(crate) fn check_poison(v: Value) -> Result<Value> {
    if matches!(v, Value::Poison) {
        Err(ExecError::PoisonedRead)
    } else {
        Ok(v)
    }
}

#[inline]
pub(crate) fn value_eq(a: &Value, b: &Value) -> Result<bool> {
    Ok(match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Nil, Value::Nil) => true,
        (Value::Nil, Value::Ptr(_) | Value::Slice(_) | Value::Map(_))
        | (Value::Ptr(_) | Value::Slice(_) | Value::Map(_), Value::Nil) => false,
        (Value::Ptr(x), Value::Ptr(y)) => Rc::ptr_eq(&x.cell, &y.cell),
        (Value::Map(x), Value::Map(y)) => Rc::ptr_eq(&x.data, &y.data),
        (Value::Struct(xs), Value::Struct(ys)) => {
            if xs.len() != ys.len() {
                return Ok(false);
            }
            for (x, y) in xs.iter().zip(ys.iter()) {
                if !value_eq(x, y)? {
                    return Ok(false);
                }
            }
            true
        }
        (Value::Slice(_), Value::Slice(_)) => {
            return Err(ExecError::Internal(
                "slices are only comparable to nil".into(),
            ));
        }
        _ => false,
    })
}

pub(crate) fn collect_addr_taken_block(block: &Block, res: &Resolution, out: &mut HashSet<VarId>) {
    for stmt in &block.stmts {
        collect_addr_taken_stmt(stmt, res, out);
    }
}

fn collect_addr_taken_stmt(stmt: &Stmt, res: &Resolution, out: &mut HashSet<VarId>) {
    let mut visit_expr = |e: &Expr| collect_addr_taken_expr(e, res, out);
    match &stmt.kind {
        StmtKind::VarDecl { init, .. } | StmtKind::ShortDecl { init, .. } => {
            init.iter().for_each(&mut visit_expr)
        }
        StmtKind::Assign { lhs, rhs, .. } => {
            lhs.iter().for_each(&mut visit_expr);
            rhs.iter().for_each(&mut visit_expr);
        }
        StmtKind::If { cond, then, els } => {
            visit_expr(cond);
            collect_addr_taken_block(then, res, out);
            if let Some(els) = els {
                collect_addr_taken_stmt(els, res, out);
            }
        }
        StmtKind::For {
            init,
            cond,
            post,
            body,
        } => {
            if let Some(init) = init {
                collect_addr_taken_stmt(init, res, out);
            }
            if let Some(cond) = cond {
                collect_addr_taken_expr(cond, res, out);
            }
            if let Some(post) = post {
                collect_addr_taken_stmt(post, res, out);
            }
            collect_addr_taken_block(body, res, out);
        }
        StmtKind::Return { exprs } => exprs.iter().for_each(&mut visit_expr),
        StmtKind::Expr { expr } => visit_expr(expr),
        StmtKind::BlockStmt { block } => collect_addr_taken_block(block, res, out),
        StmtKind::Defer { call } => visit_expr(call),
        StmtKind::Switch {
            subject,
            cases,
            default,
        } => {
            collect_addr_taken_expr(subject, res, out);
            for case in cases {
                for v in &case.values {
                    collect_addr_taken_expr(v, res, out);
                }
                collect_addr_taken_block(&case.body, res, out);
            }
            if let Some(default) = default {
                collect_addr_taken_block(default, res, out);
            }
        }
        StmtKind::Break | StmtKind::Continue => {}
        StmtKind::Free { target, .. } => visit_expr(target),
    }
}

fn collect_addr_taken_expr(e: &Expr, res: &Resolution, out: &mut HashSet<VarId>) {
    match &e.kind {
        ExprKind::Unary {
            op: UnOp::Addr,
            operand,
        } => {
            if let ExprKind::Ident(_) = &operand.kind {
                if let Some(v) = res.def_of(operand.id) {
                    out.insert(v);
                }
            }
            collect_addr_taken_expr(operand, res, out);
        }
        ExprKind::Unary { operand, .. } => collect_addr_taken_expr(operand, res, out),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_addr_taken_expr(lhs, res, out);
            collect_addr_taken_expr(rhs, res, out);
        }
        ExprKind::Field { base, .. } => collect_addr_taken_expr(base, res, out),
        ExprKind::Index { base, index } => {
            collect_addr_taken_expr(base, res, out);
            collect_addr_taken_expr(index, res, out);
        }
        ExprKind::SliceExpr { base, lo, hi } => {
            collect_addr_taken_expr(base, res, out);
            for bound in [lo, hi].into_iter().flatten() {
                collect_addr_taken_expr(bound, res, out);
            }
        }
        ExprKind::Call { args, .. } | ExprKind::Builtin { args, .. } => {
            args.iter()
                .for_each(|a| collect_addr_taken_expr(a, res, out));
        }
        ExprKind::StructLit { fields, .. } => {
            fields
                .iter()
                .for_each(|f| collect_addr_taken_expr(f, res, out));
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minigo_escape::{analyze, instrument, AnalyzeOptions};
    use minigo_runtime::{Category, FreeSource, PoisonMode, RuntimeConfig};
    use minigo_syntax::frontend;

    fn run_src_with(src: &str, opts: AnalyzeOptions, cfg: VmConfig) -> Result<RunOutcome> {
        let (program, mut res, types) = frontend(src).expect("frontend");
        let analysis = analyze(&program, &res, &types, &opts);
        let instrumented = instrument(&program, &mut res, &analysis);
        run(&instrumented, &res, &types, &analysis, cfg)
    }

    fn run_src(src: &str) -> RunOutcome {
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                migrate_prob: 0.0,
                jitter: 0.0,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        match run_src_with(src, AnalyzeOptions::default(), cfg) {
            Ok(out) => out,
            Err(e) => panic!("run failed: {e}\nsource:\n{src}"),
        }
    }

    #[test]
    fn arithmetic_and_print() {
        let out = run_src("func main() { x := 2 + 3 * 4\n print(x, x % 5, x / 2) }\n");
        assert_eq!(out.output, "14 4 7\n");
    }

    #[test]
    fn control_flow_fib() {
        let out = run_src(
            "func fib(n int) int { if n < 2 { return n }\n return fib(n-1) + fib(n-2) }\nfunc main() { print(fib(10)) }\n",
        );
        assert_eq!(out.output, "55\n");
    }

    #[test]
    fn loops_break_continue() {
        let out = run_src(
            "func main() { sum := 0\n for i := 0; i < 10; i += 1 { if i == 3 { continue }\n if i == 7 { break }\n sum += i }\n print(sum) }\n",
        );
        assert_eq!(out.output, "18\n"); // 0+1+2+4+5+6
    }

    #[test]
    fn slices_share_backing() {
        let out =
            run_src("func main() { s := make([]int, 3)\n t := s\n t[1] = 42\n print(s[1]) }\n");
        assert_eq!(out.output, "42\n");
    }

    #[test]
    fn append_grows_and_preserves() {
        let out = run_src(
            "func main() { var s []int\n for i := 0; i < 20; i += 1 { s = append(s, i*i) }\n print(len(s), s[19], cap(s) >= 20) }\n",
        );
        assert_eq!(out.output, "20 361 true\n");
    }

    #[test]
    fn append_within_cap_aliases() {
        let out = run_src(
            "func main() { s := make([]int, 1, 4)\n t := append(s, 9)\n print(t[1], len(s), len(t)) }\n",
        );
        assert_eq!(out.output, "9 1 2\n");
    }

    #[test]
    fn maps_insert_lookup_delete() {
        let out = run_src(
            "func main() { m := make(map[string]int)\n m[\"a\"] = 1\n m[\"b\"] = 2\n m[\"a\"] = 3\n print(m[\"a\"], m[\"b\"], m[\"missing\"], len(m))\n delete(m, \"a\")\n print(len(m)) }\n",
        );
        assert_eq!(out.output, "3 2 0 2\n1\n");
    }

    #[test]
    fn map_growth_allocates_and_frees_old_buckets() {
        let out = run_src(
            "func main() { m := make(map[int]int)\n for i := 0; i < 100; i += 1 { m[i] = i }\n print(m[77], len(m)) }\n",
        );
        assert_eq!(out.output, "77 100\n");
        let grow_frees = out.metrics.freed_objects_by_source[FreeSource::MapGrowOld.index()];
        assert!(grow_frees >= 2, "expected grow-frees, got {grow_frees}");
    }

    #[test]
    fn pointers_read_write() {
        let out =
            run_src("func main() { x := 1\n p := &x\n *p = 41\n y := *p + 1\n print(x, y) }\n");
        assert_eq!(out.output, "41 42\n");
    }

    #[test]
    fn structs_are_values() {
        let out = run_src(
            "type P struct { x int\n y int }\nfunc main() { a := P{1, 2}\n b := a\n b.x = 99\n print(a.x, b.x) }\n",
        );
        assert_eq!(out.output, "1 99\n");
    }

    #[test]
    fn struct_through_pointer_shares() {
        let out = run_src(
            "type P struct { x int }\nfunc main() { p := &P{5}\n q := p\n q.x = 7\n print(p.x) }\n",
        );
        assert_eq!(out.output, "7\n");
    }

    #[test]
    fn multiple_return_values() {
        let out = run_src(
            "func divmod(a int, b int) (int, int) { return a / b, a % b }\nfunc main() { q, r := divmod(17, 5)\n print(q, r) }\n",
        );
        assert_eq!(out.output, "3 2\n");
    }

    #[test]
    fn named_results_and_bare_return() {
        let out = run_src(
            "func f(n int) (out int) { out = n * 2\n return }\nfunc main() { print(f(21)) }\n",
        );
        assert_eq!(out.output, "42\n");
    }

    #[test]
    fn defers_run_lifo_at_exit() {
        let out = run_src("func main() { defer print(1)\n defer print(2)\n print(3) }\n");
        assert_eq!(out.output, "3\n2\n1\n");
    }

    #[test]
    fn panic_unwinds_with_defers() {
        let src =
            "func boom() { defer print(\"deferred\")\n panic(\"bad\") }\nfunc main() { boom() }\n";
        let cfg = VmConfig::default();
        let err = run_src_with(src, AnalyzeOptions::default(), cfg).unwrap_err();
        assert_eq!(err, ExecError::Panic("bad".into()));
    }

    #[test]
    fn out_of_bounds_detected() {
        let src = "func main() { s := make([]int, 2)\n print(s[5]) }\n";
        let err = run_src_with(src, AnalyzeOptions::default(), VmConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { index: 5, len: 2 }));
    }

    #[test]
    fn nil_map_store_fails() {
        let src = "func main() { var m map[int]int\n m[1] = 2 }\n";
        let err = run_src_with(src, AnalyzeOptions::default(), VmConfig::default()).unwrap_err();
        assert_eq!(err, ExecError::NilDeref);
    }

    #[test]
    fn div_by_zero() {
        let src = "func main() { x := 1\n y := 0\n print(x / y) }\n";
        let err = run_src_with(src, AnalyzeOptions::default(), VmConfig::default()).unwrap_err();
        assert_eq!(err, ExecError::DivByZero);
    }

    #[test]
    fn string_ops() {
        let out = run_src(
            "func main() { a := \"go\" + \"free\"\n print(a, len(a), itoa(42) + \"!\") }\n",
        );
        assert_eq!(out.output, "gofree 6 42!\n");
    }

    #[test]
    fn tcfree_frees_local_slices() {
        let out = run_src(
            "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { total := 0\n for i := 0; i < 50; i += 1 { total += work(100 + i) }\n print(total) }\n",
        );
        assert_eq!(out.output, "6225\n");
        assert!(
            out.metrics.freed_bytes > 0,
            "inserted tcfrees reclaimed memory: {:?}",
            out.metrics
        );
        assert!(out.metrics.free_ratio() > 0.5);
    }

    #[test]
    fn go_mode_frees_nothing() {
        let src = "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { total := 0\n for i := 0; i < 50; i += 1 { total += work(100 + i) }\n print(total) }\n";
        let cfg = VmConfig {
            grow_map_free_old: false,
            ..VmConfig::default()
        };
        let out = run_src_with(src, AnalyzeOptions::go(), cfg).unwrap();
        assert_eq!(out.metrics.freed_bytes, 0);
        assert_eq!(out.metrics.tcfree_attempts, 0);
    }

    #[test]
    fn gc_collects_dead_objects() {
        // Allocate far past the GC trigger with everything dying young.
        let src = "func main() { for i := 0; i < 2000; i += 1 { s := make([]int, 100 + i % 3)\n s[0] = i } }\n";
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                migrate_prob: 0.0,
                jitter: 0.0,
                min_heap: 64 * 1024,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        // Run in plain Go mode so GC does all the work.
        let out = run_src_with(src, AnalyzeOptions::go(), cfg).unwrap();
        assert!(out.metrics.gcs >= 1, "GC ran: {:?}", out.metrics.gcs);
        assert!(out.metrics.heap_gced[Category::Slice.index()] > 0);
    }

    #[test]
    fn gofree_reduces_gcs_versus_go() {
        let src = "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { total := 0\n for i := 0; i < 3000; i += 1 { total += work(120) }\n print(total) }\n";
        let mk_cfg = || VmConfig {
            runtime: RuntimeConfig {
                migrate_prob: 0.0,
                jitter: 0.0,
                min_heap: 64 * 1024,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        let go = run_src_with(src, AnalyzeOptions::go(), mk_cfg()).unwrap();
        let gofree = run_src_with(src, AnalyzeOptions::default(), mk_cfg()).unwrap();
        assert_eq!(go.output, gofree.output, "same program behaviour");
        assert!(
            gofree.metrics.gcs < go.metrics.gcs,
            "GoFree {} GCs vs Go {} GCs",
            gofree.metrics.gcs,
            go.metrics.gcs
        );
        assert!(gofree.metrics.free_ratio() > 0.5);
    }

    #[test]
    fn poison_mode_detects_unsound_free() {
        // Directly free a slice that is still used afterwards — the mock
        // tcfree (§6.8) must surface the bug as a poisoned read.
        let src =
            "func main() { n := 100\n s := make([]int, n)\n s[0] = 7\n tcfree(s)\n print(s[0]) }\n";
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                poison: PoisonMode::Zero,
                migrate_prob: 0.0,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        let err = run_src_with(src, AnalyzeOptions::go(), cfg).unwrap_err();
        assert_eq!(err, ExecError::PoisonedRead);
    }

    #[test]
    fn sanitizer_flags_use_after_free() {
        // The same unsound hand-written free, but caught by the shadow
        // heap instead of poison: the run completes (the stale read sees
        // the old bytes) and the violation is reported out-of-band.
        let src =
            "func main() { n := 100\n s := make([]int, n)\n s[0] = 7\n tcfree(s)\n print(s[0]) }\n";
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                migrate_prob: 0.0,
                jitter: 0.0,
                ..RuntimeConfig::default()
            },
            sanitize: true,
            ..VmConfig::default()
        };
        let out = run_src_with(src, AnalyzeOptions::go(), cfg).unwrap();
        assert_eq!(out.output, "7\n", "stale read still sees old bytes");
        assert!(!out.violations.is_empty());
        assert_eq!(
            out.violations[0].kind,
            minigo_runtime::ViolationKind::UseAfterFree
        );
        assert_eq!(out.violations[0].op, "slice index read");
    }

    #[test]
    fn sanitizer_is_invisible_and_clean_on_sound_program() {
        // Instrumented (sound) frees: zero violations, and the observable
        // report is bit-identical with the sanitizer on or off.
        let src = "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { total := 0\n for i := 0; i < 50; i += 1 { total += work(100 + i) }\n print(total) }\n";
        let base = VmConfig {
            runtime: RuntimeConfig {
                migrate_prob: 0.0,
                jitter: 0.0,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        let plain = run_src_with(src, AnalyzeOptions::default(), base.clone()).unwrap();
        let sanitized = run_src_with(
            src,
            AnalyzeOptions::default(),
            VmConfig {
                sanitize: true,
                ..base
            },
        )
        .unwrap();
        assert!(sanitized.violations.is_empty());
        assert_eq!(plain.output, sanitized.output);
        assert_eq!(plain.time, sanitized.time);
        assert_eq!(plain.steps, sanitized.steps);
        assert_eq!(
            format!("{:?}", plain.metrics),
            format!("{:?}", sanitized.metrics)
        );
        assert_eq!(plain.site_profile, sanitized.site_profile);
    }

    #[test]
    fn poison_mode_passes_on_sound_program() {
        // The instrumented frees are all sound, so poisoning must not
        // change observable behaviour.
        let src = "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { total := 0\n for i := 0; i < 50; i += 1 { total += work(100 + i) }\n print(total) }\n";
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                poison: PoisonMode::Flip,
                migrate_prob: 0.0,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        let out = run_src_with(src, AnalyzeOptions::default(), cfg).unwrap();
        assert_eq!(out.output, "6225\n");
    }

    #[test]
    fn stack_allocation_counted() {
        let out = run_src("func main() { s := make([]int, 10)\n s[0] = 1\n print(s[0]) }\n");
        assert_eq!(out.metrics.stack_allocs[Category::Slice.index()], 1);
        assert_eq!(out.metrics.heap_allocs[Category::Slice.index()], 0);
    }

    #[test]
    fn escaping_var_is_heap_accounted() {
        let src = "func mk() *int { x := 5\n return &x }\nfunc main() { p := mk()\n print(*p) }\n";
        let out = run_src(src);
        assert_eq!(out.output, "5\n");
        assert!(
            out.metrics.heap_allocs[Category::Other.index()] >= 1,
            "escaping x must be heap-accounted: {:?}",
            out.metrics.heap_allocs
        );
    }

    #[test]
    fn step_limit_stops_runaway() {
        let src = "func main() { for { } }\n";
        let cfg = VmConfig {
            step_limit: 10_000,
            ..VmConfig::default()
        };
        let err = run_src_with(src, AnalyzeOptions::default(), cfg).unwrap_err();
        assert_eq!(err, ExecError::StepLimit);
    }

    #[test]
    fn deterministic_across_runs() {
        let src = "func main() { m := make(map[int]int)\n for i := 0; i < 500; i += 1 { m[i % 50] = i }\n print(len(m)) }\n";
        let a = run_src(src);
        let b = run_src(src);
        assert_eq!(a.output, b.output);
        assert_eq!(a.time, b.time);
        assert_eq!(a.metrics.alloced_bytes, b.metrics.alloced_bytes);
    }
}
