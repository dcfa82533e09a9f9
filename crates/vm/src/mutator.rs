//! The runtime-facing layer both engines share.
//!
//! GoFree's runtime side is one API: allocation, `tcfree` with its
//! table-4 entry points (FreeSlice / FreeMap / GrowMapAndFreeOld), and
//! the collector. [`Mutator`] is that API's only caller. It owns the
//! simulated runtime, the table from VM objects to allocator addresses,
//! the allocation-site profile, the shadow heap, the call-stack interner,
//! session-held roots and the program's output, and it does each
//! runtime-visible job once. An engine keeps its frames and its
//! evaluation and reaches the runtime only through its `mu` field, so
//! the two engines' allocation, free and safepoint sequences can differ
//! only where their evaluation does.

use std::cell::{Ref, RefCell};
use std::collections::HashSet;
use std::rc::Rc;

use minigo_runtime::{
    Category, FreeOutcome, FreeSource, ObjAddr, Runtime, RuntimeConfig, ShadowHeap, ShadowViolation,
};
use minigo_syntax::{Builtin, ExprId};

use crate::error::ExecError;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::interp::check_poison;
use crate::value::{filled, Cell, Key, MapData, MapVal, ObjId, PtrVal, SliceVal, Value};

/// Result alias for execution.
pub type Result<T> = std::result::Result<T, ExecError>;

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Runtime (allocator/GC/tcfree) configuration.
    pub runtime: RuntimeConfig,
    /// Abort after this many statements (runaway guard).
    pub step_limit: u64,
    /// Maximum call depth.
    pub max_frames: usize,
    /// Whether GoFree's runtime-side map-growth freeing is active
    /// (§4.6.2's GrowMapAndFreeOld). True when running GoFree-compiled
    /// programs.
    pub grow_map_free_old: bool,
    /// Batch adjacent `tcfree` statements (§5, "Possibility of Batching"):
    /// consecutive frees share one call overhead. Off by default, as in
    /// the paper.
    pub batch_frees: bool,
    /// Run the shadow-heap sanitizer: check every load, store, and free
    /// against an out-of-band shadow of the heap and report
    /// use-after-free / use-after-revert / untolerated-double-free
    /// violations in [`RunOutcome::violations`]. Has no effect on the
    /// simulation itself (no ticks, no metrics, no RNG).
    pub sanitize: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            runtime: RuntimeConfig::default(),
            step_limit: 500_000_000,
            max_frames: 4096,
            grow_map_free_old: true,
            batch_frees: false,
            sanitize: false,
        }
    }
}

impl VmConfig {
    /// Configuration matching an analysis mode: plain-Go programs do not
    /// get the map-growth runtime optimization.
    pub fn for_mode(mode: minigo_escape::Mode) -> Self {
        VmConfig {
            grow_map_free_old: mode == minigo_escape::Mode::GoFree,
            ..VmConfig::default()
        }
    }
}

/// The result of a completed run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Everything `print` produced.
    pub output: String,
    /// Virtual wall-clock time (table 5 `time`).
    pub time: u64,
    /// Runtime metrics (table 5, 8, 9 inputs).
    pub metrics: minigo_runtime::Metrics,
    /// Statements executed.
    pub steps: u64,
    /// Per-allocation-site profile, sorted by bytes descending (the
    /// paper's profiling-tool view of where heap memory comes from).
    pub site_profile: Vec<SiteProfile>,
    /// Shadow-heap sanitizer findings (empty unless
    /// [`VmConfig::sanitize`] was on). Carried out-of-band: `output`,
    /// `time`, `metrics`, and `steps` are bit-identical with the
    /// sanitizer on or off.
    pub violations: Vec<ShadowViolation>,
    /// The typed runtime event stream (present only when
    /// [`minigo_runtime::RuntimeConfig::trace`] was on). Carried
    /// out-of-band like `violations`: every other report field is
    /// bit-identical with tracing on or off, and the stream itself is
    /// bit-identical across the two VM engines.
    pub trace: Option<minigo_runtime::Trace>,
    /// Which collection backend ran
    /// ([`minigo_runtime::RuntimeConfig::collector`]).
    pub collector: minigo_runtime::CollectorKind,
    /// Inline-cache hits, when the bytecode engine ran an optimized
    /// module (always 0 on the tree-walk and on unoptimized streams).
    /// Carried out-of-band like `violations`: the caches cannot change
    /// any other field.
    pub ic_hits: u64,
    /// Inline-cache misses (see `ic_hits`).
    pub ic_misses: u64,
    /// Optimizer-tier rewrite statistics for the module this run
    /// executed. The VM itself leaves this `None`; the driver that
    /// selected an optimized stream fills it in (so it is `None` on the
    /// tree-walk and at `--opt off`).
    pub opt: Option<crate::bytecode::OptStats>,
    /// Liveness free-placement counters for the compiled program this
    /// run executed. Like `opt`, the VM leaves this `None`; the driver
    /// copies it from the compile so both engines report identically
    /// (it is `None` in `--free-placement scope` and plain-Go runs).
    pub placement: Option<minigo_escape::PlacementStats>,
}

/// Heap allocation statistics for one allocation expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteProfile {
    /// The allocation expression (make/new/&T{}/append).
    pub site: ExprId,
    /// Objects allocated at this site.
    pub count: u64,
    /// Bytes allocated at this site.
    pub bytes: u64,
}

/// A frame slot. `Empty` marks a not-yet-declared local; reading one is
/// an engine's "variable not found".
#[derive(Clone)]
pub(crate) enum Slot {
    Empty,
    Plain(Value),
    /// An address-taken variable: a shared cell, heap-accounted when the
    /// analysis decided its storage escapes.
    Boxed(Cell, Option<ObjId>),
}

impl Slot {
    /// A parameter or result slot (never heap-accounted).
    #[inline]
    pub(crate) fn new(value: Value, boxed: bool) -> Slot {
        if boxed {
            Slot::Boxed(Rc::new(RefCell::new(value)), None)
        } else {
            Slot::Plain(value)
        }
    }

    /// Overwrites the slot's value.
    #[inline]
    pub(crate) fn set(&mut self, v: Value) -> Result<()> {
        match self {
            Slot::Plain(p) => *p = v,
            Slot::Boxed(cell, _) => *cell.borrow_mut() = v,
            Slot::Empty => return Err(ExecError::Internal("write to undeclared variable".into())),
        }
        Ok(())
    }
}

/// What a `defer` runs at function exit.
pub(crate) enum DeferKind {
    /// A user function, by index into the program's function list.
    Func(usize),
    Builtin(Builtin),
}

/// A deferred call with its arguments, evaluated at the `defer`.
pub(crate) struct Deferred {
    pub(crate) kind: DeferKind,
    pub(crate) args: Vec<Value>,
}

/// A call frame as the collector sees it: its slots and its deferred
/// calls' arguments are GC roots. Operand-stack temporaries and Rust
/// expression temporaries are not.
pub(crate) trait Roots {
    fn slots(&self) -> impl Iterator<Item = &Slot>;
    fn defers(&self) -> &[Deferred];
}

/// The runtime entry point a [`FreeSource`] corresponds to (table 4),
/// used to label sanitizer findings.
fn free_op_name(source: FreeSource) -> &'static str {
    match source {
        FreeSource::SliceLifetime => "FreeSlice",
        FreeSource::MapLifetime => "FreeMap",
        FreeSource::MapGrowOld => "GrowMapAndFreeOld",
        FreeSource::Object => "Tcfree",
    }
}

/// The runtime state of one execution and the operations on it that
/// are visible to the runtime.
pub(crate) struct Mutator {
    pub(crate) cfg: VmConfig,
    pub(crate) rt: Runtime,
    /// Heap-accounted objects: id → allocator address.
    objects: FxHashMap<ObjId, ObjAddr>,
    addr_map: FxHashMap<ObjAddr, ObjId>,
    next_obj: u64,
    /// Per-site allocation profile: expr id → (count, bytes).
    site_profile: FxHashMap<ExprId, (u64, u64)>,
    /// Interned call stacks, present when tracing: every function
    /// entry/exit stamps the current stack id into the runtime so traced
    /// events carry full call-stack attribution. Interning follows the
    /// call sequence, which both engines execute identically, so stack
    /// ids are bit-identical across engines.
    stacks: Option<minigo_runtime::StackTable>,
    /// The interned id of the current call stack (root when not tracing).
    cur_stack: u32,
    /// The shadow-heap sanitizer, present when `cfg.sanitize` is on.
    shadow: Option<ShadowHeap>,
    /// Session-held GC roots: values a [`crate::Session`] keeps alive
    /// across calls (service state returned by `setup` and passed back
    /// into every `handle`). Always empty in one-shot runs.
    held: Vec<Value>,
    output: String,
    steps: u64,
}

impl Mutator {
    pub(crate) fn new(cfg: VmConfig) -> Self {
        Mutator {
            rt: Runtime::new(cfg.runtime.clone()),
            shadow: cfg.sanitize.then(ShadowHeap::new),
            stacks: cfg.runtime.trace.then(minigo_runtime::StackTable::new),
            cfg,
            objects: FxHashMap::default(),
            addr_map: FxHashMap::default(),
            next_obj: 0,
            site_profile: FxHashMap::default(),
            cur_stack: minigo_runtime::ROOT_STACK,
            held: Vec::new(),
            output: String::new(),
            steps: 0,
        }
    }

    /// End-of-run accounting: finalizes the runtime (leftover objects
    /// count toward the GC columns, held state included) and assembles
    /// the report.
    pub(crate) fn finish(mut self) -> RunOutcome {
        self.rt.finalize();
        let mut site_profile: Vec<SiteProfile> = self
            .site_profile
            .iter()
            .map(|(&site, &(count, bytes))| SiteProfile { site, count, bytes })
            .collect();
        site_profile.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.site.cmp(&b.site)));
        let violations = match self.shadow.as_mut() {
            Some(sh) => sh.take_violations(),
            None => Vec::new(),
        };
        let mut trace = self.rt.take_trace();
        if let (Some(tr), Some(st)) = (trace.as_mut(), self.stacks.take()) {
            // The runtime only sees interned ids; the table that resolves
            // them lives here and rides along in the trace.
            tr.stacks = st;
        }
        RunOutcome {
            output: self.output,
            time: self.rt.now(),
            metrics: self.rt.metrics().clone(),
            steps: self.steps,
            site_profile,
            violations,
            trace,
            collector: self.rt.collector_kind(),
            ic_hits: 0,
            ic_misses: 0,
            opt: None,
            placement: None,
        }
    }

    /// Roots `values` until the run finishes.
    pub(crate) fn hold(&mut self, values: Vec<Value>) {
        self.held.extend(values);
    }

    /// Whether the shadow-heap sanitizer watches this run.
    #[inline(always)]
    pub(crate) fn sanitizing(&self) -> bool {
        self.shadow.is_some()
    }

    // ---- allocation ----

    /// Allocates a heap-accounted object, attributed to `site` in the
    /// allocation profile when one is given.
    fn new_obj_at(&mut self, size: u64, cat: Category, site: Option<ExprId>) -> ObjId {
        if let Some(site) = site {
            let entry = self.site_profile.entry(site).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += size;
        }
        let addr = self.rt.alloc_at(size, cat, site.map(|s| s.0));
        // The allocator may hand back a previously swept address.
        if let Some(old) = self.addr_map.insert(addr, ObjId(self.next_obj)) {
            self.objects.remove(&old);
        }
        let id = ObjId(self.next_obj);
        self.next_obj += 1;
        self.objects.insert(id, addr);
        if let Some(sh) = &mut self.shadow {
            sh.on_alloc(id.0, addr);
        }
        id
    }

    /// Places an allocation where the escape analysis decided: a
    /// heap-accounted object, or a counted stack allocation (`None`).
    fn place(
        &mut self,
        heap: bool,
        size: u64,
        cat: Category,
        site: Option<ExprId>,
    ) -> Option<ObjId> {
        if heap {
            Some(self.new_obj_at(size, cat, site))
        } else {
            self.rt.stack_alloc(cat);
            None
        }
    }

    /// `new(T)` / `&T{..}`: a pointer to a fresh cell holding `v`.
    pub(crate) fn new_ptr(&mut self, heap: bool, size: u64, site: ExprId, v: Value) -> Value {
        let obj = self.place(heap, size, Category::Other, Some(site));
        Value::ptr(PtrVal {
            cell: Rc::new(RefCell::new(v)),
            obj,
        })
    }

    /// An address-taken local's slot.
    pub(crate) fn boxed_slot(&mut self, heap: bool, size: u64, v: Value) -> Slot {
        let obj = self.place(heap, size, Category::Other, None);
        Slot::Boxed(Rc::new(RefCell::new(v)), obj)
    }

    /// `make([]T, len, cap)`.
    pub(crate) fn make_slice(
        &mut self,
        heap: bool,
        site: ExprId,
        len: usize,
        cap: usize,
        elem_size: u64,
        zero: Value,
    ) -> Value {
        let cap = cap.max(1);
        let obj = self.place(
            heap,
            (cap as u64 * elem_size).max(8),
            Category::Slice,
            Some(site),
        );
        Value::slice(SliceVal {
            cells: Rc::new(RefCell::new(filled(zero, cap))),
            obj,
            offset: 0,
            len,
            elem_size,
        })
    }

    /// `make(map[K]V)`.
    pub(crate) fn make_map(
        &mut self,
        heap: bool,
        site: ExprId,
        default: Value,
        entry_size: u64,
    ) -> Value {
        let obj = self.place(
            heap,
            minigo_escape::MAP_BASE_BYTES,
            Category::Map,
            Some(site),
        );
        Value::map(MapVal {
            data: Rc::new(RefCell::new(MapData {
                entries: Vec::new(),
                index: FxHashMap::default(),
                buckets_obj: None,
                bucket_cap: 8,
                default,
                entry_size,
                origin: Some(site),
                poisoned: false,
            })),
            obj,
        })
    }

    /// `append(s, item)`; the caller has charged the node's own tick.
    pub(crate) fn append(
        &mut self,
        sv: Value,
        item: Value,
        elem_size: u64,
        site: ExprId,
    ) -> Result<Value> {
        self.rt.tick(2);
        let (len, mut cells) = match sv {
            // Appending to a nil slice allocates a fresh heap array
            // (runtime-managed, §4.6.1).
            Value::Nil => (0, Vec::new()),
            Value::Slice(mut s) => {
                self.shadow_access(s.obj, "append");
                if s.len < s.cap() {
                    let at = s.offset + s.len;
                    s.cells.borrow_mut()[at] = item;
                    Rc::make_mut(&mut s).len += 1;
                    return Ok(Value::Slice(s));
                }
                // Grow: a fresh heap array; the old one is left to GC
                // (other slices may still reference it).
                let cells = s.cells.borrow()[s.offset..s.offset + s.len].to_vec();
                (s.len, cells)
            }
            _ => return Err(ExecError::Internal("append to non-slice".into())),
        };
        let new_cap = (len * 2).max(8);
        let obj = self.new_obj_at(new_cap as u64 * elem_size, Category::Slice, Some(site));
        cells.push(item);
        cells.resize_with(new_cap, || Value::Int(0));
        Ok(Value::slice(SliceVal {
            cells: Rc::new(RefCell::new(cells)),
            obj: Some(obj),
            offset: 0,
            len: len + 1,
            elem_size,
        }))
    }

    // ---- loads and stores ----

    /// `*p`.
    #[inline]
    pub(crate) fn ptr_get(&mut self, p: &PtrVal) -> Result<Value> {
        self.shadow_access(p.obj, "pointer deref read");
        check_poison(p.cell.borrow().clone())
    }

    /// `*p = v`.
    #[inline]
    pub(crate) fn ptr_set(&mut self, p: &PtrVal, v: Value) {
        self.before_store(p.obj, "pointer deref write");
        *p.cell.borrow_mut() = v;
    }

    /// `s[i]`.
    #[inline]
    pub(crate) fn slice_get(&mut self, s: &SliceVal, i: i64) -> Result<Value> {
        let at = element(s, i)?;
        self.shadow_access(s.obj, "slice index read");
        check_poison(s.cells.borrow()[at].clone())
    }

    /// `s[i] = v`.
    #[inline]
    pub(crate) fn slice_set(&mut self, s: &SliceVal, i: i64, v: Value) -> Result<()> {
        let at = element(s, i)?;
        self.before_store(s.obj, "slice index write");
        s.cells.borrow_mut()[at] = v;
        Ok(())
    }

    /// The shadow check and write barrier of a store through `obj`.
    #[inline]
    pub(crate) fn before_store(&mut self, obj: Option<ObjId>, op: &'static str) {
        self.shadow_access(obj, op);
        self.barrier(obj);
    }

    // ---- maps ----

    /// The ticks, shadow check and write barrier of a map insert, before
    /// the engine looks the key up.
    #[inline]
    pub(crate) fn before_map_insert(&mut self, m: &MapVal) {
        self.rt.tick(3);
        self.shadow_access_map(m, "map insert");
        self.barrier_map(m);
    }

    /// The ticks, shadow check and poison check of a map lookup; the
    /// engine looks the key up in the storage this returns.
    #[inline]
    pub(crate) fn map_lookup<'v>(&mut self, m: &'v MapVal) -> Result<Ref<'v, MapData>> {
        self.rt.tick(2);
        self.shadow_access_map(m, "map lookup");
        let data = m.data.borrow();
        if data.poisoned {
            return Err(ExecError::PoisonedRead);
        }
        Ok(data)
    }

    /// `delete(m, key)`; the caller has charged the node's own tick.
    pub(crate) fn map_delete(&mut self, m: &MapVal, key: &Key) {
        self.rt.tick(2);
        self.shadow_access_map(m, "map delete");
        m.data.borrow_mut().remove(key);
    }

    /// Inserts `key`, growing the bucket array when a new key overflows
    /// it (§4.6.2: the old array is exclusively owned and, under GoFree,
    /// freed with GrowMapAndFreeOld; in plain Go it is left to the GC).
    /// Follows [`Mutator::before_map_insert`].
    pub(crate) fn map_insert(&mut self, m: &MapVal, key: Key, value: Value) -> Result<()> {
        let needs_growth = {
            let data = m.data.borrow();
            if data.poisoned {
                return Err(ExecError::PoisonedRead);
            }
            data.get(&key).is_none() && data.len() + 1 > data.bucket_cap
        };
        if needs_growth {
            let (old, new_cap, entry_size, origin) = {
                let mut data = m.data.borrow_mut();
                data.bucket_cap *= 2;
                (
                    data.buckets_obj.take(),
                    data.bucket_cap,
                    data.entry_size,
                    data.origin,
                )
            };
            let new_obj = self.new_obj_at(new_cap as u64 * entry_size, Category::Map, origin);
            m.data.borrow_mut().buckets_obj = Some(new_obj);
            // Poisoning old buckets corrupts nothing the map still uses:
            // its entries were evacuated.
            if let Some(old) = old.filter(|_| self.cfg.grow_map_free_old) {
                self.free_obj(old, FreeSource::MapGrowOld, false);
            }
        }
        m.data.borrow_mut().insert(key, value);
        Ok(())
    }

    // ---- tcfree ----

    /// Attempts a `tcfree` on an accounted object; `batched` continues a
    /// run of adjacent frees that already paid the call overhead.
    /// Returns the outcome and whether the payload must be poisoned.
    fn free_obj(&mut self, obj: ObjId, source: FreeSource, batched: bool) -> (FreeOutcome, bool) {
        if let Some(sh) = &mut self.shadow {
            sh.check_free(obj.0, free_op_name(source), self.steps);
        }
        let Some(&addr) = self.objects.get(&obj) else {
            // Already freed or swept: tolerated double free.
            return (
                FreeOutcome::Bailed(minigo_runtime::BailReason::AlreadyFree),
                false,
            );
        };
        let out = if batched {
            self.rt.tcfree_continue(addr, source)
        } else {
            self.rt.tcfree(addr, source)
        };
        match out {
            FreeOutcome::Freed { .. } => {
                self.objects.remove(&obj);
                self.addr_map.remove(&addr);
                if let Some(sh) = &mut self.shadow {
                    sh.on_free(obj.0, addr);
                }
                (out, false)
            }
            FreeOutcome::Poisoned => (out, true),
            FreeOutcome::Bailed(_) => (out, false),
        }
    }

    /// A `tcfree` statement: dispatches to TcfreeSlice / TcfreeMap /
    /// Tcfree on the runtime value (table 4) and poisons what a mock
    /// free (§6.8) corrupted.
    pub(crate) fn tcfree(&mut self, v: Value, batched: bool) {
        match v {
            Value::Slice(s) => {
                if let Some(obj) = s.obj {
                    let (_, poison) = self.free_obj(obj, FreeSource::SliceLifetime, batched);
                    if poison {
                        s.cells.borrow_mut().fill(Value::Poison);
                    }
                }
            }
            Value::Map(m) => {
                let buckets = m.data.borrow().buckets_obj;
                let mut poisoned = false;
                if let Some(b) = buckets {
                    let (out, poison) = self.free_obj(b, FreeSource::MapLifetime, batched);
                    poisoned |= poison;
                    if matches!(out, FreeOutcome::Freed { .. }) {
                        m.data.borrow_mut().buckets_obj = None;
                    }
                }
                if let Some(h) = m.obj {
                    let (_, poison) = self.free_obj(h, FreeSource::MapLifetime, batched);
                    poisoned |= poison;
                }
                if poisoned {
                    let mut data = m.data.borrow_mut();
                    data.poisoned = true;
                    for (_, v) in data.entries.iter_mut() {
                        *v = Value::Poison;
                    }
                }
            }
            Value::Ptr(p) => {
                if let Some(obj) = p.obj {
                    let (_, poison) = self.free_obj(obj, FreeSource::Object, batched);
                    if poison {
                        *p.cell.borrow_mut() = Value::Poison;
                    }
                }
            }
            // tcfree ignores nil and non-reference values (§4.3: calls on
            // stack objects are safe no-ops).
            _ => {}
        }
    }

    // ---- GC ----

    /// A statement-boundary safepoint: counts a step, charges one tick,
    /// and collects garbage from `frames` if the pacer asks for it.
    #[inline]
    pub(crate) fn safepoint<R: Roots>(&mut self, frames: &[R]) -> Result<()> {
        self.steps += 1;
        if self.steps > self.cfg.step_limit {
            return Err(ExecError::StepLimit);
        }
        self.rt.tick(1);
        if self.rt.gc_pending() {
            self.collect(frames);
        }
        Ok(())
    }

    /// One GC cycle: marks from the frames' slots and deferred-call
    /// arguments and from `held`, then sweeps.
    fn collect<R: Roots>(&mut self, frames: &[R]) {
        let mut mark = Marker {
            objects: &self.objects,
            marked: HashSet::new(),
            seen: FxHashSet::default(),
        };
        for frame in frames {
            for slot in frame.slots() {
                match slot {
                    Slot::Empty => {}
                    Slot::Plain(v) => mark.value(v),
                    Slot::Boxed(cell, obj) => mark.cell(cell, *obj),
                }
            }
            for d in frame.defers() {
                d.args.iter().for_each(|v| mark.value(v));
            }
        }
        self.held.iter().for_each(|v| mark.value(v));
        let marked = mark.marked;
        let swept = self.rt.collect(&marked);
        for (addr, _, _) in &swept.freed {
            if let Some(obj) = self.addr_map.remove(addr) {
                self.objects.remove(&obj);
                if let Some(sh) = &mut self.shadow {
                    sh.on_sweep(obj.0);
                }
            }
        }
    }

    // ---- shadow heap and write barriers ----

    /// Checks a load or store through `obj` against the shadow heap.
    /// No-op when the sanitizer is off or the value is stack-allocated
    /// (`obj` is `None`).
    #[inline]
    pub(crate) fn shadow_access(&mut self, obj: Option<ObjId>, op: &'static str) {
        if let (Some(sh), Some(obj)) = (self.shadow.as_mut(), obj) {
            sh.check_access(obj.0, op, self.steps);
        }
    }

    /// Checks a map operation against the shadow heap: both the hmap
    /// header object and the current bucket array are consulted.
    #[inline]
    fn shadow_access_map(&mut self, m: &MapVal, op: &'static str) {
        if self.shadow.is_some() {
            let buckets = m.data.borrow().buckets_obj;
            self.shadow_access(m.obj, op);
            self.shadow_access(buckets, op);
        }
    }

    /// Write-barrier hook at the same heap store sites the shadow
    /// sanitizer checks: tells the collector the object's payload was
    /// mutated (the generational remembered set's input). Stack values
    /// (`obj` = `None`) need no barrier. Unlike the shadow hooks this
    /// always fires when the collector has a barrier (barriers are part
    /// of the simulation, not an observer) and costs one flag test when
    /// it has none (the default mark-sweep backend).
    #[inline]
    fn barrier(&mut self, obj: Option<ObjId>) {
        if !self.rt.has_write_barrier() {
            return;
        }
        if let Some(&addr) = obj.and_then(|o| self.objects.get(&o)) {
            self.rt.record_store(addr);
        }
    }

    /// [`Mutator::barrier`] for a map store: both the hmap header and
    /// the current bucket array count as mutated.
    #[inline]
    fn barrier_map(&mut self, m: &MapVal) {
        if !self.rt.has_write_barrier() {
            return;
        }
        let buckets = m.data.borrow().buckets_obj;
        self.barrier(m.obj);
        self.barrier(buckets);
    }

    // ---- calls and output ----

    /// Tracing only: interns the stack extended with `name`, stamps it
    /// into the runtime, and returns the previous stack id for
    /// [`Mutator::leave_stack`]. A no-op returning the root id when
    /// tracing is off.
    #[inline]
    pub(crate) fn enter_stack(&mut self, name: &str) -> u32 {
        let parent = self.cur_stack;
        if let Some(st) = &mut self.stacks {
            self.cur_stack = st.push(parent, name);
            self.rt.set_stack(self.cur_stack);
        }
        parent
    }

    /// Tracing only: restores the caller's stack id on function exit.
    #[inline]
    pub(crate) fn leave_stack(&mut self, parent: u32) {
        if self.stacks.is_some() {
            self.cur_stack = parent;
            self.rt.set_stack(parent);
        }
    }

    /// `print(values...)`.
    pub(crate) fn print(&mut self, values: &[Value]) {
        let line: Vec<String> = values.iter().map(Value::display).collect();
        self.output.push_str(&line.join(" "));
        self.output.push('\n');
    }
}

/// The backing-array position of element `i` of `s`, bounds-checked.
#[inline]
fn element(s: &SliceVal, i: i64) -> Result<usize> {
    match usize::try_from(i) {
        Ok(i) if i < s.len => Ok(s.offset + i),
        _ => Err(ExecError::OutOfBounds {
            index: i,
            len: s.len,
        }),
    }
}

/// The mark phase's state: marks every heap object reachable from the
/// values it is shown, visiting each shared payload once.
struct Marker<'a> {
    objects: &'a FxHashMap<ObjId, ObjAddr>,
    marked: HashSet<ObjAddr>,
    seen: FxHashSet<usize>,
}

impl Marker<'_> {
    fn obj(&mut self, obj: Option<ObjId>) {
        if let Some(&addr) = obj.and_then(|o| self.objects.get(&o)) {
            self.marked.insert(addr);
        }
    }

    fn first_visit<T>(&mut self, payload: &Rc<T>) -> bool {
        self.seen.insert(Rc::as_ptr(payload) as usize)
    }

    fn cell(&mut self, cell: &Cell, obj: Option<ObjId>) {
        self.obj(obj);
        if self.first_visit(cell) {
            self.value(&cell.borrow());
        }
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Struct(fields) => fields.iter().for_each(|f| self.value(f)),
            Value::Ptr(p) => self.cell(&p.cell, p.obj),
            Value::Slice(s) => {
                self.obj(s.obj);
                if self.first_visit(&s.cells) {
                    s.cells.borrow().iter().for_each(|c| self.value(c));
                }
            }
            Value::Map(m) => {
                self.obj(m.obj);
                if self.first_visit(&m.data) {
                    let data = m.data.borrow();
                    self.obj(data.buckets_obj);
                    data.entries.iter().for_each(|(_, v)| self.value(v));
                }
            }
            _ => {}
        }
    }
}
