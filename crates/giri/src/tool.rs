//! The dynamic slicing tracer and trace-based backward slice extraction.

use oha_dataflow::BitSet;
use oha_interp::{
    hooks, Addr, EventCtx, FrameId, InstrPlan, PlanElisions, ShadowMap, ThreadId, Tracer, Value,
};
use oha_ir::{InstId, InstKind, Operand, Program, Reg};

const NONE: u32 = u32::MAX;

/// One traced dynamic event with its resolved producer links.
#[derive(Clone, Copy, Debug)]
struct Event {
    inst: InstId,
    deps: [u32; 2],
}

/// A dynamic backward slice: the set of static instructions whose dynamic
/// instances contributed to the endpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DynamicSlice {
    insts: BitSet,
}

impl DynamicSlice {
    /// Whether an instruction contributed.
    pub fn contains(&self, inst: InstId) -> bool {
        self.insts.contains(inst.index())
    }

    /// Number of contributing static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The contributing instructions as a bit set.
    pub fn sites(&self) -> &BitSet {
        &self.insts
    }

    /// Builds a slice from a raw instruction bit set (useful for merging
    /// the slices of several endpoints).
    pub fn from_sites(insts: BitSet) -> Self {
        Self { insts }
    }

    /// Unions another slice into this one.
    pub fn union_with(&mut self, other: &DynamicSlice) {
        self.insts.union_with(&other.insts);
    }
}

/// The def table: the last defining event per register of each frame.
///
/// The machine numbers frames densely from 0 on every run and never reuses
/// an id, so a frame's row is found by indexing, not hashing. A returning
/// frame's row goes back to a free list for the next frame (the same
/// recycling as the interpreter's register pool); a frame whose return is
/// never reported just keeps its row, which costs memory, not correctness.
#[derive(Debug, Default)]
struct DefRows {
    /// Row slot per frame id (`NONE`: the frame has defined nothing yet,
    /// or has returned).
    slot_of: Vec<u32>,
    /// Per slot: event index per register (`NONE` if undefined).
    rows: Vec<Vec<u32>>,
    /// Slots of released rows, cleared and ready for reuse.
    free: Vec<u32>,
}

impl DefRows {
    fn get(&self, frame: FrameId, r: Reg) -> u32 {
        match self.slot_of.get(frame.0 as usize) {
            Some(&slot) if slot != NONE => self.rows[slot as usize]
                .get(r.index())
                .copied()
                .unwrap_or(NONE),
            _ => NONE,
        }
    }

    fn set(&mut self, frame: FrameId, r: Reg, ev: u32) {
        let f = frame.0 as usize;
        if self.slot_of.len() <= f {
            self.slot_of.resize(f + 1, NONE);
        }
        if self.slot_of[f] == NONE {
            self.slot_of[f] = self.free.pop().unwrap_or_else(|| {
                self.rows.push(Vec::new());
                (self.rows.len() - 1) as u32
            });
        }
        let row = &mut self.rows[self.slot_of[f] as usize];
        if row.len() <= r.index() {
            row.resize(r.index() + 1, NONE);
        }
        row[r.index()] = ev;
    }

    fn release(&mut self, frame: FrameId) {
        if let Some(slot) = self.slot_of.get_mut(frame.0 as usize) {
            if *slot != NONE {
                let s = std::mem::replace(slot, NONE);
                self.rows[s as usize].clear();
                self.free.push(s);
            }
        }
    }
}

/// Tracing counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GiriCounters {
    /// Events recorded in the trace.
    pub traced_events: u64,
    /// Events skipped because their site was outside the static slice.
    pub elided_events: u64,
}

/// The dynamic slicer as an interpreter [`Tracer`].
///
/// # Examples
///
/// ```
/// use oha_ir::{Operand, ProgramBuilder};
/// use oha_giri::GiriTool;
/// use oha_interp::{Machine, MachineConfig};
///
/// let mut pb = ProgramBuilder::new();
/// let mut f = pb.function("main", 0);
/// let x = f.input();
/// f.output(Operand::Reg(x));
/// f.ret(None);
/// let main = pb.finish_function(f);
/// let p = pb.finish(main).unwrap();
///
/// let mut giri = GiriTool::full(&p);
/// Machine::new(&p, MachineConfig::default()).run(&[7], &mut giri);
/// let slice = giri.slice_all_outputs();
/// assert_eq!(slice.len(), 2, "the input and the output instruction");
/// ```
#[derive(Debug)]
pub struct GiriTool<'a> {
    program: &'a Program,
    /// Sites to trace; `None` = everything (pure dynamic Giri).
    filter: Option<&'a BitSet>,
    events: Vec<Event>,
    /// Last defining event per register of each live frame.
    defs: DefRows,
    /// Event index of the last store per address (`NONE` if unwritten),
    /// in dense shadow memory.
    last_store: ShadowMap<u32>,
    /// Output endpoints: (site, event index).
    outputs: Vec<(InstId, u32)>,
    /// Per thread: the def of a spawned thread's argument, linked to
    /// register 0 of its entry frame at its first block enter (`NONE` if
    /// nothing is pending or the argument has no traced def).
    pending_spawn: Vec<u32>,
    counters: GiriCounters,
    /// Maximum trace events before the tool declares resource exhaustion.
    event_budget: Option<u64>,
    exhausted: bool,
}

impl<'a> GiriTool<'a> {
    /// Traces every instruction (the paper's resource-hungry pure-dynamic
    /// baseline).
    pub fn full(program: &'a Program) -> Self {
        Self::with_filter(program, None)
    }

    /// Traces only instructions inside `static_slice` — the hybrid slicer
    /// (sound static slice) or OptSlice (predicated static slice).
    pub fn hybrid(program: &'a Program, static_slice: &'a BitSet) -> Self {
        Self::with_filter(program, Some(static_slice))
    }

    fn with_filter(program: &'a Program, filter: Option<&'a BitSet>) -> Self {
        Self {
            program,
            filter,
            events: Vec::new(),
            defs: DefRows::default(),
            last_store: ShadowMap::new(NONE),
            outputs: Vec::new(),
            pending_spawn: Vec::new(),
            counters: GiriCounters::default(),
            event_budget: None,
            exhausted: false,
        }
    }

    /// Caps the trace at `events` entries, modelling a machine's memory
    /// limit: once exceeded the tool stops recording and
    /// [`GiriTool::is_exhausted`] reports true — the paper's "purely
    /// dynamic Giri … exhausts system resources even on modest executions".
    pub fn with_event_budget(mut self, events: u64) -> Self {
        self.event_budget = Some(events);
        self
    }

    /// Whether the event budget was exceeded (any slice computed from this
    /// trace is untrustworthy).
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Tracing counters.
    pub fn counters(&self) -> GiriCounters {
        self.counters
    }

    /// Publishes elided-vs-executed tracing work under `<prefix>.` in
    /// `registry`: `<prefix>.events` (total throughput: traced + elided),
    /// `<prefix>.traced_events`, `<prefix>.elided_events`, the
    /// in-memory `<prefix>.trace_len` and whether the event budget was
    /// `<prefix>.exhausted`.
    pub fn record_metrics(&self, registry: &oha_obs::MetricsRegistry, prefix: &str) {
        registry.add(
            &format!("{prefix}.events"),
            self.counters.traced_events + self.counters.elided_events,
        );
        registry.add(
            &format!("{prefix}.traced_events"),
            self.counters.traced_events,
        );
        registry.add(
            &format!("{prefix}.elided_events"),
            self.counters.elided_events,
        );
        registry.set_gauge(&format!("{prefix}.trace_len"), self.events.len() as f64);
        registry.set_gauge(
            &format!("{prefix}.exhausted"),
            if self.exhausted { 1.0 } else { 0.0 },
        );
    }

    /// The number of trace events held in memory.
    pub fn trace_len(&self) -> usize {
        self.events.len()
    }

    /// Compiles a trace filter into an instrumentation plan (see
    /// [`InstrPlan`]): traceable hooks (load/store/compute/input/output)
    /// at filtered-in sites only, call hooks at *every* call site and
    /// block-enter always — parameter/spawn linking is bookkeeping that
    /// ignores the filter, and `on_return` (gated by the call site's
    /// CALL bit) does its own filter check. Running under this plan is
    /// behaviourally identical to running without one; machine-side
    /// skips are absorbed via [`GiriTool::absorb_plan_elisions`].
    pub fn plan_for(program: &Program, filter: Option<&BitSet>) -> InstrPlan {
        let mut plan = InstrPlan::none(program.num_insts());
        plan.require_block_enter();
        for inst in program.insts() {
            let bits = match inst.kind {
                InstKind::Load { .. } => hooks::LOAD,
                InstKind::Store { .. } => hooks::STORE,
                InstKind::Copy { .. }
                | InstKind::BinOp { .. }
                | InstKind::Alloc { .. }
                | InstKind::AddrGlobal { .. }
                | InstKind::AddrFunc { .. }
                | InstKind::Gep { .. } => hooks::COMPUTE,
                InstKind::Input { .. } => hooks::INPUT,
                InstKind::Output { .. } => hooks::OUTPUT,
                InstKind::Call { .. } => {
                    plan.require(inst.id, hooks::CALL);
                    continue;
                }
                _ => continue,
            };
            if filter.is_none_or(|f| f.contains(inst.id.index())) {
                plan.require(inst.id, bits);
            }
        }
        plan
    }

    /// The plan matching this tool's own filter.
    pub fn plan(&self) -> InstrPlan {
        Self::plan_for(self.program, self.filter)
    }

    /// Folds the machine-side elision tally of a plan-gated run into the
    /// tool's own counters, keeping elided-event accounting exact.
    pub fn absorb_plan_elisions(&mut self, e: &PlanElisions) {
        self.counters.elided_events += e.traceable();
    }

    fn traced(&mut self, inst: InstId) -> bool {
        match self.filter {
            Some(f) if !f.contains(inst.index()) => {
                self.counters.elided_events += 1;
                false
            }
            _ => true,
        }
    }

    fn operand_dep(&self, frame: FrameId, op: Operand) -> u32 {
        match op {
            Operand::Reg(r) => self.defs.get(frame, r),
            Operand::Const(_) => NONE,
        }
    }

    fn record(&mut self, inst: InstId, deps: [u32; 2]) -> u32 {
        if let Some(budget) = self.event_budget {
            if self.events.len() as u64 >= budget {
                self.exhausted = true;
                // Keep the trace bounded; further events are dropped.
                return NONE;
            }
        }
        let idx = self.events.len() as u32;
        self.events.push(Event { inst, deps });
        self.counters.traced_events += 1;
        idx
    }

    /// Backward slice from every dynamic occurrence of `endpoint`.
    pub fn slice_of(&self, endpoint: InstId) -> DynamicSlice {
        let roots: Vec<u32> = self
            .outputs
            .iter()
            .filter(|&&(site, _)| site == endpoint)
            .map(|&(_, e)| e)
            .collect();
        self.slice_from(roots)
    }

    /// Backward slice from every output instruction instance.
    pub fn slice_all_outputs(&self) -> DynamicSlice {
        let roots: Vec<u32> = self.outputs.iter().map(|&(_, e)| e).collect();
        self.slice_from(roots)
    }

    fn slice_from(&self, roots: Vec<u32>) -> DynamicSlice {
        let mut seen = BitSet::with_capacity(self.events.len());
        let mut insts = BitSet::with_capacity(self.program.num_insts());
        let mut stack = roots;
        for &r in &stack {
            seen.insert(r as usize);
        }
        while let Some(e) = stack.pop() {
            let ev = self.events[e as usize];
            insts.insert(ev.inst.index());
            for d in ev.deps {
                if d != NONE && seen.insert(d as usize) {
                    stack.push(d);
                }
            }
        }
        DynamicSlice { insts }
    }
}

impl Tracer for GiriTool<'_> {
    fn on_compute(&mut self, ctx: EventCtx) {
        if !self.traced(ctx.inst) {
            return;
        }
        let kind = &self.program.inst(ctx.inst).kind;
        let (dst, deps) = match *kind {
            InstKind::Copy { dst, src } => (dst, [self.operand_dep(ctx.frame, src), NONE]),
            InstKind::BinOp { dst, lhs, rhs, .. } => (
                dst,
                [
                    self.operand_dep(ctx.frame, lhs),
                    self.operand_dep(ctx.frame, rhs),
                ],
            ),
            InstKind::Alloc { dst, .. }
            | InstKind::AddrGlobal { dst, .. }
            | InstKind::AddrFunc { dst, .. } => (dst, [NONE, NONE]),
            InstKind::Gep { dst, base, .. } => (dst, [self.operand_dep(ctx.frame, base), NONE]),
            _ => return,
        };
        let ev = self.record(ctx.inst, deps);
        if ev != NONE {
            self.defs.set(ctx.frame, dst, ev);
        }
    }

    fn on_load(&mut self, ctx: EventCtx, addr: Addr, _value: Value) {
        if !self.traced(ctx.inst) {
            return;
        }
        let InstKind::Load { dst, addr: a, .. } = self.program.inst(ctx.inst).kind else {
            return;
        };
        let deps = [*self.last_store.get(addr), self.operand_dep(ctx.frame, a)];
        let ev = self.record(ctx.inst, deps);
        if ev != NONE {
            self.defs.set(ctx.frame, dst, ev);
        }
    }

    fn on_store(&mut self, ctx: EventCtx, addr: Addr, _value: Value) {
        if !self.traced(ctx.inst) {
            return;
        }
        let InstKind::Store {
            addr: a, value: v, ..
        } = self.program.inst(ctx.inst).kind
        else {
            return;
        };
        let deps = [
            self.operand_dep(ctx.frame, v),
            self.operand_dep(ctx.frame, a),
        ];
        let ev = self.record(ctx.inst, deps);
        if ev != NONE {
            self.last_store.insert(addr, ev);
        }
    }

    fn on_call(&mut self, ctx: EventCtx, _callee: oha_ir::FuncId, callee_frame: FrameId) {
        // Parameter linking is bookkeeping, not instrumentation: it happens
        // regardless of the filter so chains through traced callee bodies
        // stay connected.
        let program = self.program;
        if let InstKind::Call { args, .. } = &program.inst(ctx.inst).kind {
            for (i, arg) in args.iter().enumerate() {
                if let Operand::Reg(r) = arg {
                    let dep = self.defs.get(ctx.frame, *r);
                    if dep != NONE {
                        self.defs.set(callee_frame, Reg::new(i as u32), dep);
                    }
                }
            }
        }
    }

    fn on_return(
        &mut self,
        _thread: ThreadId,
        frame: FrameId,
        _func: oha_ir::FuncId,
        value: Option<Value>,
        operand: Option<Operand>,
        caller_frame: FrameId,
        call_inst: InstId,
    ) {
        let dep = match operand {
            Some(Operand::Reg(r)) => self.defs.get(frame, r),
            _ => NONE,
        };
        // The returning frame's id is never reused: its row is dead.
        self.defs.release(frame);
        if value.is_none() || !self.traced(call_inst) {
            return;
        }
        let InstKind::Call { dst: Some(d), .. } = self.program.inst(call_inst).kind else {
            return;
        };
        let ev = self.record(call_inst, [dep, NONE]);
        if ev != NONE {
            self.defs.set(caller_frame, d, ev);
        }
    }

    fn on_spawn(&mut self, ctx: EventCtx, child: ThreadId, _entry: oha_ir::FuncId) {
        let program = self.program;
        if let InstKind::Spawn { arg, .. } = program.inst(ctx.inst).kind {
            let dep = match arg {
                Operand::Reg(r) => self.defs.get(ctx.frame, r),
                Operand::Const(_) => NONE,
            };
            let idx = child.index();
            if self.pending_spawn.len() <= idx {
                self.pending_spawn.resize(idx + 1, NONE);
            }
            self.pending_spawn[idx] = dep;
        }
    }

    fn on_block_enter(&mut self, thread: ThreadId, frame: FrameId, _block: oha_ir::BlockId) {
        if let Some(slot) = self.pending_spawn.get_mut(thread.index()) {
            if *slot != NONE {
                let d = std::mem::replace(slot, NONE);
                self.defs.set(frame, Reg::new(0), d);
            }
        }
    }

    fn on_input(&mut self, ctx: EventCtx, _value: Value) {
        if !self.traced(ctx.inst) {
            return;
        }
        let InstKind::Input { dst } = self.program.inst(ctx.inst).kind else {
            return;
        };
        let ev = self.record(ctx.inst, [NONE, NONE]);
        if ev != NONE {
            self.defs.set(ctx.frame, dst, ev);
        }
    }

    fn on_output(&mut self, ctx: EventCtx, _value: Value) {
        if !self.traced(ctx.inst) {
            return;
        }
        let InstKind::Output { value } = self.program.inst(ctx.inst).kind else {
            return;
        };
        let dep = self.operand_dep(ctx.frame, value);
        let ev = self.record(ctx.inst, [dep, NONE]);
        if ev != NONE {
            self.outputs.push((ctx.inst, ev));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oha_interp::{Machine, MachineConfig};
    use oha_ir::{BinOp, Program, ProgramBuilder};
    use oha_pointsto::{analyze, PointsToConfig};
    use oha_slicing::{slice, SliceConfig};
    use Operand::{Const, Reg as R};

    fn run_full<'p>(p: &'p Program, input: &[i64]) -> GiriTool<'p> {
        let mut g = GiriTool::full(p);
        Machine::new(p, MachineConfig::default()).run(input, &mut g);
        g
    }

    #[test]
    fn dynamic_slice_tracks_actual_flow_only() {
        // x = input; if x { y = 1 } else { y = 2 }; out y.
        // Only the taken arm is in the dynamic slice.
        let mut pb = ProgramBuilder::new();
        let mut m = pb.function("main", 0);
        let y = m.reg();
        let then_b = m.block();
        let else_b = m.block();
        let end = m.block();
        let x = m.input();
        m.branch(R(x), then_b, else_b);
        m.select(then_b);
        m.copy_to(y, Const(1));
        m.jump(end);
        m.select(else_b);
        m.copy_to(y, Const(2));
        m.jump(end);
        m.select(end);
        m.output(R(y));
        m.ret(None);
        let main = pb.finish_function(m);
        let p = pb.finish(main).unwrap();
        let ids: Vec<InstId> = p.inst_ids().collect();
        let (input_i, def1, def2, out) = (ids[0], ids[1], ids[2], ids[3]);

        let g = run_full(&p, &[1]);
        let s = g.slice_all_outputs();
        assert!(s.contains(def1), "taken arm");
        assert!(!s.contains(def2), "untaken arm");
        assert!(!s.contains(input_i), "condition is a control dep, excluded");
        assert!(s.contains(out));

        let g = run_full(&p, &[0]);
        let s = g.slice_all_outputs();
        assert!(!s.contains(def1));
        assert!(s.contains(def2));
    }

    #[test]
    fn memory_and_call_chains_traced() {
        let mut pb = ProgramBuilder::new();
        let double = pb.declare("double", 1);
        let mut m = pb.function("main", 0);
        let o = m.alloc(1);
        let x = m.input();
        let d = m.call(double, vec![R(x)]);
        m.store(R(o), 0, R(d));
        let l = m.load(R(o), 0);
        let junk = m.copy(Const(9));
        m.output(R(l));
        m.ret(None);
        let main = pb.finish_function(m);
        let mut f = pb.function("double", 1);
        let s = f.bin(BinOp::Add, R(f.param(0)), R(f.param(0)));
        f.ret(Some(R(s)));
        pb.finish_function(f);
        let p = pb.finish(main).unwrap();

        let g = run_full(&p, &[21]);
        let s = g.slice_all_outputs();
        for (i, kind_check) in p.inst_ids().zip(p.insts()) {
            let expect = !matches!(kind_check.kind, InstKind::Copy { .. });
            assert_eq!(s.contains(i), expect, "inst {i} ({:?})", kind_check.kind);
        }
        let _ = junk;
    }

    #[test]
    fn spawn_arguments_flow_into_threads() {
        let mut pb = ProgramBuilder::new();
        let w = pb.declare("w", 1);
        let mut m = pb.function("main", 0);
        let x = m.input();
        let t = m.spawn(w, R(x));
        m.join(R(t));
        m.ret(None);
        let main = pb.finish_function(m);
        let mut f = pb.function("w", 1);
        f.output(R(f.param(0)));
        f.ret(None);
        pb.finish_function(f);
        let p = pb.finish(main).unwrap();

        let g = run_full(&p, &[5]);
        let s = g.slice_all_outputs();
        let input_i = p
            .inst_ids()
            .find(|&i| matches!(p.inst(i).kind, InstKind::Input { .. }))
            .unwrap();
        assert!(s.contains(input_i), "input flows through the spawn arg");
    }

    /// The headline hybrid-equivalence property: tracing only the sound
    /// static slice yields the same dynamic slice as tracing everything.
    #[test]
    fn hybrid_equals_full_on_sound_static_slice() {
        let mut pb = ProgramBuilder::new();
        let helper = pb.declare("helper", 1);
        let mut m = pb.function("main", 0);
        let o = m.alloc(2);
        let a = m.input();
        let b = m.input();
        let h = m.call(helper, vec![R(a)]);
        m.store(R(o), 0, R(h));
        m.store(R(o), 1, R(b)); // different field: not in slice
        let l = m.load(R(o), 0);
        m.output(R(l));
        m.ret(None);
        let main = pb.finish_function(m);
        let mut f = pb.function("helper", 1);
        let s = f.bin(BinOp::Mul, R(f.param(0)), Const(3));
        f.ret(Some(R(s)));
        pb.finish_function(f);
        let p = pb.finish(main).unwrap();

        let endpoint = p
            .inst_ids()
            .find(|&i| matches!(p.inst(i).kind, InstKind::Output { .. }))
            .unwrap();
        let pt = analyze(&p, &PointsToConfig::default()).unwrap();
        let static_slice = slice(&p, &pt, &[endpoint], &SliceConfig::default()).unwrap();

        for input in [[3, 4], [0, 0], [-5, 9]] {
            let full = run_full(&p, &input);
            let mut hybrid = GiriTool::hybrid(&p, static_slice.sites());
            Machine::new(&p, MachineConfig::default()).run(&input, &mut hybrid);
            assert_eq!(
                full.slice_of(endpoint),
                hybrid.slice_of(endpoint),
                "hybrid slice must match (input {input:?})"
            );
            assert!(hybrid.counters().elided_events > 0, "some work elided");
            assert!(hybrid.counters().traced_events < full.counters().traced_events);
        }
    }

    #[test]
    fn event_budget_models_resource_exhaustion() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.function("main", 0);
        let n = m.input();
        let head = m.block();
        let body = m.block();
        let exit = m.block();
        let i = m.copy(Const(0));
        m.jump(head);
        m.select(head);
        let c = m.cmp(oha_ir::CmpOp::Lt, R(i), R(n));
        m.branch(R(c), body, exit);
        m.select(body);
        let i1 = m.bin(BinOp::Add, R(i), Const(1));
        m.copy_to(i, R(i1));
        m.jump(head);
        m.select(exit);
        m.output(R(i));
        m.ret(None);
        let main = pb.finish_function(m);
        let p = pb.finish(main).unwrap();

        let mut g = GiriTool::full(&p).with_event_budget(10);
        Machine::new(&p, MachineConfig::default()).run(&[1000], &mut g);
        assert!(
            g.is_exhausted(),
            "a 1000-iteration loop blows a 10-event trace"
        );
        assert_eq!(g.trace_len(), 10);

        let mut g = GiriTool::full(&p).with_event_budget(1_000_000);
        Machine::new(&p, MachineConfig::default()).run(&[1000], &mut g);
        assert!(!g.is_exhausted());
    }

    #[test]
    fn full_tool_traces_every_register_op() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.function("main", 0);
        let a = m.copy(Const(1));
        let b = m.bin(BinOp::Add, R(a), Const(2));
        m.output(R(b));
        m.ret(None);
        let main = pb.finish_function(m);
        let p = pb.finish(main).unwrap();
        let g = run_full(&p, &[]);
        assert_eq!(g.trace_len(), 3);
        assert_eq!(g.counters().elided_events, 0);
    }
}
