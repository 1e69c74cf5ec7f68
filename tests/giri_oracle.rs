//! Pins the dynamic slicer's slice *contents* to an independent oracle.
//!
//! The pipeline's own checks compare the hybrid and optimistic slices with
//! each other, so a def-tracking bug that hits both sides would pass them.
//! Here a deliberately naive slicer — hashed last-def and last-store maps,
//! every event traced — computes the expected slice per endpoint, and
//! `GiriTool` must match it exactly: fully traced and traced over a sound
//! static slice, with and without its instrumentation plan.

mod common;

use std::collections::HashMap;

use common::{build_program, inputs, prog_spec};
use oha::giri::GiriTool;
use oha::interp::{Addr, EventCtx, FrameId, Machine, MachineConfig, ThreadId, Tracer, Value};
use oha::ir::Operand::{Const, Reg as R};
use oha::ir::{BinOp, BlockId, CmpOp, FuncId, InstId, InstKind, Operand, Program, ProgramBuilder};
use oha::pointsto::{analyze, PointsToConfig};
use oha::slicing::{slice, SliceConfig};
use oha::workloads::{c_suite, WorkloadParams};
use proptest::prelude::*;

const NONE: u32 = u32::MAX;

/// The reference dynamic slicer: traces every event into hashed maps.
struct NaiveSlicer<'p> {
    program: &'p Program,
    /// (instruction, producer events) per traced event.
    events: Vec<(InstId, [u32; 2])>,
    last_def: HashMap<(FrameId, u32), u32>,
    last_store: HashMap<Addr, u32>,
    outputs: Vec<(InstId, u32)>,
    pending_spawn: HashMap<ThreadId, u32>,
}

impl<'p> NaiveSlicer<'p> {
    fn new(program: &'p Program) -> Self {
        Self {
            program,
            events: Vec::new(),
            last_def: HashMap::new(),
            last_store: HashMap::new(),
            outputs: Vec::new(),
            pending_spawn: HashMap::new(),
        }
    }

    fn def(&self, frame: FrameId, op: Operand) -> u32 {
        match op {
            Operand::Reg(r) => self
                .last_def
                .get(&(frame, r.raw()))
                .copied()
                .unwrap_or(NONE),
            Operand::Const(_) => NONE,
        }
    }

    fn record(&mut self, inst: InstId, deps: [u32; 2]) -> u32 {
        self.events.push((inst, deps));
        (self.events.len() - 1) as u32
    }

    /// The static instructions reached backwards from every dynamic
    /// instance of `endpoint`.
    fn slice_of(&self, endpoint: InstId) -> Vec<usize> {
        let mut seen = vec![false; self.events.len()];
        let mut stack: Vec<u32> = Vec::new();
        for &(site, e) in &self.outputs {
            if site == endpoint && !seen[e as usize] {
                seen[e as usize] = true;
                stack.push(e);
            }
        }
        let mut insts = std::collections::BTreeSet::new();
        while let Some(e) = stack.pop() {
            let (inst, deps) = self.events[e as usize];
            insts.insert(inst.index());
            for d in deps {
                if d != NONE && !seen[d as usize] {
                    seen[d as usize] = true;
                    stack.push(d);
                }
            }
        }
        insts.into_iter().collect()
    }
}

impl Tracer for NaiveSlicer<'_> {
    fn on_compute(&mut self, ctx: EventCtx) {
        let f = ctx.frame;
        let (dst, deps) = match self.program.inst(ctx.inst).kind {
            InstKind::Copy { dst, src } => (dst, [self.def(f, src), NONE]),
            InstKind::BinOp { dst, lhs, rhs, .. } => (dst, [self.def(f, lhs), self.def(f, rhs)]),
            InstKind::Gep { dst, base, .. } => (dst, [self.def(f, base), NONE]),
            InstKind::Alloc { dst, .. }
            | InstKind::AddrGlobal { dst, .. }
            | InstKind::AddrFunc { dst, .. } => (dst, [NONE, NONE]),
            _ => return,
        };
        let ev = self.record(ctx.inst, deps);
        self.last_def.insert((f, dst.raw()), ev);
    }

    fn on_load(&mut self, ctx: EventCtx, addr: Addr, _value: Value) {
        if let InstKind::Load { dst, addr: a, .. } = self.program.inst(ctx.inst).kind {
            let stored = self.last_store.get(&addr).copied().unwrap_or(NONE);
            let ev = self.record(ctx.inst, [stored, self.def(ctx.frame, a)]);
            self.last_def.insert((ctx.frame, dst.raw()), ev);
        }
    }

    fn on_store(&mut self, ctx: EventCtx, addr: Addr, _value: Value) {
        if let InstKind::Store { addr: a, value, .. } = self.program.inst(ctx.inst).kind {
            let deps = [self.def(ctx.frame, value), self.def(ctx.frame, a)];
            let ev = self.record(ctx.inst, deps);
            self.last_store.insert(addr, ev);
        }
    }

    fn on_call(&mut self, ctx: EventCtx, _callee: FuncId, callee_frame: FrameId) {
        if let InstKind::Call { args, .. } = &self.program.inst(ctx.inst).kind {
            for (i, &arg) in args.iter().enumerate() {
                let d = self.def(ctx.frame, arg);
                if d != NONE {
                    self.last_def.insert((callee_frame, i as u32), d);
                }
            }
        }
    }

    fn on_return(
        &mut self,
        _thread: ThreadId,
        frame: FrameId,
        _func: FuncId,
        value: Option<Value>,
        operand: Option<Operand>,
        caller_frame: FrameId,
        call_inst: InstId,
    ) {
        if value.is_none() {
            return;
        }
        if let InstKind::Call { dst: Some(d), .. } = self.program.inst(call_inst).kind {
            let dep = operand.map_or(NONE, |op| self.def(frame, op));
            let ev = self.record(call_inst, [dep, NONE]);
            self.last_def.insert((caller_frame, d.raw()), ev);
        }
    }

    fn on_spawn(&mut self, ctx: EventCtx, child: ThreadId, _entry: FuncId) {
        if let InstKind::Spawn { arg, .. } = self.program.inst(ctx.inst).kind {
            let d = self.def(ctx.frame, arg);
            self.pending_spawn.insert(child, d);
        }
    }

    fn on_block_enter(&mut self, thread: ThreadId, frame: FrameId, _block: BlockId) {
        if let Some(d) = self.pending_spawn.remove(&thread) {
            if d != NONE {
                self.last_def.insert((frame, 0), d);
            }
        }
    }

    fn on_input(&mut self, ctx: EventCtx, _value: Value) {
        if let InstKind::Input { dst } = self.program.inst(ctx.inst).kind {
            let ev = self.record(ctx.inst, [NONE, NONE]);
            self.last_def.insert((ctx.frame, dst.raw()), ev);
        }
    }

    fn on_output(&mut self, ctx: EventCtx, _value: Value) {
        if let InstKind::Output { value } = self.program.inst(ctx.inst).kind {
            let dep = self.def(ctx.frame, value);
            let ev = self.record(ctx.inst, [dep, NONE]);
            self.outputs.push((ctx.inst, ev));
        }
    }
}

fn outputs_of(p: &Program) -> Vec<InstId> {
    p.inst_ids()
        .filter(|&i| matches!(p.inst(i).kind, InstKind::Output { .. }))
        .collect()
}

/// Runs the oracle and the four `GiriTool` configurations (full or over
/// the sound static slice of `endpoints`, each with and without its plan)
/// on every input. Returns the summed size of the oracle's slices, or the
/// first slice that disagrees.
fn check(
    p: &Program,
    endpoints: &[InstId],
    inputs: &[Vec<i64>],
    cfg: MachineConfig,
) -> Result<usize, String> {
    let mut total = 0;
    let pt = analyze(p, &PointsToConfig::default()).expect("sound points-to completes");
    let sound = slice(p, &pt, endpoints, &SliceConfig::default()).expect("sound slice completes");
    let machine = Machine::new(p, cfg);
    for input in inputs {
        let mut oracle = NaiveSlicer::new(p);
        machine.run(input, &mut oracle);
        total += endpoints
            .iter()
            .map(|&e| oracle.slice_of(e).len())
            .sum::<usize>();
        for filter in [None, Some(sound.sites())] {
            for planned in [false, true] {
                let mut tool = match filter {
                    None => GiriTool::full(p),
                    Some(f) => GiriTool::hybrid(p, f),
                };
                let plan = planned.then(|| GiriTool::plan_for(p, filter));
                machine.run_with_plan(input, &mut tool, plan.as_ref());
                for &e in endpoints {
                    let got: Vec<usize> = tool.slice_of(e).sites().iter().collect();
                    let want = oracle.slice_of(e);
                    if got != want {
                        return Err(format!(
                            "endpoint {e}, input {input:?}, hybrid {}, planned {planned}: \
                             got {got:?}, want {want:?}",
                            filter.is_some()
                        ));
                    }
                }
            }
        }
    }
    Ok(total)
}

#[test]
fn giri_matches_the_naive_slicer_on_every_c_workload() {
    for w in c_suite::all(&WorkloadParams::small()) {
        let cfg = MachineConfig::default();
        match check(&w.program, &w.endpoints, &w.testing_inputs, cfg) {
            Ok(total) => assert!(total > 0, "{}: every slice is empty", w.name),
            Err(e) => panic!("{}: {e}", w.name),
        }
    }
}

/// `fact(n) = n <= 1 ? 1 : n * fact(n - 1)`, printed for `n = input` and
/// then for `n = 3`: every return feeds the caller's product, so frame
/// rows are released and reused at every depth, and the constant-argument
/// call (no def for its parameter) lands on recycled rows.
fn recursive_program() -> Program {
    let mut pb = ProgramBuilder::new();
    let fact = pb.declare("fact", 1);
    let mut m = pb.function("main", 0);
    let n = m.input();
    let r = m.call(fact, vec![R(n)]);
    m.output(R(r));
    let c = m.call(fact, vec![Const(3)]);
    m.output(R(c));
    m.ret(None);
    let main = pb.finish_function(m);

    let mut f = pb.function("fact", 1);
    let base = f.block();
    let step = f.block();
    let small = f.cmp(CmpOp::Le, R(f.param(0)), Const(1));
    f.branch(R(small), base, step);
    f.select(base);
    let one = f.copy(Const(1));
    f.ret(Some(R(one)));
    f.select(step);
    let n1 = f.bin(BinOp::Sub, R(f.param(0)), Const(1));
    let sub = f.call(fact, vec![R(n1)]);
    let prod = f.bin(BinOp::Mul, R(f.param(0)), R(sub));
    f.ret(Some(R(prod)));
    pb.finish_function(f);
    pb.finish(main).unwrap()
}

#[test]
fn giri_matches_the_naive_slicer_through_recursion() {
    let p = recursive_program();
    let inputs: Vec<Vec<i64>> = [0, 1, 2, 5, 12].iter().map(|&n| vec![n]).collect();
    let total = check(&p, &outputs_of(&p), &inputs, MachineConfig::default()).unwrap();
    assert!(total > 0);

    // The slice reaches the input through every level of the recursion.
    let mut tool = GiriTool::full(&p);
    Machine::new(&p, MachineConfig::default()).run(&[12], &mut tool);
    let input = p
        .inst_ids()
        .find(|&i| matches!(p.inst(i).kind, InstKind::Input { .. }))
        .unwrap();
    assert!(tool.slice_all_outputs().contains(input));
}

/// A tracer that forwards every event except returns, modelling a run in
/// which frames never report their return.
struct WithoutReturns<T>(T);

impl<T: Tracer> Tracer for WithoutReturns<T> {
    fn on_compute(&mut self, ctx: EventCtx) {
        self.0.on_compute(ctx);
    }
    fn on_load(&mut self, ctx: EventCtx, addr: Addr, value: Value) {
        self.0.on_load(ctx, addr, value);
    }
    fn on_store(&mut self, ctx: EventCtx, addr: Addr, value: Value) {
        self.0.on_store(ctx, addr, value);
    }
    fn on_call(&mut self, ctx: EventCtx, callee: FuncId, callee_frame: FrameId) {
        self.0.on_call(ctx, callee, callee_frame);
    }
    fn on_spawn(&mut self, ctx: EventCtx, child: ThreadId, entry: FuncId) {
        self.0.on_spawn(ctx, child, entry);
    }
    fn on_block_enter(&mut self, thread: ThreadId, frame: FrameId, block: BlockId) {
        self.0.on_block_enter(thread, frame, block);
    }
    fn on_input(&mut self, ctx: EventCtx, value: Value) {
        self.0.on_input(ctx, value);
    }
    fn on_output(&mut self, ctx: EventCtx, value: Value) {
        self.0.on_output(ctx, value);
    }
}

#[test]
fn frames_whose_return_is_never_reported_keep_correct_defs() {
    let p = recursive_program();
    let machine = Machine::new(&p, MachineConfig::default());
    for n in [1, 4, 9] {
        let mut oracle = WithoutReturns(NaiveSlicer::new(&p));
        machine.run(&[n], &mut oracle);
        let mut tool = WithoutReturns(GiriTool::full(&p));
        machine.run(&[n], &mut tool);
        for e in outputs_of(&p) {
            let got: Vec<usize> = tool.0.slice_of(e).sites().iter().collect();
            assert_eq!(got, oracle.0.slice_of(e), "input {n}");
        }
    }
}

#[test]
fn giri_matches_the_naive_slicer_through_spawn_arguments() {
    // main: x = input; t1 = spawn w(x); t2 = spawn w(7); join both.
    // w(a): b = a * 3; output b; k = input; r = id(k); output r.
    // id(v): return v.
    // The spawn argument links only to `w`'s entry frame: `id`'s
    // parameter comes from `k`, not from `x`.
    let mut pb = ProgramBuilder::new();
    let w = pb.declare("w", 1);
    let id = pb.declare("id", 1);
    let mut m = pb.function("main", 0);
    let x = m.input();
    let t1 = m.spawn(w, R(x));
    let t2 = m.spawn(w, Const(7));
    m.join(R(t1));
    m.join(R(t2));
    m.ret(None);
    let main = pb.finish_function(m);
    let mut f = pb.function("w", 1);
    let b = f.bin(BinOp::Mul, R(f.param(0)), Const(3));
    f.output(R(b));
    let k = f.input();
    let r = f.call(id, vec![R(k)]);
    f.output(R(r));
    f.ret(None);
    pb.finish_function(f);
    let mut g = pb.function("id", 1);
    g.ret(Some(R(g.param(0))));
    pb.finish_function(g);
    let p = pb.finish(main).unwrap();

    for seed in 0..8 {
        let cfg = MachineConfig {
            seed,
            quantum: 2,
            ..MachineConfig::default()
        };
        let inputs = [vec![5, 6, 7], vec![-2, 0, 1]];
        let total = check(&p, &outputs_of(&p), &inputs, cfg).unwrap();
        assert!(total > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn giri_matches_the_naive_slicer_on_random_programs(
        spec in prog_spec(),
        input in inputs(),
        seed in 0u64..200,
    ) {
        let p = build_program(&spec);
        let cfg = MachineConfig { seed, quantum: 3, max_steps: 2_000_000 };
        if let Err(e) = check(&p, &outputs_of(&p), &[input], cfg) {
            prop_assert!(false, "{}", e);
        }
    }
}
