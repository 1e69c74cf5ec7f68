//! Pins `ProfileTracer` to the straightforward profiling algorithm.
//!
//! The reference below counts blocks in an ordered map and records each
//! call-site chain by cloning the thread's whole call stack into an
//! ordered set on every call. The production tracer keeps dense counters
//! and a chain trie instead; both must yield equal [`RunProfile`]s.

mod common;

use std::collections::BTreeSet;

use common::{build_program, inputs, prog_spec};
use oha::interp::{Addr, EventCtx, FrameId, Machine, MachineConfig, ThreadId, Tracer, Value};
use oha::invariants::{ProfileTracer, RunProfile, MAX_CONTEXT_DEPTH};
use oha::ir::Operand::{Const, Reg as R};
use oha::ir::{
    BinOp, BlockId, Callee, CmpOp, FuncId, InstId, InstKind, Operand, Program, ProgramBuilder,
};
use oha::workloads::{c_suite, java_suite, WorkloadParams};
use proptest::prelude::*;

/// The reference profiler.
struct ReferenceProfiler<'p> {
    program: &'p Program,
    profile: RunProfile,
    /// Per-thread call-site chains.
    stacks: Vec<Vec<InstId>>,
}

impl<'p> ReferenceProfiler<'p> {
    fn new(program: &'p Program) -> Self {
        Self {
            program,
            profile: RunProfile::default(),
            stacks: vec![Vec::new()],
        }
    }

    fn stack_mut(&mut self, thread: ThreadId) -> &mut Vec<InstId> {
        if self.stacks.len() <= thread.index() {
            self.stacks.resize(thread.index() + 1, Vec::new());
        }
        &mut self.stacks[thread.index()]
    }

    fn note_indirect(&mut self, site: InstId, target: FuncId) {
        if matches!(
            self.program.inst(site).kind,
            InstKind::Call {
                callee: Callee::Indirect(_),
                ..
            } | InstKind::Spawn {
                func: Callee::Indirect(_),
                ..
            }
        ) {
            let observed = self.profile.callee_obs.entry(site).or_default();
            observed.insert(target);
        }
    }
}

impl Tracer for ReferenceProfiler<'_> {
    fn on_block_enter(&mut self, _thread: ThreadId, _frame: FrameId, block: BlockId) {
        *self.profile.block_counts.entry(block).or_insert(0) += 1;
    }

    fn on_call(&mut self, ctx: EventCtx, callee: FuncId, _callee_frame: FrameId) {
        self.note_indirect(ctx.inst, callee);
        let stack = self.stack_mut(ctx.thread);
        stack.push(ctx.inst);
        if stack.len() <= MAX_CONTEXT_DEPTH {
            let chain = stack.clone();
            self.profile.contexts.insert(chain);
        }
    }

    fn on_return(
        &mut self,
        thread: ThreadId,
        _frame: FrameId,
        _func: FuncId,
        _value: Option<Value>,
        _operand: Option<Operand>,
        _caller_frame: FrameId,
        _call_inst: InstId,
    ) {
        self.stack_mut(thread).pop();
    }

    fn on_spawn(&mut self, ctx: EventCtx, child: ThreadId, entry: FuncId) {
        *self.profile.spawn_counts.entry(ctx.inst).or_insert(0) += 1;
        self.note_indirect(ctx.inst, entry);
        self.stack_mut(child).clear();
    }

    fn on_lock(&mut self, ctx: EventCtx, addr: Addr) {
        self.profile
            .lock_objs
            .entry(ctx.inst)
            .or_default()
            .insert(addr);
    }
}

/// Profiles `input` with both tracers and asserts equal profiles; returns
/// the production profile.
fn assert_same_profile(p: &Program, input: &[i64], cfg: MachineConfig) -> RunProfile {
    let machine = Machine::new(p, cfg);
    let mut reference = ReferenceProfiler::new(p);
    machine.run(input, &mut reference);
    let mut tracer = ProfileTracer::new(p);
    machine.run(input, &mut tracer);
    let got = tracer.into_profile();
    assert_eq!(got, reference.profile, "input {input:?}");
    got
}

#[test]
fn profiles_match_the_reference_on_every_workload() {
    let params = WorkloadParams::small();
    let workloads = java_suite::all(&params)
        .into_iter()
        .chain(c_suite::all(&params));
    let mut seen = 0;
    for w in workloads {
        for input in w.profiling_inputs.iter().chain(&w.testing_inputs) {
            let prof = assert_same_profile(&w.program, input, MachineConfig::default());
            assert!(!prof.block_counts.is_empty(), "{}", w.name);
        }
        seen += 1;
    }
    assert_eq!(seen, 21, "all 14 Java and 7 C stand-ins");
}

#[test]
fn recursion_deeper_than_the_context_cap_is_truncated_alike() {
    // down(n): if n > 0 { down(n - 1) }; main: down(input).
    let mut pb = ProgramBuilder::new();
    let down = pb.declare("down", 1);
    let mut m = pb.function("main", 0);
    let n = m.input();
    m.call_void(down, vec![R(n)]);
    m.ret(None);
    let main = pb.finish_function(m);
    let mut f = pb.function("down", 1);
    let rec = f.block();
    let done = f.block();
    let more = f.cmp(CmpOp::Gt, R(f.param(0)), Const(0));
    f.branch(R(more), rec, done);
    f.select(rec);
    let n1 = f.bin(BinOp::Sub, R(f.param(0)), Const(1));
    f.call_void(down, vec![R(n1)]);
    f.jump(done);
    f.select(done);
    f.ret(None);
    pb.finish_function(f);
    let p = pb.finish(main).unwrap();

    let depth = MAX_CONTEXT_DEPTH as i64 + 20;
    let prof = assert_same_profile(&p, &[depth], MachineConfig::default());
    let longest = prof.contexts.iter().map(Vec::len).max();
    assert_eq!(longest, Some(MAX_CONTEXT_DEPTH), "chains stop at the cap");
    assert_eq!(
        prof.contexts.len(),
        MAX_CONTEXT_DEPTH,
        "one chain per depth"
    );
}

#[test]
fn spawned_threads_start_with_an_empty_chain() {
    // main: outer(1); spawn outer(2); join.
    // outer(x): inner(x).  inner(x): output x.
    let mut pb = ProgramBuilder::new();
    let outer = pb.declare("outer", 1);
    let inner = pb.declare("inner", 1);
    let mut m = pb.function("main", 0);
    m.call_void(outer, vec![Const(1)]);
    let t = m.spawn(outer, Const(2));
    m.join(R(t));
    m.ret(None);
    let main = pb.finish_function(m);
    let mut f = pb.function("outer", 1);
    f.call_void(inner, vec![R(f.param(0))]);
    f.ret(None);
    pb.finish_function(f);
    let mut g = pb.function("inner", 1);
    g.output(R(g.param(0)));
    g.ret(None);
    pb.finish_function(g);
    let p = pb.finish(main).unwrap();

    let site = |func: FuncId| {
        p.inst_ids()
            .find(|&i| {
                matches!(p.inst(i).kind, InstKind::Call { callee: Callee::Direct(c), .. } if c == func)
            })
            .unwrap()
    };
    let (outer_site, inner_site) = (site(outer), site(inner));
    for seed in 0..8 {
        let cfg = MachineConfig {
            seed,
            quantum: 2,
            ..MachineConfig::default()
        };
        let prof = assert_same_profile(&p, &[], cfg);
        let expected: BTreeSet<Vec<InstId>> = [
            vec![outer_site],
            vec![outer_site, inner_site],
            vec![inner_site],
        ]
        .into_iter()
        .collect();
        assert_eq!(prof.contexts, expected, "seed {seed}");
        assert_eq!(prof.spawn_counts.values().sum::<u64>(), 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn profiles_match_the_reference_on_random_programs(
        spec in prog_spec(),
        input in inputs(),
        seed in 0u64..200,
    ) {
        let p = build_program(&spec);
        let cfg = MachineConfig { seed, quantum: 3, max_steps: 2_000_000 };
        assert_same_profile(&p, &input, cfg);
    }
}
