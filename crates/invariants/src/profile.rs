//! Per-execution profiling of invariant candidates.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use oha_interp::{Addr, EventCtx, FrameId, ThreadId, Tracer};
use oha_ir::{BlockId, Callee, FuncId, InstId, InstKind, Program};

use crate::set::MAX_CONTEXT_DEPTH;

/// Everything one profiling execution observed that can seed likely
/// invariants.
///
/// Produced by [`ProfileTracer`]; merged across runs by
/// [`InvariantSet::from_profiles`](crate::InvariantSet::from_profiles).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunProfile {
    /// Basic-block execution counts (absent = never executed).
    pub block_counts: BTreeMap<BlockId, u64>,
    /// Observed targets of indirect call *and* spawn sites.
    pub callee_obs: BTreeMap<InstId, BTreeSet<FuncId>>,
    /// Observed call-site chains (starting at each thread's entry function),
    /// truncated at [`MAX_CONTEXT_DEPTH`].
    pub contexts: BTreeSet<Vec<InstId>>,
    /// The dynamic lock addresses each lock site acquired.
    pub lock_objs: BTreeMap<InstId, BTreeSet<Addr>>,
    /// Threads spawned per spawn site.
    pub spawn_counts: BTreeMap<InstId, u64>,
}

impl RunProfile {
    /// Lock-site pairs that *must alias* in this run: both sites locked
    /// exactly one dynamic address, and it was the same address (paper
    /// §4.2.2).
    pub fn must_alias_pairs(&self) -> BTreeSet<(InstId, InstId)> {
        let singles: Vec<(InstId, Addr)> = self
            .lock_objs
            .iter()
            .filter(|(_, objs)| objs.len() == 1)
            .map(|(&site, objs)| (site, *objs.iter().next().expect("len checked")))
            .collect();
        let mut pairs = BTreeSet::new();
        for (i, &(s1, a1)) in singles.iter().enumerate() {
            for &(s2, a2) in &singles[i + 1..] {
                if a1 == a2 {
                    pairs.insert((s1.min(s2), s1.max(s2)));
                }
            }
        }
        pairs
    }

    /// Lock sites that executed in this run.
    pub fn executed_lock_sites(&self) -> BTreeSet<InstId> {
        self.lock_objs.keys().copied().collect()
    }
}

/// A [`Tracer`] that gathers a [`RunProfile`].
///
/// Compose it with the machine via [`Machine::run`](oha_interp::Machine::run)
/// on each profiling input, then merge the collected profiles.
///
/// Per-event state is dense: block counts are indexed by [`BlockId`], and
/// call-site chains live in a trie whose nodes are interned once per
/// distinct (parent chain, call site), so a call pushes one node id
/// instead of copying its chain. `block_counts` and `contexts` are built
/// from them once, in [`ProfileTracer::into_profile`].
#[derive(Debug)]
pub struct ProfileTracer<'p> {
    program: &'p Program,
    /// Everything but `block_counts` and `contexts`, gathered directly.
    profile: RunProfile,
    /// Executions per block, indexed by [`BlockId`].
    block_counts: Vec<u64>,
    /// Chain trie: node `n > 0` is the chain of `nodes[n].0` extended by
    /// call site `nodes[n].1`; node 0 ([`ROOT`]) is the empty chain.
    nodes: Vec<(u32, InstId)>,
    /// Interned trie edges: (parent node, call site) → child node.
    children: HashMap<(u32, InstId), u32>,
    /// Per-thread call stacks as trie nodes ([`DEEP`] past
    /// [`MAX_CONTEXT_DEPTH`]).
    stacks: Vec<Vec<u32>>,
}

/// The trie node of the empty chain.
const ROOT: u32 = 0;
/// Stack entry for a frame deeper than [`MAX_CONTEXT_DEPTH`] (no node).
const DEEP: u32 = u32::MAX;

impl<'p> ProfileTracer<'p> {
    /// Creates a profiler for `program`.
    pub fn new(program: &'p Program) -> Self {
        Self {
            program,
            profile: RunProfile::default(),
            block_counts: vec![0; program.num_blocks()],
            nodes: vec![(ROOT, InstId::new(0))],
            children: HashMap::new(),
            stacks: vec![Vec::new()],
        }
    }

    /// Consumes the profiler, yielding the gathered profile.
    pub fn into_profile(self) -> RunProfile {
        let mut profile = self.profile;
        profile.block_counts = self
            .block_counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (BlockId::new(b as u32), c))
            .collect();
        profile.contexts = (1..self.nodes.len())
            .map(|mut n| {
                let mut chain = Vec::new();
                while n != ROOT as usize {
                    let (parent, site) = self.nodes[n];
                    chain.push(site);
                    n = parent as usize;
                }
                chain.reverse();
                chain
            })
            .collect();
        profile
    }

    fn stack_mut(&mut self, thread: ThreadId) -> &mut Vec<u32> {
        if self.stacks.len() <= thread.index() {
            self.stacks.resize(thread.index() + 1, Vec::new());
        }
        &mut self.stacks[thread.index()]
    }

    /// The trie node of chain `parent` extended by `site`, created on
    /// first sight.
    fn child(&mut self, parent: u32, site: InstId) -> u32 {
        let next = self.nodes.len() as u32;
        let node = *self.children.entry((parent, site)).or_insert(next);
        if node == next {
            self.nodes.push((parent, site));
        }
        node
    }

    fn is_indirect(&self, inst: InstId) -> bool {
        matches!(
            self.program.inst(inst).kind,
            InstKind::Call {
                callee: Callee::Indirect(_),
                ..
            } | InstKind::Spawn {
                func: Callee::Indirect(_),
                ..
            }
        )
    }
}

impl Tracer for ProfileTracer<'_> {
    fn on_block_enter(&mut self, _thread: ThreadId, _frame: FrameId, block: BlockId) {
        self.block_counts[block.index()] += 1;
    }

    fn on_call(&mut self, ctx: EventCtx, callee: FuncId, _callee_frame: FrameId) {
        if self.is_indirect(ctx.inst) {
            self.profile
                .callee_obs
                .entry(ctx.inst)
                .or_default()
                .insert(callee);
        }
        let stack = self.stack_mut(ctx.thread);
        let (depth, parent) = (stack.len() + 1, stack.last().copied().unwrap_or(ROOT));
        let node = if depth <= MAX_CONTEXT_DEPTH {
            self.child(parent, ctx.inst)
        } else {
            DEEP
        };
        self.stacks[ctx.thread.index()].push(node);
    }

    fn on_return(
        &mut self,
        thread: ThreadId,
        _frame: FrameId,
        _func: FuncId,
        _value: Option<oha_interp::Value>,
        _operand: Option<oha_ir::Operand>,
        _caller_frame: FrameId,
        _call_inst: InstId,
    ) {
        self.stack_mut(thread).pop();
    }

    fn on_spawn(&mut self, ctx: EventCtx, child: ThreadId, entry: FuncId) {
        *self.profile.spawn_counts.entry(ctx.inst).or_insert(0) += 1;
        if self.is_indirect(ctx.inst) {
            self.profile
                .callee_obs
                .entry(ctx.inst)
                .or_default()
                .insert(entry);
        }
        // The child starts with an empty call chain.
        let idx = child.index();
        if self.stacks.len() <= idx {
            self.stacks.resize(idx + 1, Vec::new());
        }
        self.stacks[idx].clear();
    }

    fn on_lock(&mut self, ctx: EventCtx, addr: Addr) {
        self.profile
            .lock_objs
            .entry(ctx.inst)
            .or_default()
            .insert(addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oha_interp::{Machine, MachineConfig, NoopTracer, ObjId};
    use oha_ir::{Operand, ProgramBuilder};
    use Operand::{Const, Reg as R};

    /// A program with: an indirect call selected by input, a cold block, a
    /// lock site, and a conditional spawn loop.
    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let g = pb.global("lockobj", 1);
        let f1 = pb.declare("one", 1);
        let f2 = pb.declare("two", 1);
        let worker = pb.declare("worker", 1);

        let mut m = pb.function("main", 0);
        let sel = m.input();
        let fp1 = m.addr_func(f1);
        let fp2 = m.addr_func(f2);
        let t = m.reg();
        let pick2 = m.block();
        let call_b = m.block();
        let cold = m.block();
        let end = m.block();
        m.copy_to(t, R(fp1));
        m.branch(R(sel), call_b, pick2);
        m.select(pick2);
        m.copy_to(t, R(fp2));
        m.jump(call_b);
        m.select(call_b);
        m.call_indirect_void(R(t), vec![Const(1)]);
        let ga = m.addr_global(g);
        m.lock(R(ga));
        m.unlock(R(ga));
        let h = m.spawn(worker, Const(0));
        m.join(R(h));
        let c = m.input();
        m.branch(R(c), cold, end);
        m.select(cold);
        m.output(Const(-1));
        m.jump(end);
        m.select(end);
        m.ret(None);
        let main = pb.finish_function(m);

        for name in ["one", "two", "worker"] {
            let mut f = pb.function(name, 1);
            f.ret(None);
            pb.finish_function(f);
        }
        pb.finish(main).unwrap()
    }

    use oha_ir::Program;

    fn profile_run(p: &Program, input: &[i64]) -> RunProfile {
        let mut tracer = ProfileTracer::new(p);
        Machine::new(p, MachineConfig::default()).run(input, &mut tracer);
        tracer.into_profile()
    }

    #[test]
    fn records_blocks_callees_locks_spawns() {
        let p = program();
        let prof = profile_run(&p, &[1, 0]); // take f1, skip cold block
                                             // Cold block never counted.
        let executed: Vec<u64> = prof.block_counts.values().copied().collect();
        assert!(executed.iter().all(|&c| c >= 1));
        assert!(
            prof.block_counts.len() < p.num_blocks(),
            "cold block absent"
        );
        // One indirect call site observed with exactly one target.
        assert_eq!(prof.callee_obs.len(), 1);
        let targets = prof.callee_obs.values().next().unwrap();
        assert_eq!(targets.len(), 1);
        // The lock site locked exactly the global (object 0).
        assert_eq!(prof.lock_objs.len(), 1);
        let objs = prof.lock_objs.values().next().unwrap();
        assert_eq!(objs.iter().next().unwrap().obj, ObjId(0));
        // One spawn site, one thread.
        assert_eq!(prof.spawn_counts.values().copied().max(), Some(1));
    }

    #[test]
    fn different_inputs_see_different_callees() {
        let p = program();
        let a = profile_run(&p, &[1, 0]);
        let b = profile_run(&p, &[0, 0]);
        let ta = a.callee_obs.values().next().unwrap();
        let tb = b.callee_obs.values().next().unwrap();
        assert_ne!(ta, tb, "input selects the indirect target");
    }

    #[test]
    fn contexts_include_call_chains() {
        let p = program();
        let prof = profile_run(&p, &[1, 0]);
        // The indirect call from main is a depth-1 chain.
        assert!(prof.contexts.iter().any(|c| c.len() == 1));
        assert!(!prof.contexts.contains(&Vec::new()));
    }

    #[test]
    fn must_alias_requires_singleton_and_equal() {
        let mut prof = RunProfile::default();
        let s1 = InstId::new(1);
        let s2 = InstId::new(2);
        let s3 = InstId::new(3);
        let a = Addr::new(ObjId(0), 0);
        let b = Addr::new(ObjId(1), 0);
        prof.lock_objs.insert(s1, [a].into_iter().collect());
        prof.lock_objs.insert(s2, [a].into_iter().collect());
        prof.lock_objs.insert(s3, [a, b].into_iter().collect());
        let pairs = prof.must_alias_pairs();
        assert_eq!(pairs.len(), 1);
        assert!(pairs.contains(&(s1, s2)));
    }

    #[test]
    fn profiling_does_not_change_execution() {
        let p = program();
        let cfg = MachineConfig::default();
        let mut tracer = ProfileTracer::new(&p);
        let with = Machine::new(&p, cfg).run(&[1, 1], &mut tracer);
        let without = Machine::new(&p, cfg).run(&[1, 1], &mut NoopTracer);
        assert_eq!(with.outputs, without.outputs);
        assert_eq!(with.steps, without.steps);
    }
}
