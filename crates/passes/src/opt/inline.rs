//! Function inlining.
//!
//! One implementation behind all of the paper's inlining toggles:
//! clang's `Inliner`, gcc's master `inline` switch, and the
//! finer-grained gcc variants (`inline-functions-called-once`,
//! `inline-small-functions`, `inline-functions`) which are instances
//! with different [`InlineParams`].
//!
//! Debug policy: the *first* inline instance of a callee keeps its
//! source lines and `dbg.value`s intact (a well-formed DWARF
//! inlined-subroutine scope); in *subsequent* instances the variable
//! bindings are dropped — multi-instance inlined variables are the
//! classic `<optimized out>` case, and per-instance location lists are
//! exactly what production compilers struggle to maintain. On top of
//! that indirect channel, inlined code also hands every later pass
//! more scope to destroy. Together these reproduce the paper's
//! observation that the inliner tops the harm ranking while not being
//! "directly" responsible.
//!
//! With an AutoFDO profile, call sites on hot lines get a multiplied
//! size budget — the coupling that makes profile quality matter.

use crate::manager::PassConfig;
use crate::opt::util::offset_regs;
use dt_ir::{Block, BlockId, FuncId, Function, Inst, Module, Op, Terminator, Value};

/// Tuning knobs distinguishing the inliner instances.
#[derive(Debug, Clone, Copy)]
pub struct InlineParams {
    /// Maximum callee size (real instructions) to inline.
    pub threshold: usize,
    /// Only inline callees with exactly one call site in the module.
    pub only_called_once: bool,
    /// Maximum caller size after inlining.
    pub caller_cap: usize,
    /// Hot-call-site threshold multiplier when a profile is present.
    pub hot_multiplier: usize,
}

impl InlineParams {
    /// gcc `inline-functions-called-once`.
    pub fn called_once() -> Self {
        InlineParams {
            threshold: 200,
            only_called_once: true,
            caller_cap: 700,
            hot_multiplier: 1,
        }
    }

    /// gcc O1 `inline-small-functions` / a modest clang O1 inliner.
    pub fn small() -> Self {
        InlineParams {
            threshold: 14,
            only_called_once: false,
            caller_cap: 450,
            hot_multiplier: 3,
        }
    }

    /// gcc O2 `inline-small-functions` (grown budget).
    pub fn medium() -> Self {
        InlineParams {
            threshold: 30,
            only_called_once: false,
            caller_cap: 600,
            hot_multiplier: 4,
        }
    }

    /// gcc O2/O3 `inline-functions` / clang O2+ inliner.
    pub fn aggressive() -> Self {
        InlineParams {
            threshold: 60,
            only_called_once: false,
            caller_cap: 900,
            hot_multiplier: 4,
        }
    }
}

/// Runs inlining with the given parameters.
pub fn run_with(module: &mut Module, config: &PassConfig, params: InlineParams) {
    // Callees that already have one (binding-preserving) inline
    // instance anywhere in the module.
    let mut seen_callees: std::collections::HashSet<FuncId> = Default::default();
    for _round in 0..3 {
        let sizes: Vec<usize> = module.funcs.iter().map(Function::code_size).collect();
        let mut call_counts = vec![0u32; module.funcs.len()];
        for f in &module.funcs {
            for b in f.block_ids() {
                for inst in &f.block(b).insts {
                    if let Op::Call { callee, .. } = inst.op {
                        call_counts[callee.index()] += 1;
                    }
                }
            }
        }

        let mut round_changed = false;
        for caller_idx in 0..module.funcs.len() {
            while let Some(site) =
                find_site(module, caller_idx, &sizes, &call_counts, config, &params)
            {
                let (block, inst_idx, callee) = site;
                let first_instance = seen_callees.insert(callee);
                inline_at(
                    module,
                    FuncId(caller_idx as u32),
                    block,
                    inst_idx,
                    callee,
                    first_instance,
                );
                round_changed = true;
                if module.funcs[caller_idx].code_size() > params.caller_cap {
                    break;
                }
            }
        }
        if !round_changed {
            break;
        }
    }
}

/// Finds the next eligible call site in `caller`.
fn find_site(
    module: &Module,
    caller_idx: usize,
    sizes: &[usize],
    call_counts: &[u32],
    config: &PassConfig,
    params: &InlineParams,
) -> Option<(BlockId, usize, FuncId)> {
    let caller = &module.funcs[caller_idx];
    if caller.code_size() > params.caller_cap {
        return None;
    }
    for b in caller.block_ids() {
        for (i, inst) in caller.block(b).insts.iter().enumerate() {
            let Op::Call { callee, .. } = inst.op else {
                continue;
            };
            if callee.index() == caller_idx {
                continue; // no self-inlining
            }
            if params.only_called_once && call_counts[callee.index()] != 1 {
                continue;
            }
            let mut budget = params.threshold;
            if let Some(profile) = &config.profile {
                if inst.line != 0 && profile.is_hot(inst.line, 1.0) {
                    budget *= params.hot_multiplier;
                }
            }
            if sizes[callee.index()] > budget {
                continue;
            }
            return Some((b, i, callee));
        }
    }
    None
}

/// Inlines the call at (`block`, `inst_idx`) of `caller_id`.
fn inline_at(
    module: &mut Module,
    caller_id: FuncId,
    block: BlockId,
    inst_idx: usize,
    callee_id: FuncId,
    first_instance: bool,
) {
    let callee = module.funcs[callee_id.index()].clone();
    let caller = &mut module.funcs[caller_id.index()];

    let Op::Call { dst, args, .. } = caller.block(block).insts[inst_idx].op.clone() else {
        panic!("inline_at must point at a call");
    };
    let call_line = caller.block(block).insts[inst_idx].line;

    // Id remapping bases.
    let vreg_base = caller.vreg_count;
    caller.vreg_count += callee.vreg_count;
    let var_base = caller.vars.len() as u32;
    for v in &callee.vars {
        caller.vars.push(v.clone());
    }
    let slot_base = caller.slots.len() as u32;
    for s in &callee.slots {
        caller.slots.push(dt_ir::SlotInfo {
            size: s.size,
            var: s.var.map(|v| dt_ir::VarId(v.0 + var_base)),
        });
    }
    let block_base = caller.blocks.len() as u32;

    // Split the call block: the tail (after the call) plus the original
    // terminator move into a continuation block.
    let tail: Vec<Inst> = caller.blocks[block.index()].insts.split_off(inst_idx + 1);
    caller.blocks[block.index()].insts.pop(); // the call itself
    let cont_term = caller.blocks[block.index()].term.clone();
    let cont_term_line = caller.blocks[block.index()].term_line;
    let cont = BlockId(block_base + callee.blocks.len() as u32);

    // Clone callee blocks.
    for cb in &callee.blocks {
        let mut nb = Block::new(Terminator::Ret(None));
        nb.dead = cb.dead;
        nb.term_line = cb.term_line;
        for inst in &cb.insts {
            let mut op = inst.op.clone();
            offset_regs(&mut op, vreg_base);
            remap_ids(&mut op, var_base, slot_base);
            // Secondary inline instances lose their variable bindings
            // (multi-instance inlined variables show <optimized out>).
            if !first_instance {
                if let Op::DbgValue { loc, .. } = &mut op {
                    if !matches!(loc, dt_ir::DbgLoc::Slot(_)) {
                        *loc = dt_ir::DbgLoc::Undef;
                    }
                }
            }
            nb.insts.push(Inst {
                op,
                line: inst.line,
                fused: inst.fused,
            });
        }
        nb.term = match &cb.term {
            Terminator::Jump(t) => Terminator::Jump(BlockId(t.0 + block_base)),
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
                prob_then,
            } => Terminator::Branch {
                cond: offset_val(*cond, vreg_base),
                then_bb: BlockId(then_bb.0 + block_base),
                else_bb: BlockId(else_bb.0 + block_base),
                prob_then: *prob_then,
            },
            Terminator::Ret(v) => {
                // Return becomes: dst = value; jump continuation.
                let val = match v {
                    Some(v) => offset_val(*v, vreg_base),
                    None => Value::Const(0),
                };
                nb.insts.push(Inst {
                    op: Op::Copy { dst, src: val },
                    line: cb.term_line,
                    fused: false,
                });
                Terminator::Jump(cont)
            }
        };
        caller.blocks.push(nb);
    }

    // Continuation block.
    let mut cont_block = Block::new(cont_term);
    cont_block.term_line = cont_term_line;
    cont_block.insts = tail;
    caller.blocks.push(cont_block);
    debug_assert_eq!(cont, BlockId(caller.blocks.len() as u32 - 1));

    // Bind arguments at the head of the cloned entry.
    let entry_clone = BlockId(callee.entry.0 + block_base);
    for (k, p) in callee.params.iter().enumerate() {
        let arg = args.get(k).copied().unwrap_or(Value::Const(0));
        let mut copy = Inst::new(
            Op::Copy {
                dst: dt_ir::VReg(p.0 + vreg_base),
                src: arg,
            },
            call_line,
        );
        copy.fused = false;
        caller.blocks[entry_clone.index()].insts.insert(k, copy);
    }

    // The call block now enters the inlined body.
    caller.blocks[block.index()].term = Terminator::Jump(entry_clone);
    caller.blocks[block.index()].term_line = call_line;
}

fn offset_val(v: Value, base: u32) -> Value {
    match v {
        Value::Reg(r) => Value::Reg(dt_ir::VReg(r.0 + base)),
        c => c,
    }
}

fn remap_ids(op: &mut Op, var_base: u32, slot_base: u32) {
    match op {
        Op::DbgValue { var, loc } => {
            var.0 += var_base;
            if let dt_ir::DbgLoc::Slot(s) = loc {
                s.0 += slot_base;
            }
        }
        Op::LoadSlot { slot, .. }
        | Op::StoreSlot { slot, .. }
        | Op::LoadIdx { slot, .. }
        | Op::StoreIdx { slot, .. } => slot.0 += slot_base,
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PassConfig;

    fn inlined(src: &str, params: InlineParams) -> Module {
        let mut m = dt_frontend::lower_source(src).unwrap();
        run_with(&mut m, &PassConfig::default(), params);
        crate::manager::cleanup(&mut m);
        dt_ir::verify_module(&m).unwrap();
        m
    }

    fn calls_in(m: &Module, f: &str) -> usize {
        m.func_by_name(f)
            .unwrap()
            .blocks
            .iter()
            .filter(|b| !b.dead)
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i.op, Op::Call { .. }))
            .count()
    }

    fn check(m: &Module, entry: &str, args: &[i64], expected: i64) -> u64 {
        let obj = dt_machine::run_backend(m, &dt_machine::BackendConfig::default());
        let r = dt_vm::Vm::run_to_completion(&obj, entry, args, &[], dt_vm::VmConfig::default())
            .unwrap();
        assert_eq!(r.ret, expected);
        r.cycles
    }

    const SIMPLE: &str = "int add1(int x) { return x + 1; }\n\
                          int f(int a) { return add1(a) * add1(a + 10); }";

    #[test]
    fn small_callee_is_inlined_everywhere() {
        let m = inlined(SIMPLE, InlineParams::small());
        assert_eq!(calls_in(&m, "f"), 0);
        check(&m, "f", &[1], 2 * 12);
    }

    #[test]
    fn inlining_saves_call_overhead() {
        let m0 = dt_frontend::lower_source(SIMPLE).unwrap();
        let before = check(&m0, "f", &[1], 24);
        let m1 = inlined(SIMPLE, InlineParams::small());
        let after = check(&m1, "f", &[1], 24);
        assert!(after < before, "{after} vs {before}");
    }

    #[test]
    fn called_once_mode_requires_unique_site() {
        let m = inlined(SIMPLE, InlineParams::called_once());
        // add1 has two call sites: called-once must refuse.
        assert_eq!(calls_in(&m, "f"), 2);

        let single =
            "int big(int x) { int s = 0; for (int i = 0; i < x; i++) { s += i; } return s; }\n\
                      int f(int a) { return big(a); }";
        let m = inlined(single, InlineParams::called_once());
        assert_eq!(calls_in(&m, "f"), 0);
        check(&m, "f", &[10], 45);
    }

    #[test]
    fn threshold_blocks_large_callees() {
        let src = "int big(int x) {\n\
            int s = 0;\n\
            s += x * 1; s += x * 2; s += x * 3; s += x * 4; s += x * 5;\n\
            s += x * 6; s += x * 7; s += x * 8; s += x * 9; s += x * 10;\n\
            return s; }\n\
            int f(int a) { return big(a) + big(a); }";
        let m = inlined(src, InlineParams::small());
        assert_eq!(calls_in(&m, "f"), 2, "big callee exceeds the threshold");
        let m = inlined(src, InlineParams::aggressive());
        assert_eq!(calls_in(&m, "f"), 0);
        check(&m, "f", &[1], 110);
    }

    #[test]
    fn recursion_is_not_inlined_into_itself() {
        let src = "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }";
        let m = inlined(src, InlineParams::aggressive());
        assert!(calls_in(&m, "fib") >= 2);
        check(&m, "fib", &[10], 55);
    }

    #[test]
    fn callee_lines_and_dbg_survive_inlining() {
        let src = "\
int sq(int x) {
    int y = x * x;
    return y;
}
int f(int a) {
    return sq(a + 1);
}";
        let m = inlined(src, InlineParams::small());
        let f = m.func_by_name("f").unwrap();
        // Line 2 (y = x * x) must appear inside f now.
        let has_callee_line = f
            .blocks
            .iter()
            .filter(|b| !b.dead)
            .flat_map(|b| &b.insts)
            .any(|i| i.line == 2);
        assert!(has_callee_line, "inlined code keeps callee lines");
        // And y's debug binding came along, with a remapped var id.
        let has_y_dbg = f
            .blocks
            .iter()
            .filter(|b| !b.dead)
            .flat_map(|b| &b.insts)
            .any(|i| match i.op {
                Op::DbgValue { var, .. } => f.vars[var.index()].name == "y",
                _ => false,
            });
        assert!(has_y_dbg);
        check(&m, "f", &[3], 16);
    }

    #[test]
    fn calls_inside_loops_inline_correctly() {
        let src = "int step(int s, int i) { return s + i * 2; }\n\
                   int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s = step(s, i); } return s; }";
        let m = inlined(src, InlineParams::small());
        assert_eq!(calls_in(&m, "f"), 0);
        check(&m, "f", &[5], 20);
    }

    #[test]
    fn globals_accessed_by_callee_still_work() {
        let src = "int g = 100;\n\
                   int bump(int d) { g = g + d; return g; }\n\
                   int f() { bump(1); bump(2); return g; }";
        let m = inlined(src, InlineParams::small());
        check(&m, "f", &[], 103);
    }

    #[test]
    fn nested_inlining_through_rounds() {
        let src = "int a1(int x) { return x + 1; }\n\
                   int a2(int x) { return a1(x) + 1; }\n\
                   int a3(int x) { return a2(x) + 1; }\n\
                   int f(int v) { return a3(v); }";
        let m = inlined(src, InlineParams::small());
        assert_eq!(calls_in(&m, "f"), 0, "rounds flatten the chain");
        check(&m, "f", &[0], 3);
    }
}
