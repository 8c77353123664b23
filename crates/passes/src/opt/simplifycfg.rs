//! CFG simplification (clang's `SimplifyCFG`, and — as a separate
//! gateable instance without select formation — gcc's `if-conversion`
//! complement lives in [`crate::opt::simplifycfg::run_if_convert`]).
//!
//! Rewrites:
//! * constant branches become jumps (unreachable arms die);
//! * empty forwarding blocks are threaded away (their jump's line rows
//!   disappear);
//! * single-predecessor chains are merged (the connecting jump's line
//!   disappears);
//! * *select formation* (speculation): a two-armed diamond whose arms
//!   each contain one pure assignment to the same register becomes a
//!   branchless `select`. The select carries **line 0** — it stands
//!   for two source locations at once — while the hoisted arm code
//!   keeps its lines but now executes unconditionally.

use crate::manager::PassConfig;
use dt_ir::{BlockId, DbgLoc, Function, Inst, Module, Op, Terminator, Value};

/// Full SimplifyCFG: cleanup plus select formation (clang).
pub fn run(module: &mut Module, config: &PassConfig) {
    for f in &mut module.funcs {
        simplify(f, true, config.salvage);
    }
}

/// Cleanup only (used inside other gcc-level pipeline points).
pub fn run_cleanup(module: &mut Module, config: &PassConfig) {
    for f in &mut module.funcs {
        simplify(f, false, config.salvage);
    }
}

/// Select formation only (gcc's `if-conversion`).
pub fn run_if_convert(module: &mut Module, _config: &PassConfig) {
    for f in &mut module.funcs {
        form_selects(f);
    }
}

fn simplify(f: &mut Function, selects: bool, salvage: bool) {
    let mut local = true;
    while local {
        local = false;
        local |= fold_constant_branches(f);
        local |= thread_empty_blocks(f, salvage);
        local |= merge_chains(f);
        if selects {
            local |= form_selects(f);
        }
    }
    remove_unreachable(f);
}

fn fold_constant_branches(f: &mut Function) -> bool {
    let mut changed = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        let blk = f.block_mut(b);
        if let Terminator::Branch {
            cond: Value::Const(c),
            then_bb,
            else_bb,
            ..
        } = blk.term
        {
            let target = if c != 0 { then_bb } else { else_bb };
            blk.term = Terminator::Jump(target);
            changed = true;
        } else if let Terminator::Branch {
            then_bb, else_bb, ..
        } = blk.term
        {
            if then_bb == else_bb {
                blk.term = Terminator::Jump(then_bb);
                changed = true;
            }
        }
    }
    changed
}

fn thread_empty_blocks(f: &mut Function, salvage: bool) -> bool {
    // A block is a pure forwarder when it has no real instructions and
    // jumps elsewhere. Debug pseudos inside it are kept by hoisting
    // into the target under the salvage policy, dropped otherwise.
    let mut changed = false;
    let forward: Vec<Option<BlockId>> = f
        .blocks
        .iter()
        .enumerate()
        .map(|(i, blk)| match blk.term {
            Terminator::Jump(t)
                if !blk.dead && t.index() != i && blk.insts.iter().all(|x| x.op.is_dbg()) =>
            {
                Some(t)
            }
            _ => None,
        })
        .collect();
    let resolve = |mut b: BlockId| {
        let mut hops = 0;
        while let Some(t) = forward[b.index()] {
            b = t;
            hops += 1;
            if hops > forward.len() {
                break;
            }
        }
        b
    };

    for b in f.block_ids().collect::<Vec<_>>() {
        if forward[b.index()].is_some() {
            continue;
        }
        let mut term = f.block(b).term.clone();
        let mut local = false;
        term.for_each_successor_mut(|s| {
            let r = resolve(*s);
            if r != *s {
                // Carry the forwarder's debug pseudos to the target.
                if salvage {
                    let moved: Vec<Inst> = f.blocks[s.index()]
                        .insts
                        .iter()
                        .filter(|i| i.op.is_dbg())
                        .cloned()
                        .collect();
                    for (k, inst) in moved.into_iter().enumerate() {
                        f.blocks[r.index()].insts.insert(k, inst);
                    }
                }
                *s = r;
                local = true;
            }
        });
        if local {
            f.block_mut(b).term = term;
            changed = true;
        }
    }
    changed
}

fn merge_chains(f: &mut Function) -> bool {
    let mut changed = false;
    loop {
        let preds = dt_ir::predecessors(f);
        let mut merged = false;
        for b in f.block_ids().collect::<Vec<_>>() {
            let Terminator::Jump(s) = f.block(b).term else {
                continue;
            };
            if s == b || f.block(s).dead || s == f.entry || preds[s.index()] != [b] {
                continue;
            }
            let succ_insts = std::mem::take(&mut f.blocks[s.index()].insts);
            let succ_term = f.blocks[s.index()].term.clone();
            let succ_line = f.blocks[s.index()].term_line;
            f.remove_block(s);
            // remove_block rewrites the dying block's terminator, so
            // re-wire b afterwards.
            let blk = f.block_mut(b);
            blk.insts.extend(succ_insts);
            blk.term = succ_term;
            blk.term_line = succ_line;
            merged = true;
            changed = true;
            break;
        }
        if !merged {
            return changed;
        }
    }
}

/// Select formation over two-armed diamonds.
fn form_selects(f: &mut Function) -> bool {
    let mut changed = false;
    let preds = dt_ir::predecessors(f);
    for b in f.block_ids().collect::<Vec<_>>() {
        let Terminator::Branch {
            cond,
            then_bb,
            else_bb,
            ..
        } = f.block(b).term
        else {
            continue;
        };
        if then_bb == else_bb {
            continue;
        }
        let arm = |bb: BlockId| -> Option<(BlockId, Option<Inst>)> {
            let blk = f.block(bb);
            let Terminator::Jump(j) = blk.term else {
                return None;
            };
            let real: Vec<&Inst> = blk.insts.iter().filter(|i| !i.op.is_dbg()).collect();
            match real.len() {
                0 => Some((j, None)),
                1 if real[0].op.is_pure() => Some((j, Some(real[0].clone()))),
                _ => None,
            }
        };
        // Two shapes: a full diamond (both arms jump to a join) or a
        // one-armed triangle (one successor *is* the join).
        let (j1, a1, a2, arm_blocks): (BlockId, Option<Inst>, Option<Inst>, Vec<BlockId>) =
            match (arm(then_bb), arm(else_bb)) {
                (Some((j1, a1)), Some((j2, a2))) if j1 == j2 && j1 != b => {
                    if preds[then_bb.index()] != [b] || preds[else_bb.index()] != [b] {
                        continue;
                    }
                    (j1, a1, a2, vec![then_bb, else_bb])
                }
                (Some((j1, a1)), _) if j1 == else_bb && preds[then_bb.index()] == [b] => {
                    (j1, a1, None, vec![then_bb])
                }
                (_, Some((j2, a2))) if j2 == then_bb && preds[else_bb.index()] == [b] => {
                    (j2, None, a2, vec![else_bb])
                }
                _ => continue,
            };
        // Both arms must define the same register (or one arm nothing).
        let dst = match (&a1, &a2) {
            (Some(i1), Some(i2)) => {
                let (Some(d1), Some(d2)) = (i1.op.def(), i2.op.def()) else {
                    continue;
                };
                if d1 != d2 {
                    continue;
                }
                d1
            }
            (Some(i1), None) => match i1.op.def() {
                Some(d) => d,
                None => continue,
            },
            (None, Some(i2)) => match i2.op.def() {
                Some(d) => d,
                None => continue,
            },
            (None, None) => {
                // Trivial diamond: both arms empty — just a jump.
                f.block_mut(b).term = Terminator::Jump(j1);
                changed = true;
                continue;
            }
        };

        // Hoist: compute each arm's value into a fresh register, then
        // select. A missing arm means "keep the old value" — the
        // destination register itself, which must then be defined on
        // every path reaching `b` (guaranteed by MiniC lowering, since
        // conditional assignment targets are initialized variables).
        let tv = match &a1 {
            Some(i) => {
                let fresh = f.new_vreg();
                let mut inst = i.clone();
                inst.op.set_def(fresh);
                f.block_mut(b).insts.push(inst);
                Value::Reg(fresh)
            }
            None => Value::Reg(dst),
        };
        let ev = match &a2 {
            Some(i) => {
                let fresh = f.new_vreg();
                let mut inst = i.clone();
                inst.op.set_def(fresh);
                f.block_mut(b).insts.push(inst);
                Value::Reg(fresh)
            }
            None => Value::Reg(dst),
        };
        // The select stands for two source locations: line 0.
        f.block_mut(b).insts.push(Inst::new(
            Op::Select {
                dst,
                cond,
                on_true: tv,
                on_false: ev,
            },
            0,
        ));
        // Re-bind debug values that lived in the arms: the variable now
        // holds the select result (bind to dst after the select).
        let mut rebound: Vec<Inst> = Vec::new();
        for &arm_bb in &arm_blocks {
            for inst in &f.block(arm_bb).insts {
                if let Op::DbgValue { var, .. } = inst.op {
                    if !rebound
                        .iter()
                        .any(|r| matches!(r.op, Op::DbgValue { var: v, .. } if v == var))
                    {
                        rebound.push(Inst::new(
                            Op::DbgValue {
                                var,
                                loc: DbgLoc::Value(Value::Reg(dst)),
                            },
                            0,
                        ));
                    }
                }
            }
        }
        f.block_mut(b).insts.extend(rebound);
        f.block_mut(b).term = Terminator::Jump(j1);
        f.block_mut(b).term_line = 0;
        changed = true;
    }
    remove_unreachable(f);
    changed
}

fn remove_unreachable(f: &mut Function) {
    let reachable = dt_ir::reachable_blocks(f);
    for b in 0..f.blocks.len() {
        let id = BlockId(b as u32);
        if !reachable.contains(&id) && !f.blocks[b].dead && id != f.entry {
            f.remove_block(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PassConfig;

    fn pipeline(src: &str, selects: bool) -> Module {
        let mut m = dt_frontend::lower_source(src).unwrap();
        let cfg = PassConfig::default();
        crate::opt::mem2reg::run(&mut m, &cfg);
        crate::opt::instcombine::run(&mut m, &cfg);
        for f in &mut m.funcs {
            simplify(f, selects, false);
        }
        crate::opt::dce::run(&mut m, &cfg);
        dt_ir::verify_module(&m).unwrap();
        m
    }

    fn live_blocks(m: &Module, f: usize) -> usize {
        m.funcs[f].block_ids().count()
    }

    fn check(m: &Module, entry: &str, args: &[i64], expected: i64) {
        let obj = dt_machine::run_backend(m, &dt_machine::BackendConfig::default());
        let r = dt_vm::Vm::run_to_completion(&obj, entry, args, &[], dt_vm::VmConfig::default())
            .unwrap();
        assert_eq!(r.ret, expected);
    }

    #[test]
    fn constant_branch_folds_and_dead_arm_dies() {
        let m = pipeline(
            "int f() { int t = 1; if (t) { return 5; } return 6; }",
            false,
        );
        check(&m, "f", &[], 5);
        // The false arm must be unreachable and removed.
        assert!(live_blocks(&m, 0) <= 2);
    }

    #[test]
    fn straight_line_code_collapses_to_one_block() {
        let m = pipeline(
            "int f(int a) { int x = a + 1; int y = x * 2; return y; }",
            false,
        );
        assert_eq!(live_blocks(&m, 0), 1);
        check(&m, "f", &[4], 10);
    }

    #[test]
    fn diamond_becomes_select() {
        let src = "int f(int c) { int x = 0; if (c) { x = 1; } else { x = 2; } return x; }";
        let m = pipeline(src, true);
        let has_select = m.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i.op, Op::Select { .. }));
        assert!(has_select, "two-armed diamond must become a select");
        check(&m, "f", &[1], 1);
        check(&m, "f", &[0], 2);
    }

    #[test]
    fn one_armed_if_becomes_select() {
        let src = "int f(int c) { int x = 7; if (c) { x = 1; } return x; }";
        let m = pipeline(src, true);
        let has_select = m.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .any(|i| matches!(i.op, Op::Select { .. }));
        assert!(has_select);
        check(&m, "f", &[1], 1);
        check(&m, "f", &[0], 7);
    }

    #[test]
    fn selects_carry_line_zero() {
        let src = "int f(int c) {\nint x = 0;\nif (c) {\nx = 1;\n} else {\nx = 2;\n}\nreturn x;\n}";
        let m = pipeline(src, true);
        for f in &m.funcs {
            for b in &f.blocks {
                for i in &b.insts {
                    if matches!(i.op, Op::Select { .. }) {
                        assert_eq!(i.line, 0, "select is ambiguous between two arms");
                    }
                }
            }
        }
    }

    #[test]
    fn side_effecting_arms_stay_branches() {
        let src = "int f(int c) { if (c) { out(1); } else { out(2); } return 0; }";
        let m = pipeline(src, true);
        let has_branch = m.funcs[0]
            .blocks
            .iter()
            .any(|b| matches!(b.term, Terminator::Branch { .. }));
        assert!(has_branch, "I/O arms must not be speculated");
        check(&m, "f", &[1], 0);
    }

    #[test]
    fn loops_survive_simplification() {
        let src = "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }";
        let m = pipeline(src, true);
        check(&m, "f", &[10], 45);
    }
}
