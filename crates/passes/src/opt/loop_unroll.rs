//! Loop unrolling (clang `LoopUnroll`; inside gcc's
//! `tree-loop-optimize` umbrella).
//!
//! Fully unrolls *counted* loops — canonical induction variable with a
//! constant init, constant step, and a constant `<`/`<=` bound — when
//! the trip count and body size are small. With an AutoFDO profile,
//! the body-size budget grows for hot loops.
//!
//! Debug policy: the first iteration keeps its lines and debug
//! pseudos; later clones keep lines (each source line still maps to
//! code, stepping works) but drop their debug pseudos, so variable
//! bindings inside unrolled bodies go stale — LLVM behaves the same
//! way, and it is why the paper measures a small but consistent loss
//! for `LoopUnroll`.

use crate::manager::PassConfig;
use crate::opt::util::find_inductions;
use dt_ir::{BinOp, BlockId, DomTree, Function, Inst, LoopForest, Module, Op, Terminator, Value};

/// Maximum trip count eligible for full unrolling.
const MAX_TRIP: i64 = 8;
/// Maximum body size (real instructions).
const MAX_BODY: usize = 24;
/// Body-size budget multiplier for profile-hot loops.
const HOT_MULTIPLIER: usize = 3;

/// Runs full unrolling over every function.
pub fn run(module: &mut Module, config: &PassConfig) {
    for f in &mut module.funcs {
        // Unrolling invalidates loop info; handle one loop per round.
        for _ in 0..4 {
            if !unroll_one(f, config) {
                break;
            }
        }
    }
}

fn unroll_one(f: &mut Function, config: &PassConfig) -> bool {
    let dom = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dom);
    for l in &forest.loops {
        // Shape: header H (branch), single body block B that is also
        // the latch. This is what MiniC `while`/simple `for` loops look
        // like after lowering (the `for` step block merges into B via
        // simplifycfg, or B chains through the step block — accept a
        // two-block body chain as well).
        if l.latches.len() != 1 {
            continue;
        }
        let header = l.header;
        let Terminator::Branch {
            cond: Value::Reg(c),
            then_bb,
            else_bb,
            ..
        } = f.block(header).term
        else {
            continue;
        };
        let (body_first, exit) = if l.contains(then_bb) && !l.contains(else_bb) {
            (then_bb, else_bb)
        } else if l.contains(else_bb) && !l.contains(then_bb) {
            (else_bb, then_bb)
        } else {
            continue;
        };
        // Collect the body chain from body_first to the latch via
        // unconditional jumps.
        let Some(chain) = body_chain(f, body_first, header, l) else {
            continue;
        };
        // The condition: cmp = i < N or i <= N computed in the header.
        let Some((ind_reg, bound, inclusive)) = bound_of(f, header, c) else {
            continue;
        };
        let inductions = find_inductions(f, &l.blocks);
        let Some(ind) = inductions.iter().find(|i| i.reg == ind_reg) else {
            continue;
        };
        let Some(init) = ind.init else { continue };
        if ind.step <= 0 {
            continue;
        }
        let trip = trip_count(init, bound, ind.step, inclusive);
        let Some(trip) = trip else { continue };
        let body_size: usize = chain
            .iter()
            .map(|&b| f.block(b).insts.iter().filter(|i| !i.op.is_dbg()).count())
            .sum();
        let header_size = f
            .block(header)
            .insts
            .iter()
            .filter(|i| !i.op.is_dbg())
            .count();
        if !f
            .block(header)
            .insts
            .iter()
            .all(|i| i.op.is_pure() || i.op.is_dbg())
        {
            continue;
        }
        let mut budget = MAX_BODY;
        if let Some(profile) = &config.profile {
            let hot = (f.line..=f.end_line).any(|line| profile.is_hot(line, 5.0));
            if hot {
                budget *= HOT_MULTIPLIER;
            }
        }
        if trip > MAX_TRIP || (trip as usize) * (body_size + header_size) > budget * 4 {
            continue;
        }
        if body_size > budget {
            continue;
        }
        // The body must not consume header-computed temporaries: each
        // copy re-evaluates the header *after* its body, so such a use
        // would read a stale clone-private value.
        let mut header_defs: std::collections::HashSet<dt_ir::VReg> = Default::default();
        for inst in &f.block(header).insts {
            if let Some(d) = inst.op.def() {
                header_defs.insert(d);
            }
        }
        let mut loop_set: std::collections::HashSet<BlockId> = chain.iter().copied().collect();
        loop_set.insert(header);
        let escaping = crate::opt::util::regs_escaping(f, &loop_set);
        let mut body_uses_header_temp = false;
        for &b in &chain {
            for inst in &f.block(b).insts {
                inst.op.for_each_use(|v| {
                    if let Value::Reg(r) = v {
                        body_uses_header_temp |= header_defs.contains(&r) && !escaping.contains(&r);
                    }
                });
            }
        }
        if body_uses_header_temp {
            continue;
        }

        apply_unroll(f, header, &chain, exit, trip);
        return true;
    }
    false
}

/// The linear chain of blocks from `start` back to the header, if the
/// body is straight-line.
fn body_chain(
    f: &Function,
    start: BlockId,
    header: BlockId,
    l: &dt_ir::Loop,
) -> Option<Vec<BlockId>> {
    let mut chain = vec![start];
    let mut cur = start;
    for _ in 0..l.blocks.len() + 1 {
        match f.block(cur).term {
            Terminator::Jump(t) if t == header => return Some(chain),
            Terminator::Jump(t) if l.contains(t) && t != start => {
                chain.push(t);
                cur = t;
            }
            _ => return None,
        }
    }
    None
}

/// Extracts `(induction register, bound, inclusive)` when the branch
/// condition `c` is `i < K` or `i <= K` computed in the header.
fn bound_of(f: &Function, header: BlockId, c: dt_ir::VReg) -> Option<(dt_ir::VReg, i64, bool)> {
    for inst in f.block(header).insts.iter().rev() {
        if inst.op.def() == Some(c) {
            return match inst.op {
                Op::Bin {
                    op: BinOp::Lt,
                    lhs: Value::Reg(i),
                    rhs: Value::Const(k),
                    ..
                } => Some((i, k, false)),
                Op::Bin {
                    op: BinOp::Le,
                    lhs: Value::Reg(i),
                    rhs: Value::Const(k),
                    ..
                } => Some((i, k, true)),
                _ => None,
            };
        }
    }
    None
}

fn trip_count(init: i64, bound: i64, step: i64, inclusive: bool) -> Option<i64> {
    let bound = if inclusive {
        bound.checked_add(1)?
    } else {
        bound
    };
    if init >= bound {
        return Some(0);
    }
    let span = bound.checked_sub(init)?;
    Some((span + step - 1) / step)
}

/// Replaces the loop with `trip` straight-line copies of
/// header-computation + body.
fn apply_unroll(f: &mut Function, header: BlockId, chain: &[BlockId], exit: BlockId, trip: i64) {
    let header_insts: Vec<Inst> = f.block(header).insts.clone();
    let body_insts: Vec<Inst> = chain
        .iter()
        .flat_map(|&b| f.block(b).insts.clone())
        .collect();

    // Values read outside the loop keep their registers (the copies
    // must thread the accumulators through); clone-private temporaries
    // are renamed per copy so live ranges stay short.
    let mut loop_set: std::collections::HashSet<BlockId> = chain.iter().copied().collect();
    loop_set.insert(header);
    let keep = crate::opt::util::regs_escaping(f, &loop_set);

    let clone_of = |f: &mut Function, insts: &[Inst], first: bool| -> Vec<Inst> {
        let mut out: Vec<Inst> = insts
            .iter()
            .filter(|i| first || !i.op.is_dbg())
            .cloned()
            .collect();
        crate::opt::util::rename_clone_defs(f, &mut out, &keep);
        out
    };

    // Build the unrolled sequence in fresh blocks; the header becomes a
    // jump to the first copy (or straight to the exit for trip 0).
    let mut cursor = header;
    for k in 0..trip {
        let copy = clone_of(f, &body_insts, k == 0);
        let body_block = f.new_block(Terminator::Jump(exit));
        f.block_mut(body_block).insts = copy;
        f.block_mut(cursor).term = Terminator::Jump(body_block);
        // Re-evaluate the header computation between copies so that
        // values derived from the induction variable stay fresh.
        let reeval_insts = clone_of(f, &header_insts, false);
        let reeval = f.new_block(Terminator::Jump(exit));
        f.block_mut(reeval).insts = reeval_insts;
        f.block_mut(body_block).term = Terminator::Jump(reeval);
        cursor = reeval;
    }
    f.block_mut(cursor).term = Terminator::Jump(exit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PassConfig;

    fn pipeline(src: &str, unroll: bool) -> Module {
        let mut m = dt_frontend::lower_source(src).unwrap();
        let cfg = PassConfig::default();
        crate::opt::mem2reg::run(&mut m, &cfg);
        crate::opt::instcombine::run(&mut m, &cfg);
        crate::opt::copycoalesce::run_coalesce(&mut m, &cfg);
        crate::opt::simplifycfg::run_cleanup(&mut m, &cfg);
        if unroll {
            run(&mut m, &cfg);
            crate::manager::cleanup(&mut m);
        }
        dt_ir::verify_module(&m).unwrap();
        m
    }

    fn check(m: &Module, args: &[i64], expected: i64) -> u64 {
        let obj = dt_machine::run_backend(m, &dt_machine::BackendConfig::default());
        let r =
            dt_vm::Vm::run_to_completion(&obj, "f", args, &[], dt_vm::VmConfig::default()).unwrap();
        assert_eq!(r.ret, expected);
        r.cycles
    }

    const COUNTED: &str =
        "int f(int a) { int s = 0; for (int i = 0; i < 4; i++) { s += a + i; } return s; }";

    #[test]
    fn counted_loop_fully_unrolls() {
        let m = pipeline(COUNTED, true);
        let f = &m.funcs[0];
        let dom = dt_ir::DomTree::compute(f);
        let forest = dt_ir::LoopForest::compute(f, &dom);
        assert!(forest.loops.is_empty(), "the loop must be gone");
        check(&m, &[10], 46);
    }

    #[test]
    fn unrolling_saves_branch_cycles() {
        let with = check(&pipeline(COUNTED, true), &[10], 46);
        let without = check(&pipeline(COUNTED, false), &[10], 46);
        assert!(
            with < without,
            "no more per-iteration branches ({with} vs {without})"
        );
    }

    #[test]
    fn inclusive_bounds_and_steps() {
        let src = "int f() { int s = 0; for (int i = 0; i <= 6; i += 2) { s += i; } return s; }";
        let m = pipeline(src, true);
        check(&m, &[], 2 + 4 + 6);
    }

    #[test]
    fn large_trip_counts_are_left_alone() {
        let src = "int f() { int s = 0; for (int i = 0; i < 1000; i++) { s += i; } return s; }";
        let m = pipeline(src, true);
        let f = &m.funcs[0];
        let dom = dt_ir::DomTree::compute(f);
        let forest = dt_ir::LoopForest::compute(f, &dom);
        assert!(!forest.loops.is_empty(), "trip 1000 must not fully unroll");
        check(&m, &[], 999 * 1000 / 2);
    }

    #[test]
    fn zero_trip_loop_unrolls_to_nothing() {
        let src = "int f() { int s = 7; for (int i = 5; i < 5; i++) { s = 0; } return s; }";
        let m = pipeline(src, true);
        check(&m, &[], 7);
    }

    #[test]
    fn unknown_bounds_are_left_alone() {
        let src = "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }";
        let m = pipeline(src, true);
        check(&m, &[6], 15);
    }

    #[test]
    fn later_clones_drop_debug_pseudos() {
        let m = pipeline(COUNTED, true);
        // Count dbg pseudos mentioning the loop body variable binding:
        // only the first copy keeps them.
        let f = &m.funcs[0];
        let total_dbg: usize = f
            .blocks
            .iter()
            .filter(|b| !b.dead)
            .flat_map(|b| &b.insts)
            .filter(|i| i.op.is_dbg())
            .count();
        let unrolled_real: usize = f
            .blocks
            .iter()
            .filter(|b| !b.dead)
            .flat_map(|b| &b.insts)
            .filter(|i| !i.op.is_dbg())
            .count();
        assert!(
            total_dbg < unrolled_real,
            "clones 2..n carry no debug pseudos ({total_dbg} dbg vs {unrolled_real} real)"
        );
    }
}
