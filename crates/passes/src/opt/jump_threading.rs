//! Jump threading (`thread-jumps` in gcc, `JumpThreading` in LLVM).
//!
//! When a block's branch outcome is knowable on a specific incoming
//! edge — either because the predecessor materializes a constant
//! condition, or because the predecessor branched on the *same*
//! condition register — the path is threaded directly to the resolved
//! target, duplicating the intermediate block onto that edge.
//!
//! Debug cost (the classic one): duplicated instructions are clones of
//! code that belongs to one source location but now exists twice, so
//! the clones carry **line 0** and their debug pseudos are dropped.

use crate::manager::PassConfig;
use dt_ir::{BlockId, Function, Inst, Module, Op, Terminator, VReg, Value};

/// Maximum real instructions in a threadable block.
const MAX_THREADED_SIZE: usize = 6;

/// Runs jump threading over every function.
pub fn run(module: &mut Module, _config: &PassConfig) {
    for f in &mut module.funcs {
        thread_function(f);
    }
}

fn thread_function(f: &mut Function) {
    let roots = crate::opt::util::copy_roots(f);
    let root = |r: VReg| roots.get(&r).copied().unwrap_or(r);
    // Snapshot candidates first; rewrites invalidate preds.
    let candidates: Vec<BlockId> = f
        .block_ids()
        .filter(|&b| {
            let blk = f.block(b);
            let is_branch = matches!(
                blk.term,
                Terminator::Branch {
                    cond: Value::Reg(_),
                    ..
                }
            );
            let small = blk.insts.iter().filter(|i| !i.op.is_dbg()).count() <= MAX_THREADED_SIZE;
            let pure = blk.insts.iter().all(|i| i.op.is_pure() || i.op.is_dbg());
            is_branch && small && pure
        })
        .collect();

    for b in candidates {
        let preds = dt_ir::predecessors(f);
        let Terminator::Branch {
            cond: Value::Reg(c),
            then_bb,
            else_bb,
            ..
        } = f.block(b).term
        else {
            continue;
        };
        // The branch condition must not be redefined inside `b` for the
        // correlated-condition case; for the constant case the constant
        // must survive `b` — easiest sound rule: `b` must not redefine
        // the condition register.
        if f.block(b).insts.iter().any(|i| i.op.def() == Some(c)) {
            continue;
        }

        for p in preds[b.index()].clone() {
            if p == b || f.block(p).dead || f.block(b).dead {
                continue;
            }
            match f.block(p).term.clone() {
                // Constant case: the predecessor jumps in with a known
                // value in the condition register.
                Terminator::Jump(t) if t == b => {
                    let known = const_value_at_end(f, p, c)
                        .map(|k| k != 0)
                        .or_else(|| truthiness_from_preds(f, &preds, p, c, &root));
                    let Some(k) = known else {
                        continue;
                    };
                    let target = if k { then_bb } else { else_bb };
                    thread_edge(f, p, b, target, None);
                }
                // Correlated case: the predecessor branched on the same
                // register, so each edge knows the truthiness.
                Terminator::Branch {
                    cond: Value::Reg(pc),
                    then_bb: p_then,
                    else_bb: p_else,
                    ..
                } if root(pc) == root(c) && p_then != p_else => {
                    if p_then == b {
                        thread_edge(f, p, b, then_bb, Some(true));
                    } else if p_else == b {
                        thread_edge(f, p, b, else_bb, Some(false));
                    }
                }
                _ => {}
            }
        }
    }
}

/// Determines the truthiness of `c` on entry to `p` from `p`'s own
/// predecessors: if every predecessor branches on `c` and `p` sits
/// exclusively on then-edges (or exclusively on else-edges), and
/// neither `p` nor its predecessors' shared paths redefine `c`, the
/// value is known. This is the one-level path-sensitivity LLVM's
/// jump threading applies through empty/forwarding blocks.
fn truthiness_from_preds(
    f: &Function,
    preds: &[Vec<BlockId>],
    p: BlockId,
    c: VReg,
    root: &dyn Fn(VReg) -> VReg,
) -> Option<bool> {
    if f.block(p).insts.iter().any(|i| i.op.def() == Some(c)) {
        return None;
    }
    let pp = &preds[p.index()];
    if pp.is_empty() {
        return None;
    }
    let mut truth: Option<bool> = None;
    for &q in pp {
        let Terminator::Branch {
            cond: Value::Reg(qc),
            then_bb,
            else_bb,
            ..
        } = f.block(q).term
        else {
            return None;
        };
        if root(qc) != root(c) || then_bb == else_bb {
            return None;
        }
        let this = if then_bb == p {
            true
        } else if else_bb == p {
            false
        } else {
            return None;
        };
        match truth {
            None => truth = Some(this),
            Some(t) if t == this => {}
            _ => return None,
        }
    }
    truth
}

/// The constant value of `c` at the end of block `p`, if statically
/// known (last def is a constant copy).
fn const_value_at_end(f: &Function, p: BlockId, c: VReg) -> Option<i64> {
    for inst in f.block(p).insts.iter().rev() {
        if inst.op.def() == Some(c) {
            return match inst.op {
                Op::Copy {
                    src: Value::Const(k),
                    ..
                } => Some(k),
                _ => None,
            };
        }
    }
    None
}

/// Threads the edge `p -> b` directly to `target` by placing a line-0
/// clone of `b`'s real instructions on the edge. `edge` tells which of
/// `p`'s branch edges to rewrite (`None` = the jump terminator).
fn thread_edge(f: &mut Function, p: BlockId, b: BlockId, target: BlockId, edge: Option<bool>) {
    // Clone b's computation (it may feed `target`); clone-private
    // temporaries get fresh registers so live ranges do not balloon.
    let mut cloned: Vec<Inst> = f
        .block(b)
        .insts
        .iter()
        .filter(|i| !i.op.is_dbg())
        .map(|i| {
            let mut c = i.clone();
            c.line = 0; // duplicated code: ambiguous provenance
            c
        })
        .collect();
    let b_set: std::collections::HashSet<BlockId> = [b].into_iter().collect();
    let keep = crate::opt::util::regs_escaping(f, &b_set);
    crate::opt::util::rename_clone_defs(f, &mut cloned, &keep);

    let hop = f.new_block(Terminator::Jump(target));
    f.block_mut(hop).insts = cloned;
    match edge {
        None => {
            f.block_mut(p).term = Terminator::Jump(hop);
        }
        Some(true) => {
            if let Terminator::Branch { then_bb, .. } = &mut f.block_mut(p).term {
                *then_bb = hop;
            }
        }
        Some(false) => {
            if let Terminator::Branch { else_bb, .. } = &mut f.block_mut(p).term {
                *else_bb = hop;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PassConfig;

    fn pipeline(src: &str) -> Module {
        let mut m = dt_frontend::lower_source(src).unwrap();
        let cfg = PassConfig::default();
        crate::opt::mem2reg::run(&mut m, &cfg);
        crate::opt::instcombine::run(&mut m, &cfg);
        run(&mut m, &cfg);
        crate::manager::cleanup(&mut m);
        dt_ir::verify_module(&m).unwrap();
        m
    }

    fn check(m: &Module, args: &[i64], expected: i64) {
        let obj = dt_machine::run_backend(m, &dt_machine::BackendConfig::default());
        let r =
            dt_vm::Vm::run_to_completion(&obj, "f", args, &[], dt_vm::VmConfig::default()).unwrap();
        assert_eq!(r.ret, expected);
    }

    #[test]
    fn correlated_conditions_are_threaded() {
        // The second `if (c)` is fully determined by the first.
        let src = "int f(int c, int a) {\n\
                   int r = 0;\n\
                   if (c) { r = a + 1; } else { r = a - 1; }\n\
                   if (c) { r = r * 2; }\n\
                   return r;\n}";
        let before = dt_frontend::lower_source(src).unwrap();
        let before_blocks = before.funcs[0].block_ids().count();
        let m = pipeline(src);
        check(&m, &[1, 10], 22);
        check(&m, &[0, 10], 9);
        // Threading adds hop blocks.
        assert!(m.funcs[0].blocks.len() > before_blocks);
    }

    #[test]
    fn threaded_clones_carry_line_zero() {
        let src = "int f(int c, int a) {\n\
                   int r = 0;\n\
                   if (c) { r = a + 1; } else { r = a - 1; }\n\
                   if (c) { r = r * 2; }\n\
                   return r;\n}";
        let m = pipeline(src);
        // Hop blocks (appended at the end) contain only line-0 clones.
        let orig_blocks = dt_frontend::lower_source(src).unwrap().funcs[0]
            .blocks
            .len();
        for blk in &m.funcs[0].blocks[orig_blocks..] {
            for i in &blk.insts {
                assert_eq!(i.line, 0, "duplicated code must have no line");
            }
        }
    }

    #[test]
    fn impure_blocks_are_not_threaded() {
        let src = "int f(int c) {\n\
                   if (c) { out(1); } else { out(2); }\n\
                   if (c) { return 1; }\n\
                   return 0;\n}";
        let m = pipeline(src);
        check(&m, &[1], 1);
        check(&m, &[0], 0);
    }

    #[test]
    fn condition_redefinition_blocks_threading() {
        let src = "int f(int c, int a) {\n\
                   int r = 0;\n\
                   if (c) { r = 1; }\n\
                   c = a > 5;\n\
                   if (c) { r = r + 10; }\n\
                   return r;\n}";
        let m = pipeline(src);
        check(&m, &[1, 9], 11);
        check(&m, &[1, 1], 1);
        check(&m, &[0, 9], 10);
    }
}
