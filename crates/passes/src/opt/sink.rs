//! IR-level code sinking (`tree-sink`).
//!
//! Moves a pure computation used on only one side of a branch into
//! that successor. Identical in spirit to the backend's machine
//! sinking, but operating before lowering, where it catches the
//! expression temporaries promotion creates.
//!
//! Debug policy: the attached `dbg.value` travels with the moved
//! instruction and a `dbg.value undef` marks the original point, so
//! the variable is unavailable on the path that no longer computes it.

use crate::manager::PassConfig;
use dt_ir::{DbgLoc, Function, Inst, Liveness, Module, Op, Terminator, Value};

/// Runs sinking over every function.
pub fn run(module: &mut Module, _config: &PassConfig) {
    for f in &mut module.funcs {
        // Fixpoint: sinking one instruction can unblock its operands
        // (their last use just moved out of the block).
        for _ in 0..8 {
            if !sink_function(f) {
                break;
            }
        }
    }
}

fn sink_function(f: &mut Function) -> bool {
    let preds = dt_ir::predecessors(f);
    let live = Liveness::compute(f);

    // Blocks that use each register (non-debug uses).
    let mut use_blocks: Vec<Vec<dt_ir::BlockId>> = vec![Vec::new(); f.vreg_count as usize];
    for b in f.block_ids() {
        let blk = f.block(b);
        for inst in &blk.insts {
            if inst.op.is_dbg() {
                continue;
            }
            inst.op.for_each_use(|v| {
                if let Some(r) = v.as_reg() {
                    if use_blocks[r.index()].last() != Some(&b) {
                        use_blocks[r.index()].push(b);
                    }
                }
            });
        }
        blk.term.for_each_use(|v| {
            if let Some(r) = v.as_reg() {
                if use_blocks[r.index()].last() != Some(&b) {
                    use_blocks[r.index()].push(b);
                }
            }
        });
    }

    let mut changed = false;
    for b in f.block_ids().collect::<Vec<_>>() {
        let Terminator::Branch {
            then_bb, else_bb, ..
        } = f.block(b).term
        else {
            continue;
        };
        if then_bb == else_bb {
            continue;
        }
        let mut i = f.block(b).insts.len();
        while i > 0 {
            i -= 1;
            let inst = &f.block(b).insts[i];
            if inst.op.is_dbg() || !inst.op.is_pure() {
                continue;
            }
            let Some(d) = inst.op.def() else { continue };
            // Operands as evaluated at position `i`.
            let mut operands: Vec<Value> = Vec::new();
            inst.op.for_each_use(|v| operands.push(v));
            // Not used later in this block (or by the terminator), not
            // redefined later (the successor's use would then refer to
            // the *later* def, which sinking would clobber), and no
            // operand redefined later (the sunk computation would read
            // the new value).
            let mut blocked = false;
            for later in &f.block(b).insts[i + 1..] {
                if later.op.is_dbg() {
                    continue;
                }
                later.op.for_each_use(|v| blocked |= v == Value::Reg(d));
                if let Some(ld) = later.op.def() {
                    blocked |= ld == d;
                    blocked |= operands.contains(&Value::Reg(ld));
                }
                if blocked {
                    break;
                }
            }
            f.block(b)
                .term
                .for_each_use(|v| blocked |= v == Value::Reg(d));
            if blocked {
                continue;
            }
            let ub = &use_blocks[d.index()];
            let target = if *ub == [then_bb]
                && !live.live_in[else_bb.index()].contains(d)
                && preds[then_bb.index()] == [b]
            {
                then_bb
            } else if *ub == [else_bb]
                && !live.live_in[then_bb.index()].contains(d)
                && preds[else_bb.index()] == [b]
            {
                else_bb
            } else {
                continue;
            };

            // Move the instruction and its attached binding.
            let mut moved: Vec<Inst> = vec![f.block_mut(b).insts.remove(i)];
            while i < f.block(b).insts.len() {
                let attached = matches!(
                    f.block(b).insts[i].op,
                    Op::DbgValue {
                        loc: DbgLoc::Value(Value::Reg(r)),
                        ..
                    } if r == d
                );
                if !attached {
                    break;
                }
                let dbg = f.block_mut(b).insts.remove(i);
                if let Op::DbgValue { var, .. } = dbg.op {
                    let undef = Inst::synth(Op::DbgValue {
                        var,
                        loc: DbgLoc::Undef,
                    });
                    f.block_mut(b).insts.insert(i, undef);
                    i += 1;
                }
                moved.push(dbg);
            }
            for (k, m) in moved.into_iter().enumerate() {
                f.block_mut(target).insts.insert(k, m);
            }
            changed = true;
        }
    }
    changed
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
        crate::opt::copycoalesce::run_coalesce(&mut m, &cfg);
        crate::opt::dce::run(&mut m, &cfg);
        run(&mut m, &cfg);
        dt_ir::verify_module(&m).unwrap();
        m
    }

    fn check(m: &Module, args: &[i64], expected: i64) -> u64 {
        let obj = dt_machine::run_backend(m, &dt_machine::BackendConfig::default());
        let r =
            dt_vm::Vm::run_to_completion(&obj, "f", args, &[], dt_vm::VmConfig::default()).unwrap();
        assert_eq!(r.ret, expected);
        // Instruction count: immune to one-off mispredict noise.
        r.steps
    }

    const SINKABLE: &str = "int f(int a, int c) {\n\
        int expensive = a * a * a;\n\
        if (c) { return expensive; }\n\
        return 0;\n}";

    #[test]
    fn computation_sinks_into_its_only_user() {
        let m = pipeline(SINKABLE);
        check(&m, &[3, 1], 27);
        check(&m, &[3, 0], 0);
        // The cold path must now skip the multiplies.
        let cold = check(&pipeline(SINKABLE), &[3, 0], 0);
        let hot = check(&pipeline(SINKABLE), &[3, 1], 27);
        assert!(
            cold < hot,
            "cold path avoids the sunk work ({cold} vs {hot} steps)"
        );
    }

    #[test]
    fn undef_marker_left_behind() {
        let m = pipeline(SINKABLE);
        let undefs = m.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| {
                matches!(
                    i.op,
                    Op::DbgValue {
                        loc: DbgLoc::Undef,
                        ..
                    }
                )
            })
            .count();
        assert!(undefs >= 1, "sinking leaves a dbg.value undef behind");
    }

    #[test]
    fn values_used_on_both_paths_stay() {
        let src = "int f(int a, int c) {\n\
            int both = a * 2;\n\
            if (c) { return both + 1; }\n\
            return both;\n}";
        let m = pipeline(src);
        check(&m, &[4, 1], 9);
        check(&m, &[4, 0], 8);
    }

    /// Regression for the seed-126 miscompilation: a dead first
    /// definition of a register must not sink past a live
    /// redefinition. Keep dce out of the pipeline so the dead first
    /// def of `t` survives to sinking's input, the way it does
    /// mid-pipeline once copy coalescing merges both defs into one
    /// register.
    #[test]
    fn dead_def_does_not_sink_past_redefinition() {
        let src = "int f(int a, int c) {\n\
            int t = a * 7;\n\
            t = a + 1;\n\
            if (c) { out(t); return t; }\n\
            return 0;\n}";
        let mut m = dt_frontend::lower_source(src).unwrap();
        let cfg = PassConfig::default();
        crate::opt::mem2reg::run(&mut m, &cfg);
        crate::opt::copycoalesce::run_coalesce(&mut m, &cfg);
        run(&mut m, &cfg);
        dt_ir::verify_module(&m).unwrap();
        check(&m, &[4, 1], 5);
        check(&m, &[4, 0], 0);
    }

    #[test]
    fn terminator_uses_block_sinking() {
        let src = "int f(int a) {\n\
            int t = a * 3;\n\
            if (t > 10) { return 1; }\n\
            return 0;\n}";
        let m = pipeline(src);
        check(&m, &[4], 1);
        check(&m, &[2], 0);
    }
}
