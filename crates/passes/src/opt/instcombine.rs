//! Instruction combining: constant folding, algebraic simplification,
//! and block-local copy propagation.
//!
//! Registered as clang's `InstCombine` and gcc's `tree-forwprop`. Every
//! simplification rewrites an instruction into a cheaper equivalent
//! (usually a `Copy`), leaving dead code for DCE. Debug values survive
//! unconditionally here — the loss shows up later when DCE erases the
//! leftovers; that indirection matches how these passes interact in
//! real compilers.

use crate::manager::PassConfig;
use dt_ir::{BinOp, Function, Module, Op, UnOp, VReg, Value};
use std::collections::HashMap;

/// Runs combining over every function to a local fixpoint.
pub fn run(module: &mut Module, _config: &PassConfig) {
    for f in &mut module.funcs {
        // Two rounds: copy-prop feeds folding and vice versa.
        for _ in 0..2 {
            combine_function(f);
        }
    }
}

fn combine_function(f: &mut Function) {
    for bi in 0..f.blocks.len() {
        if f.blocks[bi].dead {
            continue;
        }
        // Block-local value map: vreg -> known equivalent value.
        let mut known: HashMap<VReg, Value> = HashMap::new();
        let invalidate = |known: &mut HashMap<VReg, Value>, d: VReg| {
            known.remove(&d);
            known.retain(|_, v| *v != Value::Reg(d));
        };

        let nb_insts = f.blocks[bi].insts.len();
        for ii in 0..nb_insts {
            let inst = &mut f.blocks[bi].insts[ii];
            // Propagate known values into operands. Debug bindings are
            // only rewritten toward *constants*: redirecting a binding
            // from a variable's long-lived register to the short-lived
            // temporary it was copied from would shrink the variable's
            // location range for no codegen benefit — compilers leave
            // debug uses on the canonical value.
            let is_dbg = inst.op.is_dbg();
            inst.op.for_each_use_mut(|v| {
                if let Value::Reg(r) = v {
                    if let Some(k) = known.get(r) {
                        if !is_dbg || matches!(k, Value::Const(_)) {
                            *v = *k;
                        }
                    }
                }
            });

            // Simplify the operation.
            if let Some(new_op) = simplify(&inst.op) {
                inst.op = new_op;
            }

            // Update the value map.
            if let Some(d) = inst.op.def() {
                invalidate(&mut known, d);
                if let Op::Copy { dst, src } = inst.op {
                    if src != Value::Reg(dst) {
                        known.insert(dst, src);
                    }
                }
            }
        }

        // Fold the terminator's condition if known.
        let term = &mut f.blocks[bi].term;
        term.for_each_use_mut(|v| {
            if let Value::Reg(r) = v {
                if let Some(k) = known.get(r) {
                    *v = *k;
                }
            }
        });
    }
}

/// Returns the simplified form of `op`, if any.
fn simplify(op: &Op) -> Option<Op> {
    // Full constant folding first.
    if !matches!(
        op,
        Op::Copy {
            src: Value::Const(_),
            ..
        }
    ) {
        if let Some(c) = op.fold_constant() {
            let dst = op.def()?;
            return Some(Op::Copy {
                dst,
                src: Value::Const(c),
            });
        }
    }
    match *op {
        Op::Bin { dst, op, lhs, rhs } => simplify_bin(dst, op, lhs, rhs),
        Op::Un {
            dst,
            op: UnOp::Neg,
            src: Value::Const(c),
        } => Some(Op::Copy {
            dst,
            src: Value::Const(c.wrapping_neg()),
        }),
        Op::Select {
            dst,
            cond: _,
            on_true,
            on_false,
        } if on_true == on_false => Some(Op::Copy { dst, src: on_true }),
        _ => None,
    }
}

fn simplify_bin(dst: VReg, op: BinOp, lhs: Value, rhs: Value) -> Option<Op> {
    use BinOp::*;
    let copy = |src: Value| Some(Op::Copy { dst, src });
    // Canonicalize constants to the right for commutative operators.
    let (lhs, rhs) = match (op.is_commutative(), lhs, rhs) {
        (true, Value::Const(c), r @ Value::Reg(_)) => (r, Value::Const(c)),
        _ => (lhs, rhs),
    };
    match (op, lhs, rhs) {
        // Identity elements.
        (Add | Sub | Or | Xor | Shl | Shr, x, Value::Const(0)) => copy(x),
        (Mul | Div, x, Value::Const(1)) => copy(x),
        (Mul | And, _, Value::Const(0)) => copy(Value::Const(0)),
        (And, x, Value::Const(-1)) => copy(x),
        // x - x = 0, x ^ x = 0.
        (Sub | Xor, Value::Reg(a), Value::Reg(b)) if a == b => copy(Value::Const(0)),
        // x & x = x, x | x = x.
        (And | Or, Value::Reg(a), Value::Reg(b)) if a == b => copy(Value::Reg(a)),
        // Strength reduction: multiply by power of two becomes a shift.
        (Mul, x @ Value::Reg(_), Value::Const(c)) if c > 1 && (c & (c - 1)) == 0 => Some(Op::Bin {
            dst,
            op: Shl,
            lhs: x,
            rhs: Value::Const(c.trailing_zeros() as i64),
        }),
        // Comparisons of a register with itself.
        (Eq | Le | Ge, Value::Reg(a), Value::Reg(b)) if a == b => copy(Value::Const(1)),
        (Ne | Lt | Gt, Value::Reg(a), Value::Reg(b)) if a == b => copy(Value::Const(0)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_ir::Terminator;

    fn optimized(src: &str) -> Module {
        let mut m = dt_frontend::lower_source(src).unwrap();
        crate::opt::mem2reg::run(&mut m, &PassConfig::default());
        run(&mut m, &PassConfig::default());
        dt_ir::verify_module(&m).unwrap();
        m
    }

    fn behaves_like(src: &str, entry: &str, args: &[i64], expected: i64) {
        let m = optimized(src);
        let obj = dt_machine::run_backend(&m, &dt_machine::BackendConfig::default());
        let r = dt_vm::Vm::run_to_completion(&obj, entry, args, &[], dt_vm::VmConfig::default())
            .unwrap();
        assert_eq!(r.ret, expected);
    }

    #[test]
    fn folds_constant_expressions() {
        let m = optimized("int f() { int x = 2 + 3 * 4; return x; }");
        // Some instruction must now be a plain constant 14.
        let has_const = m.funcs[0].blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i.op,
                Op::Copy {
                    src: Value::Const(14),
                    ..
                }
            )
        });
        assert!(has_const);
        behaves_like("int f() { int x = 2 + 3 * 4; return x; }", "f", &[], 14);
    }

    #[test]
    fn propagates_copies_into_terminators() {
        let m = optimized("int f() { int t = 1; if (t) { return 5; } return 6; }");
        // The branch condition must have been folded to a constant.
        let const_branch = m.funcs[0].blocks.iter().any(|b| {
            matches!(
                b.term,
                Terminator::Branch {
                    cond: Value::Const(_),
                    ..
                }
            )
        });
        assert!(const_branch);
        behaves_like(
            "int f() { int t = 1; if (t) { return 5; } return 6; }",
            "f",
            &[],
            5,
        );
    }

    #[test]
    fn algebraic_identities() {
        behaves_like("int f(int x) { return x + 0; }", "f", &[9], 9);
        behaves_like("int f(int x) { return x * 1; }", "f", &[9], 9);
        behaves_like("int f(int x) { return x - x; }", "f", &[9], 0);
        behaves_like("int f(int x) { return (x & x) | 0; }", "f", &[12], 12);
    }

    #[test]
    fn multiply_becomes_shift() {
        let m = optimized("int f(int x) { return x * 8; }");
        let has_shift = m.funcs[0].blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i.op,
                Op::Bin {
                    op: BinOp::Shl,
                    rhs: Value::Const(3),
                    ..
                }
            )
        });
        assert!(has_shift);
        behaves_like("int f(int x) { return x * 8; }", "f", &[5], 40);
    }

    #[test]
    fn division_semantics_preserved() {
        behaves_like("int f(int x) { return x / 0; }", "f", &[5], 0);
        behaves_like("int f() { return 7 / 2 + 7 % 2; }", "f", &[], 4);
    }

    #[test]
    fn dbg_values_follow_copies() {
        let m = optimized("int f() { int x = 41 + 1; out(x); return x; }");
        // x's dbg.value should now reference the folded constant.
        let dbg_const = m.funcs[0].blocks.iter().flat_map(|b| &b.insts).any(|i| {
            matches!(
                i.op,
                Op::DbgValue {
                    loc: dt_ir::DbgLoc::Value(Value::Const(42)),
                    ..
                }
            )
        });
        assert!(dbg_const, "copy propagation must update debug bindings");
    }

    #[test]
    fn second_run_leaves_module_equal() {
        let src = "int f(int a, int b) { return a ^ b; }";
        let mut m = dt_frontend::lower_source(src).unwrap();
        crate::opt::mem2reg::run(&mut m, &PassConfig::default());
        run(&mut m, &PassConfig::default());
        // A second run over already-canonical code changes nothing.
        let before = m.clone();
        run(&mut m, &PassConfig::default());
        assert_eq!(before, m);
    }

    #[test]
    fn module_equality_sees_operand_only_propagation() {
        // `t = a; s = t + b; return s`: the only rewrite is `s = a + b`,
        // an in-place operand edit with no instruction added or removed.
        let mut b = dt_ir::FunctionBuilder::new("f", 2, 1);
        let t = b.copy(Value::Reg(VReg(0)), 1);
        let s = b.bin(BinOp::Add, Value::Reg(t), Value::Reg(VReg(1)), 2);
        b.ret(Some(Value::Reg(s)), 3);
        let mut m = Module::new();
        m.add_function(b.finish(3));
        let before = m.clone();
        run(&mut m, &PassConfig::default());

        let mut expected = before.clone();
        expected.funcs[0].blocks[0].insts[1].op = Op::Bin {
            dst: s,
            op: BinOp::Add,
            lhs: Value::Reg(VReg(0)),
            rhs: Value::Reg(VReg(1)),
        };
        assert_eq!(m, expected);
        assert_ne!(m, before);
    }
}
