//! Block-local common-subexpression and redundant-load elimination.
//!
//! Registered as clang's `EarlyCSE` and gcc's `tree-fre` (full
//! redundancy elimination, block-scoped here; the dominator-scoped
//! variant is [`crate::opt::gvn`]). A redundant computation becomes a
//! `Copy` of the earlier result; the copy is later propagated and
//! DCE'd, at which point the duplicated expression's line disappears —
//! the two-step dance real compilers perform.

use crate::manager::PassConfig;
use dt_ir::{Function, MemEffect, Module, Op, UnOp, VReg, Value};
use std::collections::HashMap;

/// Hashable key for a pure expression or a memory read.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum ExprKey {
    Un(UnOp, Value),
    Bin(dt_ir::BinOp, Value, Value),
    Select(Value, Value, Value),
    LoadSlot(u32),
    LoadIdx(u32, Value),
    LoadGlobal(u32),
    LoadGIdx(u32, Value),
    /// Call to a pure-const function.
    PureCall(u32, Vec<Value>),
}

fn key_of(op: &Op, pure_funcs: &[bool]) -> Option<ExprKey> {
    Some(match op {
        Op::Un { op, src, .. } => ExprKey::Un(*op, *src),
        Op::Bin { op, lhs, rhs, .. } => {
            // Canonicalize commutative operand order.
            let (a, b) = if op.is_commutative() && format!("{rhs:?}") < format!("{lhs:?}") {
                (*rhs, *lhs)
            } else {
                (*lhs, *rhs)
            };
            ExprKey::Bin(*op, a, b)
        }
        Op::Select {
            cond,
            on_true,
            on_false,
            ..
        } => ExprKey::Select(*cond, *on_true, *on_false),
        Op::LoadSlot { slot, .. } => ExprKey::LoadSlot(slot.0),
        Op::LoadIdx { slot, index, .. } => ExprKey::LoadIdx(slot.0, *index),
        Op::LoadGlobal { global, .. } => ExprKey::LoadGlobal(global.0),
        Op::LoadGIdx { global, index, .. } => ExprKey::LoadGIdx(global.0, *index),
        Op::Call { callee, args, .. } if pure_funcs.get(callee.index()) == Some(&true) => {
            ExprKey::PureCall(callee.0, args.clone())
        }
        _ => return None,
    })
}

fn is_load_key(k: &ExprKey) -> bool {
    matches!(
        k,
        ExprKey::LoadSlot(_)
            | ExprKey::LoadIdx(..)
            | ExprKey::LoadGlobal(_)
            | ExprKey::LoadGIdx(..)
    )
}

/// Runs block-local CSE over every function.
pub fn run(module: &mut Module, _config: &PassConfig) {
    let pure_funcs: Vec<bool> = module.funcs.iter().map(|f| f.attrs.pure_const).collect();
    for f in &mut module.funcs {
        cse_function(f, &pure_funcs);
    }
}

fn cse_function(f: &mut Function, pure_funcs: &[bool]) {
    for bi in 0..f.blocks.len() {
        if f.blocks[bi].dead {
            continue;
        }
        let mut avail: HashMap<ExprKey, VReg> = HashMap::new();
        for inst in &mut f.blocks[bi].insts {
            if inst.op.is_dbg() {
                continue;
            }
            // Kill memory-dependent entries on writes/calls/I-O.
            match inst.op.mem_effect() {
                MemEffect::WriteSlot(s) => {
                    avail.retain(|k, _| !matches!(k, ExprKey::LoadSlot(x) | ExprKey::LoadIdx(x, _) if *x == s.0));
                }
                MemEffect::WriteGlobal(g) => {
                    avail.retain(|k, _| !matches!(k, ExprKey::LoadGlobal(x) | ExprKey::LoadGIdx(x, _) if *x == g.0));
                }
                MemEffect::Call(callee) => {
                    if pure_funcs.get(callee.index()) != Some(&true) {
                        avail.retain(|k, _| !is_load_key(k) && !matches!(k, ExprKey::PureCall(..)));
                    }
                }
                MemEffect::Io
                | MemEffect::None
                | MemEffect::ReadSlot(_)
                | MemEffect::ReadGlobal(_) => {}
            }

            let key = key_of(&inst.op, pure_funcs);
            let def = inst.op.def();

            if let (Some(key), Some(dst)) = (key.clone(), def) {
                if let Some(&prior) = avail.get(&key) {
                    if prior != dst {
                        inst.op = Op::Copy {
                            dst,
                            src: Value::Reg(prior),
                        };
                    }
                }
            }

            // A redefined register invalidates every entry mentioning it.
            if let Some(d) = def {
                avail.retain(|k, v| {
                    if *v == d {
                        return false;
                    }
                    let mut mentions = false;
                    let probe = |val: &Value| {
                        if *val == Value::Reg(d) {
                            return true;
                        }
                        false
                    };
                    match k {
                        ExprKey::Un(_, a) => mentions |= probe(a),
                        ExprKey::Bin(_, a, b) => {
                            mentions |= probe(a) || probe(b);
                        }
                        ExprKey::Select(a, b, c) => {
                            mentions |= probe(a) || probe(b) || probe(c);
                        }
                        ExprKey::LoadIdx(_, a) | ExprKey::LoadGIdx(_, a) => mentions |= probe(a),
                        ExprKey::PureCall(_, args) => {
                            mentions |= args.iter().any(probe);
                        }
                        _ => {}
                    }
                    !mentions
                });
                // Record the new expression (after invalidation).
                if let Some(key) = key_of(&inst.op, pure_funcs) {
                    avail.insert(key, d);
                }
                let _ = d;
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
        crate::opt::ipa_pure_const::run(&mut m, &cfg);
        crate::opt::instcombine::run(&mut m, &cfg);
        run(&mut m, &cfg);
        crate::opt::instcombine::run(&mut m, &cfg);
        crate::opt::dce::run(&mut m, &cfg);
        dt_ir::verify_module(&m).unwrap();
        m
    }

    fn count_binops(m: &Module, op: dt_ir::BinOp) -> usize {
        m.funcs
            .iter()
            .flat_map(|f| f.blocks.iter())
            .flat_map(|b| b.insts.iter())
            .filter(|i| matches!(&i.op, Op::Bin { op: o, .. } if *o == op))
            .count()
    }

    fn check(src: &str, entry: &str, args: &[i64], expected: i64) -> Module {
        let m = pipeline(src);
        let obj = dt_machine::run_backend(&m, &dt_machine::BackendConfig::default());
        let r = dt_vm::Vm::run_to_completion(&obj, entry, args, &[], dt_vm::VmConfig::default())
            .unwrap();
        assert_eq!(r.ret, expected);
        m
    }

    #[test]
    fn duplicate_expression_computed_once() {
        let m = check(
            "int f(int a, int b) { int x = a * b; int y = a * b; return x + y; }",
            "f",
            &[6, 7],
            84,
        );
        assert_eq!(count_binops(&m, dt_ir::BinOp::Mul), 1);
    }

    #[test]
    fn commutative_operands_match() {
        let m = check(
            "int f(int a, int b) { return a * b + b * a; }",
            "f",
            &[3, 5],
            30,
        );
        assert_eq!(count_binops(&m, dt_ir::BinOp::Mul), 1);
    }

    #[test]
    fn redundant_global_loads_merge() {
        let m = check(
            "int g = 5;\nint f() { int a = g; int b = g; return a + b; }",
            "f",
            &[],
            10,
        );
        let loads = m.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i.op, Op::LoadGlobal { .. }))
            .count();
        assert_eq!(loads, 1);
    }

    #[test]
    fn stores_kill_load_availability() {
        check(
            "int g = 5;\nint f() { int a = g; g = 9; int b = g; return a * 100 + b; }",
            "f",
            &[],
            509,
        );
    }

    #[test]
    fn impure_calls_kill_loads() {
        check(
            "int g = 1;\nint bump() { g = g + 1; return 0; }\n\
             int f() { int a = g; bump(); int b = g; return a * 10 + b; }",
            "f",
            &[],
            12,
        );
    }

    #[test]
    fn pure_calls_are_merged() {
        let m = check(
            "int sq(int x) { return x * x; }\n\
             int f(int a) { return sq(a) + sq(a); }",
            "f",
            &[5],
            50,
        );
        let calls = m
            .func_by_name("f")
            .unwrap()
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i.op, Op::Call { .. }))
            .count();
        assert_eq!(calls, 1, "second call to a pure function is CSE'd");
    }

    #[test]
    fn redefinition_invalidates_expressions() {
        check(
            "int f(int a) { int x = a + 1; a = 10; int y = a + 1; return x * 100 + y; }",
            "f",
            &[2],
            311,
        );
    }
}
