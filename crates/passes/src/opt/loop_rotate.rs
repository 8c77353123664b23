//! Loop rotation / header copying (clang `LoopRotate`, gcc `tree-ch`).
//!
//! Turns top-tested loops into bottom-tested ones by cloning the
//! header's (pure) condition computation into the latch: the original
//! header degenerates into a one-time guard, and each iteration tests
//! at the bottom, saving the latch→header jump and giving layout a
//! natural fallthrough.
//!
//! Debug policy: the cloned condition keeps its source line (the loop
//! line legitimately executes at the bottom now), but debug pseudos in
//! the clone are dropped — LLVM does exactly this when it clones
//! header code.

use crate::manager::PassConfig;
use dt_ir::{DomTree, Function, LoopForest, Module, Terminator};

/// Rotates every eligible loop.
pub fn run(module: &mut Module, _config: &PassConfig) {
    for f in &mut module.funcs {
        // One rotation round (re-running on rotated loops is a no-op:
        // their headers are no longer branch-terminated).
        let dom = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dom);
        for l in &forest.loops {
            rotate(f, l);
        }
    }
}

fn rotate(f: &mut Function, l: &dt_ir::Loop) {
    let header = l.header;
    // Single-latch loops with a branch-terminated, pure header.
    if l.latches.len() != 1 {
        return;
    }
    let latch = l.latches[0];
    if latch == header {
        return; // self-loop is already bottom-tested
    }
    let Terminator::Branch {
        cond,
        then_bb,
        else_bb,
        prob_then,
    } = f.block(header).term.clone()
    else {
        return; // already rotated or irregular
    };
    // One successor in the loop, one out.
    let (in_loop, _out) = match (l.contains(then_bb), l.contains(else_bb)) {
        (true, false) => (then_bb, else_bb),
        (false, true) => (else_bb, then_bb),
        _ => return,
    };
    if !f
        .block(header)
        .insts
        .iter()
        .all(|i| i.op.is_pure() || i.op.is_dbg())
    {
        return;
    }
    // The latch must currently jump straight to the header.
    if !matches!(f.block(latch).term, Terminator::Jump(t) if t == header) {
        return;
    }
    let _ = in_loop;

    // Clone the header's real instructions into a new bottom-test
    // block. Clone-private temporaries are renamed to fresh registers
    // so the clone does not stretch their live ranges over the loop.
    let mut cloned: Vec<dt_ir::Inst> = f
        .block(header)
        .insts
        .iter()
        .filter(|i| !i.op.is_dbg())
        .cloned()
        .collect();
    let header_set: std::collections::HashSet<dt_ir::BlockId> = [header].into_iter().collect();
    let keep = crate::opt::util::regs_escaping(f, &header_set);
    let map = crate::opt::util::rename_clone_defs(f, &mut cloned, &keep);
    let cond = match cond {
        dt_ir::Value::Reg(r) => dt_ir::Value::Reg(map.get(&r).copied().unwrap_or(r)),
        c => c,
    };
    let bottom = f.new_block(Terminator::Branch {
        cond,
        then_bb,
        else_bb,
        prob_then,
    });
    f.block_mut(bottom).insts = cloned;
    f.block_mut(bottom).term_line = f.block(header).term_line;
    f.block_mut(latch).term = Terminator::Jump(bottom);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PassConfig;

    fn pipeline(src: &str, rotate: bool) -> Module {
        let mut m = dt_frontend::lower_source(src).unwrap();
        let cfg = PassConfig::default();
        crate::opt::mem2reg::run(&mut m, &cfg);
        crate::opt::instcombine::run(&mut m, &cfg);
        if rotate {
            run(&mut m, &cfg);
        }
        crate::opt::branch_prob::run(&mut m, &cfg);
        dt_ir::verify_module(&m).unwrap();
        m
    }

    fn cycles(m: &Module, args: &[i64], expected: i64) -> u64 {
        // Rotation pays off in concert with probability-guided layout
        // (as in real compilers), so measure with layout enabled.
        let backend = dt_machine::BackendConfig {
            layout: true,
            ..Default::default()
        };
        let obj = dt_machine::run_backend(m, &backend);
        let r =
            dt_vm::Vm::run_to_completion(&obj, "f", args, &[], dt_vm::VmConfig::default()).unwrap();
        assert_eq!(r.ret, expected);
        r.cycles
    }

    const LOOP: &str =
        "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }";

    #[test]
    fn rotation_preserves_semantics() {
        let m = pipeline(LOOP, true);
        cycles(&m, &[10], 45);
        cycles(&m, &[0], 0);
        cycles(&m, &[1], 0);
    }

    #[test]
    fn rotation_saves_cycles_on_hot_loops() {
        let plain = cycles(&pipeline(LOOP, false), &[200], 199 * 200 / 2);
        let rotated = cycles(&pipeline(LOOP, true), &[200], 199 * 200 / 2);
        assert!(
            rotated < plain,
            "bottom-testing must save the latch jump ({rotated} vs {plain})"
        );
    }

    #[test]
    fn clones_drop_debug_pseudos() {
        let m = pipeline(LOOP, true);
        let f = &m.funcs[0];
        // The bottom-test block is the newest block; it must carry no
        // debug pseudos.
        let bottom = f.blocks.last().unwrap();
        assert!(bottom.insts.iter().all(|i| !i.op.is_dbg()));
        assert!(!bottom.insts.is_empty(), "the cloned test lives here");
    }

    #[test]
    fn zero_trip_loops_still_skip_the_body() {
        let src =
            "int f(int n) { int hits = 0; while (n > 100) { hits = 1; n = 0; } return hits; }";
        let m = pipeline(src, true);
        cycles(&m, &[5], 0);
        cycles(&m, &[500], 1);
    }

    #[test]
    fn impure_headers_are_not_rotated() {
        // The header condition performs I/O: cloning it would double
        // the side effect.
        let src = "int f() { int k = 0; while (in(k) >= 0) { k++; } return k; }";
        let before = pipeline(src, false);
        let after = pipeline(src, true);
        assert_eq!(before.funcs[0].blocks.len(), after.funcs[0].blocks.len());
        let obj = dt_machine::run_backend(&after, &dt_machine::BackendConfig::default());
        let r =
            dt_vm::Vm::run_to_completion(&obj, "f", &[], &[1, 2, 3], dt_vm::VmConfig::default())
                .unwrap();
        assert_eq!(r.ret, 3);
    }
}
