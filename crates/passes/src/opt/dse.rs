//! Dead store elimination.
//!
//! Two flavours, as in gcc/LLVM:
//!
//! * **write-only locations**: stores to stack slots that are never
//!   loaded anywhere in the function (and, for globals, never loaded
//!   anywhere in the module) are deleted;
//! * **overwritten stores**: a store followed in the same block by
//!   another store to the same scalar location with no intervening
//!   read or call.
//!
//! Debug cost: the deleted store's source line vanishes from the line
//! table. gcc's Og famously *keeps* stores to write-only user
//! variables (commits f33b9c4/ec8ac26, cited by the paper); the
//! `preserve_var_stores` knob reproduces that behaviour.

use crate::manager::PassConfig;
use dt_ir::{Function, MemEffect, Module, Op};
use std::collections::HashSet;

/// DSE with the Og-style protection for named variables' homes.
pub fn run_preserving(module: &mut Module, config: &PassConfig) {
    run_inner(module, config, true)
}

/// Full DSE (O1 and above).
pub fn run(module: &mut Module, config: &PassConfig) {
    run_inner(module, config, false)
}

fn run_inner(module: &mut Module, _config: &PassConfig, preserve_var_stores: bool) {
    // Globals loaded anywhere in the module.
    let mut loaded_globals: HashSet<u32> = HashSet::new();
    for f in &module.funcs {
        for b in f.block_ids() {
            for inst in &f.block(b).insts {
                match inst.op {
                    Op::LoadGlobal { global, .. } | Op::LoadGIdx { global, .. } => {
                        loaded_globals.insert(global.0);
                    }
                    _ => {}
                }
            }
        }
    }

    for f in &mut module.funcs {
        dse_function(f, &loaded_globals, preserve_var_stores);
    }
}

fn dse_function(f: &mut Function, loaded_globals: &HashSet<u32>, preserve_var_stores: bool) {
    // Slots loaded anywhere in this function.
    let mut loaded_slots: HashSet<u32> = HashSet::new();
    for b in f.block_ids() {
        for inst in &f.block(b).insts {
            match inst.op {
                Op::LoadSlot { slot, .. } | Op::LoadIdx { slot, .. } => {
                    loaded_slots.insert(slot.0);
                }
                _ => {}
            }
        }
    }

    for bi in 0..f.blocks.len() {
        if f.blocks[bi].dead {
            continue;
        }
        let slots = &f.slots;
        let removable_write_only = |op: &Op| -> bool {
            match op {
                Op::StoreSlot { slot, .. } | Op::StoreIdx { slot, .. } => {
                    if loaded_slots.contains(&slot.0) {
                        return false;
                    }
                    if preserve_var_stores && slots[slot.index()].var.is_some() {
                        return false;
                    }
                    true
                }
                Op::StoreGlobal { global, .. } | Op::StoreGIdx { global, .. } => {
                    // Globals escape the function: only remove when the
                    // whole module never reads them (and they are not
                    // observable output in our model).
                    !loaded_globals.contains(&global.0) && !preserve_var_stores
                }
                _ => false,
            }
        };

        // Pass 1: write-only locations.
        f.blocks[bi].insts.retain(|i| !removable_write_only(&i.op));

        // Pass 2: overwritten scalar stores within the block (backward
        // scan tracking pending overwrites).
        let mut pending_slot: HashSet<u32> = HashSet::new();
        let mut pending_global: HashSet<u32> = HashSet::new();
        let mut keep: Vec<bool> = vec![true; f.blocks[bi].insts.len()];
        for (i, inst) in f.blocks[bi].insts.iter().enumerate().rev() {
            match inst.op.mem_effect() {
                MemEffect::WriteSlot(s) => {
                    if matches!(inst.op, Op::StoreSlot { .. }) {
                        if pending_slot.contains(&s.0) {
                            let protected = preserve_var_stores && f.slots[s.index()].var.is_some();
                            if !protected {
                                keep[i] = false;
                                continue;
                            }
                        }
                        pending_slot.insert(s.0);
                    } else {
                        // Indexed store: unknown element, acts as a read
                        // barrier for the whole slot.
                        pending_slot.remove(&s.0);
                    }
                }
                MemEffect::ReadSlot(s) => {
                    pending_slot.remove(&s.0);
                }
                MemEffect::WriteGlobal(g) => {
                    if matches!(inst.op, Op::StoreGlobal { .. }) {
                        if pending_global.contains(&g.0) && !preserve_var_stores {
                            keep[i] = false;
                            continue;
                        }
                        pending_global.insert(g.0);
                    } else {
                        pending_global.remove(&g.0);
                    }
                }
                MemEffect::ReadGlobal(g) => {
                    pending_global.remove(&g.0);
                }
                MemEffect::Call(_) => {
                    // Calls may read anything.
                    pending_slot.clear();
                    pending_global.clear();
                }
                _ => {}
            }
        }
        let mut it = keep.iter();
        f.blocks[bi].insts.retain(|_| *it.next().unwrap());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::PassConfig;

    fn stores(m: &Module, func: &str) -> usize {
        m.func_by_name(func)
            .unwrap()
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| {
                matches!(
                    i.op,
                    Op::StoreSlot { .. }
                        | Op::StoreGlobal { .. }
                        | Op::StoreIdx { .. }
                        | Op::StoreGIdx { .. }
                )
            })
            .count()
    }

    #[test]
    fn write_only_variable_stores_die_at_o1() {
        let src = "int f(int a) { int dead; dead = a * 3; dead = a * 4; return a; }";
        let mut m = dt_frontend::lower_source(src).unwrap();
        run(&mut m, &PassConfig::default());
        assert_eq!(stores(&m, "f"), 1, "only the param home store remains");
    }

    #[test]
    fn og_preserves_writeonly_variable_stores() {
        let src = "int f(int a) { int dead; dead = a * 3; return a; }";
        let mut m = dt_frontend::lower_source(src).unwrap();
        let before = stores(&m, "f");
        run_preserving(&mut m, &PassConfig::default());
        assert_eq!(
            stores(&m, "f"),
            before,
            "Og keeps stores to named variables (gcc f33b9c4)"
        );
    }

    #[test]
    fn overwritten_store_in_block_dies() {
        let src = "int g = 0;\nint f(int a) { g = a; g = a + 1; return g; }";
        let mut m = dt_frontend::lower_source(src).unwrap();
        run(&mut m, &PassConfig::default());
        let global_stores = m.funcs[0]
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i.op, Op::StoreGlobal { .. }))
            .count();
        assert_eq!(global_stores, 1);
        // Semantics preserved.
        let obj = dt_machine::run_backend(&m, &dt_machine::BackendConfig::default());
        let r =
            dt_vm::Vm::run_to_completion(&obj, "f", &[5], &[], dt_vm::VmConfig::default()).unwrap();
        assert_eq!(r.ret, 6);
    }

    #[test]
    fn loads_protect_stores() {
        let src = "int f(int a) { int x = a; int y = x + 1; return y; }";
        let mut m = dt_frontend::lower_source(src).unwrap();
        let before = stores(&m, "f");
        run(&mut m, &PassConfig::default());
        assert_eq!(stores(&m, "f"), before);
    }

    #[test]
    fn calls_are_read_barriers() {
        let src = "int g = 0;\nint peek() { return g; }\n\
                   int f(int a) { g = a; int t = peek(); g = a + 1; return t; }";
        let mut m = dt_frontend::lower_source(src).unwrap();
        run(&mut m, &PassConfig::default());
        let obj = dt_machine::run_backend(&m, &dt_machine::BackendConfig::default());
        let r =
            dt_vm::Vm::run_to_completion(&obj, "f", &[7], &[], dt_vm::VmConfig::default()).unwrap();
        assert_eq!(r.ret, 7, "the first store must survive the call barrier");
    }

    #[test]
    fn indexed_stores_are_not_removed_as_overwrites() {
        let src = "int f() { int a[4]; a[0] = 1; a[1] = 2; return a[0] + a[1]; }";
        let mut m = dt_frontend::lower_source(src).unwrap();
        run(&mut m, &PassConfig::default());
        let obj = dt_machine::run_backend(&m, &dt_machine::BackendConfig::default());
        let r =
            dt_vm::Vm::run_to_completion(&obj, "f", &[], &[], dt_vm::VmConfig::default()).unwrap();
        assert_eq!(r.ret, 3);
    }
}
