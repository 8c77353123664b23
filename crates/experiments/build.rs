//! Emits `DT_CODE_HASH`: a 64-bit FNV-1a hash of every workspace
//! library source file (`crates/*/src/**/*.rs`), sorted by path. The
//! campaign folds it into its cache salt, so editing a pass body, a
//! metric, the VM or the checker invalidates every cached experiment.

use std::fs;
use std::path::{Path, PathBuf};

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").unwrap());
    let crates = manifest.parent().expect("crates/ directory");
    println!("cargo:rerun-if-changed={}", crates.display());

    let mut files = Vec::new();
    for krate in fs::read_dir(crates).expect("read crates/").flatten() {
        collect_rs(&krate.path().join("src"), &mut files);
    }
    let mut keyed: Vec<(String, PathBuf)> = files
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(crates).unwrap().to_string_lossy();
            (rel.replace('\\', "/"), p)
        })
        .collect();
    keyed.sort();

    let mut h = FNV_OFFSET;
    for (rel, path) in &keyed {
        h = fnv(h, rel.as_bytes());
        h = fnv(h, &[0xff]);
        h = fnv(h, &fs::read(path).expect("read source file"));
        h = fnv(h, &[0xfe]);
    }
    println!("cargo:rustc-env=DT_CODE_HASH={h:016x}");
}
