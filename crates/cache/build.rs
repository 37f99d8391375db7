//! Hashes the sources of the compiler — the IR, AD, the optimizer and the
//! bytecode compiler — into `FIR_COMPILER_REVISION`. Every cache entry
//! records it, so an entry written by a build that compiled differently
//! is invalidated on load instead of served. FNV-1a over the sorted
//! relative paths and contents; no dependencies.

use std::path::{Path, PathBuf};

/// A revision that could not read the sources would be a constant, and
/// entries of every compiler would hit: fail the build instead.
fn unreadable(path: &Path, e: std::io::Error) -> ! {
    panic!("cannot hash compiler source {}: {e}", path.display())
}

fn files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| unreadable(dir, e));
    for entry in entries {
        let path = entry.unwrap_or_else(|e| unreadable(dir, e)).path();
        if path.is_dir() {
            files(&path, out);
        } else {
            out.push(path);
        }
    }
}

fn main() {
    let crates = Path::new(&std::env::var("CARGO_MANIFEST_DIR").unwrap()).join("..");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for krate in ["fir", "core", "opt", "firvm"] {
        let dir = crates.join(krate).join("src");
        println!("cargo:rerun-if-changed={}", dir.display());
        let mut paths = Vec::new();
        files(&dir, &mut paths);
        paths.sort();
        for path in paths {
            let rel = path.strip_prefix(&crates).unwrap_or(&path);
            eat(rel.to_string_lossy().as_bytes());
            eat(&std::fs::read(&path).unwrap_or_else(|e| unreadable(&path, e)));
        }
    }
    println!("cargo:rustc-env=FIR_COMPILER_REVISION={h:016x}");
}
