//! Lifecycle tests for the persistent on-disk compile cache behind
//! [`EngineBuilder::persistent_cache`]: what survives a process restart,
//! what gets invalidated, and what deliberately does *not* persist.
//!
//! Each test uses its own throwaway directory under the system temp dir
//! (the workspace is dependency-free, so no `tempfile`); a fresh
//! `Engine` against the same directory stands in for "the next process".

use futhark_ad_repro::{Engine, EngineBuilder, PassPipeline, Transform};
use workloads::{gmm, kmeans};

struct TmpDir(std::path::PathBuf);

impl TmpDir {
    fn new(tag: &str) -> TmpDir {
        let dir = std::env::temp_dir().join(format!("fir-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TmpDir(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn engine(dir: &std::path::Path) -> Engine {
    EngineBuilder::new()
        .backend_name("vm-seq")
        .persistent_cache(dir)
        .build()
        .expect("engine with persistent cache")
}

/// A second engine (a stand-in for the next process) against the same
/// directory compiles nothing: the root program and a derived gradient
/// both come off disk, and the loaded programs produce bitwise-identical
/// results.
#[test]
fn a_fresh_engine_loads_instead_of_compiling() {
    let tmp = TmpDir::new("fresh-loads");
    let fun = gmm::objective_ir();
    let args = gmm::GmmData::generate(20, 3, 2, 1).ir_args();

    let first = engine(&tmp.0);
    let cf = first.compile(&fun).unwrap();
    let want = cf.call(&args).unwrap();
    let want_grad = cf.grad(&args).unwrap();
    let s1 = first.cache_stats().persistent.unwrap();
    assert_eq!(s1.hits, 0, "an empty store cannot hit");
    assert!(s1.stores >= 2, "root + vjp must be persisted, got {s1:?}");

    let second = engine(&tmp.0);
    let cf2 = second.compile(&fun).unwrap();
    let got = cf2.call(&args).unwrap();
    let got_grad = cf2.grad(&args).unwrap();
    let stats = second.cache_stats();
    assert_eq!(stats.misses, 0, "warm engine must not compile: {stats}");
    let p = stats.persistent.unwrap();
    assert!(p.hits >= 2, "root + vjp must load from disk, got {p:?}");

    assert_eq!(got[0].as_f64().to_bits(), want[0].as_f64().to_bits());
    assert_eq!(
        got_grad.scalar().to_bits(),
        want_grad.scalar().to_bits(),
        "gradient primal"
    );
    for (a, b) in got_grad.grads.iter().zip(&want_grad.grads) {
        for (x, y) in a.as_arr().f64s().iter().zip(b.as_arr().f64s()) {
            assert_eq!(x.to_bits(), y.to_bits(), "gradient component");
        }
    }
}

/// A stored entry whose format version is from the future is refused,
/// counted as an invalidation, deleted, and transparently replaced by a
/// fresh compile — which the *next* engine then loads.
#[test]
fn format_version_mismatch_recompiles_and_overwrites() {
    let tmp = TmpDir::new("version-bump");
    let fun = kmeans::dense_objective_ir();
    let args = kmeans::KmeansData::generate(30, 3, 4, 2).ir_args();

    let first = engine(&tmp.0);
    let want = first.compile(&fun).unwrap().call(&args).unwrap();

    // Bump the version field of every stored document in place: byte
    // offsets 4..8 of the frame header hold the little-endian format
    // version.
    let mut patched = 0;
    for f in std::fs::read_dir(&tmp.0).unwrap() {
        let path = f.unwrap().path();
        if path.extension().is_some_and(|e| e == "firc") {
            let mut bytes = std::fs::read(&path).unwrap();
            let v = fir_cache::FORMAT_VERSION + 1;
            bytes[4..8].copy_from_slice(&v.to_le_bytes());
            std::fs::write(&path, &bytes).unwrap();
            patched += 1;
        }
    }
    assert!(patched >= 1, "the first engine must have stored entries");

    let second = engine(&tmp.0);
    let got = second.compile(&fun).unwrap().call(&args).unwrap();
    assert_eq!(got[0].as_f64().to_bits(), want[0].as_f64().to_bits());
    let stats = second.cache_stats();
    assert_eq!(stats.misses, 1, "the stale entry must be recompiled");
    let p = stats.persistent.unwrap();
    assert!(p.invalidations >= 1, "version bump must invalidate: {p:?}");
    assert!(p.stores >= 1, "the fresh compile must overwrite: {p:?}");

    // The overwrite is current-format: a third engine loads it.
    let third = engine(&tmp.0);
    third.compile(&fun).unwrap();
    let stats = third.cache_stats();
    assert_eq!(stats.misses, 0, "overwritten entry must load: {stats}");
    assert_eq!(stats.persistent.unwrap().hits, 1);
}

/// Corrupt bytes on disk behave like the version bump: invalidated,
/// deleted, recompiled — never a panic, never a wrong program.
#[test]
fn corrupt_store_files_recompile() {
    let tmp = TmpDir::new("corrupt");
    let fun = gmm::objective_ir();
    engine(&tmp.0).compile(&fun).unwrap();

    for f in std::fs::read_dir(&tmp.0).unwrap() {
        let path = f.unwrap().path();
        if path.extension().is_some_and(|e| e == "firc") {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xff;
            std::fs::write(&path, &bytes).unwrap();
        }
    }

    let second = engine(&tmp.0);
    second.compile(&fun).unwrap();
    let stats = second.cache_stats();
    assert_eq!(stats.misses, 1);
    assert!(stats.persistent.unwrap().invalidations >= 1);
}

/// After the in-memory LRU evicts a program, re-requesting it is a
/// persistent-cache *load*, not a recompilation — the disk tier extends
/// the LRU rather than merely surviving restarts.
#[test]
fn lru_eviction_falls_back_to_disk_not_recompilation() {
    let tmp = TmpDir::new("lru-evict");
    let e = EngineBuilder::new()
        .backend_name("vm-seq")
        .cache_capacity(1)
        .persistent_cache(&tmp.0)
        .build()
        .unwrap();

    let gmm_fun = gmm::objective_ir();
    let km_fun = kmeans::dense_objective_ir();
    e.compile(&gmm_fun).unwrap(); // miss, stored
    e.compile(&km_fun).unwrap(); // miss, stored; evicts gmm
    let before = e.cache_stats();
    assert_eq!((before.misses, before.evictions), (2, 1), "{before}");

    let cf = e.compile(&gmm_fun).unwrap(); // evicted → disk, not a compile
    let after = e.cache_stats();
    assert_eq!(after.misses, 2, "re-request must not recompile: {after}");
    assert_eq!(after.persistent.unwrap().hits, 1, "{after}");
    // And the loaded program runs.
    let args = gmm::GmmData::generate(10, 2, 2, 3).ir_args();
    cf.call(&args).unwrap();
}

/// The pass pipeline is part of the store key: an engine with a
/// different pipeline must not load the other's entries.
#[test]
fn pipeline_config_partitions_the_store() {
    let tmp = TmpDir::new("pipeline-key");
    let fun = gmm::objective_ir();

    engine(&tmp.0).compile(&fun).unwrap();

    let other = EngineBuilder::new()
        .backend_name("vm-seq")
        .pipeline(PassPipeline::none())
        .persistent_cache(&tmp.0)
        .build()
        .unwrap();
    other.compile(&fun).unwrap();
    let stats = other.cache_stats();
    assert_eq!(
        stats.misses, 1,
        "a different pipeline must recompile: {stats}"
    );
    let p = stats.persistent.unwrap();
    assert_eq!((p.hits, p.misses), (0, 1), "{p:?}");
}

/// Tapes are not part of the stored artifact: the codec (unchanged since
/// before tapes existed in `firvm`) writes and reads bytecode only, and
/// `Program::assemble` re-derives the tapes on load. So a warm load costs
/// no compile, and the very first call of the loaded program already runs
/// its kernels as tapes — with the same dispatch counts, and the same
/// bits, as the engine that compiled it.
#[test]
fn loaded_programs_run_tapes_from_their_first_call() {
    let tmp = TmpDir::new("tapes-on-load");
    let fun = gmm::objective_ir();
    let args = gmm::GmmData::generate(10, 2, 2, 4).ir_args();

    let first = engine(&tmp.0);
    let want = first.compile(&fun).unwrap().call(&args).unwrap();
    let compiled = first.cache_stats().tier.unwrap();
    assert_eq!(compiled.promotions, 1, "GMM has kernels that lower");
    assert!(compiled.jit_hits > 0);

    let second = engine(&tmp.0);
    let cf = second.compile(&fun).unwrap();
    let stats = second.cache_stats();
    assert_eq!(stats.misses, 0, "must load from disk: {stats}");
    assert_eq!(stats.persistent.unwrap().hits, 1, "{stats}");
    let loaded = stats.tier.unwrap();
    assert_eq!(
        (loaded.promotions, loaded.jit_hits, loaded.fallbacks),
        (1, 0, 0),
        "the loaded program has its tapes before it has run"
    );
    let got = cf.call(&args).unwrap();
    assert_eq!(want[0].as_f64().to_bits(), got[0].as_f64().to_bits());
    assert_eq!(
        second.cache_stats().tier.unwrap(),
        compiled,
        "first call after a load dispatches exactly like first call after a compile"
    );
}

/// Derived transforms hit the persistent cache without paying the
/// derivation: a fresh engine asking for `vmap(vjp(f))` of a cached
/// function loads both the root and the derived program from disk.
#[test]
fn derived_transform_stacks_persist() {
    let tmp = TmpDir::new("derived-stack");
    let fun = kmeans::dense_objective_ir();

    let first = engine(&tmp.0);
    let cf = first.compile(&fun).unwrap();
    cf.transform(&[Transform::Vjp, Transform::Vmap]).unwrap();

    let second = engine(&tmp.0);
    let cf2 = second.compile(&fun).unwrap();
    cf2.transform(&[Transform::Vjp, Transform::Vmap]).unwrap();
    let stats = second.cache_stats();
    assert_eq!(stats.misses, 0, "stacked transform must load: {stats}");
    assert!(
        stats.persistent.unwrap().hits >= 2,
        "root + [vjp,vmap] must both come off disk: {stats}"
    );
}
