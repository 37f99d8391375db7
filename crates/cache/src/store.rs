//! The on-disk store: a directory of framed cache entries keyed by
//! compilation identity.
//!
//! An entry's identity is the [`StoreKey`]: the structural fingerprint of
//! the **root** source function, the canonical transform-stack string
//! (`""` for the root, `"vjp,vmap"` for derivatives), the canonical
//! pipeline description, and the backend name. The format version is
//! deliberately *not* part of the file name — a build with a newer codec
//! finds the old file under the same name, fails its version check, and
//! recompiles **over** the stale entry instead of leaking it forever.
//!
//! Each entry also records [`COMPILER_REVISION`], a hash of the sources
//! of the IR, AD, the optimizer and the bytecode compiler taken at build
//! time. The pipeline key names the passes, not what they emit, so a
//! build whose compiler changed treats an entry written by another build
//! like a stale format version: an invalidation, then a recompile over it.
//!
//! Writes are atomic: the entry is written to a unique temp file in the
//! cache directory and `rename`d into place, so concurrent servers
//! sharing one cache directory can never observe a torn write — a reader
//! sees either the complete old entry, the complete new one, or (worst
//! case, mid-rename on a non-POSIX filesystem) a decode failure that is
//! handled as a miss.
//!
//! What is stored: the entry's source [`Fun`] (the already-derived IR for
//! transform entries, so loading a gradient skips re-deriving it), the
//! optimized IR (when the pipeline changed it), and the compiled
//! [`Program`]'s bytecode. What is *not* stored: the program's tapes —
//! `Program::assemble` re-derives them from the bytecode on load.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use fir::ir::Fun;
use firvm::Program;

use crate::codec::{
    emit_fun, emit_program, finish, fnv1a, open_frame, read_fun, read_program, CacheError, Writer,
};

/// The revision of the compiler that wrote an entry: a hash of the
/// sources of `fir`, `core`, `fir-opt` and `firvm` (see `build.rs`).
pub const COMPILER_REVISION: &str = env!("FIR_COMPILER_REVISION");

/// The identity of one cache entry. Two compilations share an entry
/// exactly when every field matches (the format version is checked
/// separately, inside the file).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreKey<'a> {
    /// Structural fingerprint pair of the root source function.
    pub fingerprint: (u64, u64),
    /// Canonical transform-stack string (`""`, `"vjp"`, `"vjp,vmap"`, ...).
    pub transforms: &'a str,
    /// Canonical pipeline description (pass names + iteration bound).
    pub pipeline: &'a str,
    /// Backend name the program was prepared for.
    pub backend: &'a str,
}

impl StoreKey<'_> {
    /// The entry's file name: two salted FNV-64 hashes of the key fields,
    /// 32 hex digits. The key is also echoed *inside* the entry and
    /// verified on load, so a (vanishingly unlikely) file-name collision
    /// degrades to a recompile, never to serving the wrong program.
    fn file_name(&self) -> String {
        let mut w = Writer::default();
        w.u64(self.fingerprint.0);
        w.u64(self.fingerprint.1);
        w.str(self.transforms);
        w.str(self.pipeline);
        w.str(self.backend);
        let payload = w.frame();
        let lo = fnv1a(&payload);
        let mut salted = vec![0x9e];
        salted.extend_from_slice(&payload);
        let hi = fnv1a(&salted);
        format!("{hi:016x}{lo:016x}.firc")
    }
}

/// One decoded cache entry: everything the engine needs to rebuild its
/// in-memory state without typechecking, deriving, optimizing, or
/// compiling.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedEntry {
    /// The (possibly transform-derived) source IR of this entry.
    pub source: Fun,
    /// The optimized IR, or `None` when the pipeline left the source
    /// unchanged (the common case for already-minimal kernels).
    pub optimized: Option<Fun>,
    /// The compiled bytecode.
    pub program: Program,
}

/// Counters for the persistent tier, surfaced through the engine's
/// `CacheStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PersistentStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups that found no entry on disk.
    pub misses: u64,
    /// Entries written to disk.
    pub stores: u64,
    /// Entries found on disk but rejected (stale format version, corrupt
    /// bytes, key mismatch) and deleted.
    pub invalidations: u64,
}

/// A persistent program store rooted at one directory. Cheap to share
/// behind an `Arc`; safe to point several processes at the same
/// directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    seq: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    invalidations: AtomicU64,
}

impl Store {
    /// Open (creating if necessary) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Store {
            dir,
            seq: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        })
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Look up `key`. A missing file counts as a miss; a present but
    /// unreadable entry (stale format version, corrupt payload, key-echo
    /// mismatch) counts as an invalidation and is deleted so the
    /// recompile that follows can overwrite it cleanly.
    pub fn load(&self, key: &StoreKey<'_>) -> Option<CachedEntry> {
        let path = self.dir.join(key.file_name());
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_entry(&bytes, key) {
            Ok(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            Err(_) => {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
                let _ = fs::remove_file(&path);
                None
            }
        }
    }

    /// Write `entry` under `key`, atomically (temp file + rename), so a
    /// concurrent reader in another process never sees a torn entry.
    pub fn store(&self, key: &StoreKey<'_>, entry: &CachedEntry) -> io::Result<()> {
        let bytes = encode_entry(key, entry);
        let unique = self.seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".tmp-{}-{unique}", std::process::id()));
        fs::write(&tmp, &bytes)?;
        let path = self.dir.join(key.file_name());
        match fs::rename(&tmp, &path) {
            Ok(()) => {
                self.stores.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Delete `key`'s entry (used when a caller discovers a mismatch the
    /// store itself cannot see). Counts as an invalidation if a file was
    /// actually removed.
    pub fn invalidate(&self, key: &StoreKey<'_>) {
        if fs::remove_file(self.dir.join(key.file_name())).is_ok() {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> PersistentStats {
        PersistentStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

/// Encode an entry (with its key echoed into the payload) as one framed
/// document.
pub fn encode_entry(key: &StoreKey<'_>, entry: &CachedEntry) -> Vec<u8> {
    encode_entry_at(key, entry, COMPILER_REVISION)
}

fn encode_entry_at(key: &StoreKey<'_>, entry: &CachedEntry, revision: &str) -> Vec<u8> {
    let mut w = Writer::default();
    w.u64(key.fingerprint.0);
    w.u64(key.fingerprint.1);
    w.str(key.transforms);
    w.str(key.pipeline);
    w.str(key.backend);
    w.str(revision);
    let source_fp = firvm::fingerprint_pair(&entry.source);
    w.u64(source_fp.0);
    w.u64(source_fp.1);
    emit_fun(&mut w, &entry.source);
    match &entry.optimized {
        None => w.bool(false),
        Some(f) => {
            w.bool(true);
            emit_fun(&mut w, f);
        }
    }
    emit_program(&mut w, &entry.program);
    w.frame()
}

/// Decode an entry, verifying the frame (magic, version, checksum), the
/// key echo against `key`, the compiler revision, and the stored source fingerprint against a
/// recomputed one. The decoded program is structurally validated by the
/// codec, so anything this returns is safe to hand to the VM.
pub fn decode_entry(bytes: &[u8], key: &StoreKey<'_>) -> Result<CachedEntry, CacheError> {
    let mut r = open_frame(bytes)?;
    let echo_fp = (r.u64()?, r.u64()?);
    let echo_transforms = r.str()?;
    let echo_pipeline = r.str()?;
    let echo_backend = r.str()?;
    if r.str()? != COMPILER_REVISION {
        return Err(CacheError::Malformed {
            what: "entry was written by another compiler revision".to_string(),
        });
    }
    if echo_fp != key.fingerprint
        || echo_transforms != key.transforms
        || echo_pipeline != key.pipeline
        || echo_backend != key.backend
    {
        return Err(CacheError::Malformed {
            what: "entry key does not match the requested key".to_string(),
        });
    }
    let source_fp = (r.u64()?, r.u64()?);
    let source = read_fun(&mut r)?;
    if firvm::fingerprint_pair(&source) != source_fp {
        return Err(CacheError::Malformed {
            what: "stored source fingerprint does not match its IR".to_string(),
        });
    }
    let optimized = if r.bool()? {
        Some(read_fun(&mut r)?)
    } else {
        None
    };
    let program = read_program(&mut r)?;
    finish(&r)?;
    Ok(CachedEntry {
        source,
        optimized,
        program,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::builder::Builder;
    use fir::types::Type;

    fn square() -> Fun {
        let mut b = Builder::new();
        b.build_fun("square", &[Type::F64], |b, ps| {
            vec![b.fmul(ps[0].into(), ps[0].into())]
        })
    }

    fn tmp_store(tag: &str) -> Store {
        let dir =
            std::env::temp_dir().join(format!("fir-cache-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Store::open(dir).unwrap()
    }

    fn entry_for(f: &Fun) -> CachedEntry {
        CachedEntry {
            source: f.clone(),
            optimized: None,
            program: firvm::compile(f),
        }
    }

    #[test]
    fn store_then_load_round_trips() {
        let store = tmp_store("roundtrip");
        let f = square();
        let key = StoreKey {
            fingerprint: firvm::fingerprint_pair(&f),
            transforms: "",
            pipeline: "none@1",
            backend: "firvm",
        };
        assert!(store.load(&key).is_none(), "empty store must miss");
        store.store(&key, &entry_for(&f)).unwrap();
        let back = store.load(&key).expect("stored entry must load");
        assert_eq!(back.source, f);
        assert_eq!(back.program, firvm::compile(&f));
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.stores, s.invalidations), (1, 1, 1, 0));
    }

    #[test]
    fn key_fields_partition_the_store() {
        let store = tmp_store("partition");
        let f = square();
        let fp = firvm::fingerprint_pair(&f);
        let root = StoreKey {
            fingerprint: fp,
            transforms: "",
            pipeline: "std@8",
            backend: "firvm",
        };
        store.store(&root, &entry_for(&f)).unwrap();
        for other in [
            StoreKey {
                transforms: "vjp",
                ..root
            },
            StoreKey {
                pipeline: "std@4",
                ..root
            },
            StoreKey {
                backend: "interp",
                ..root
            },
            StoreKey {
                fingerprint: (fp.0 ^ 1, fp.1),
                ..root
            },
        ] {
            assert!(
                store.load(&other).is_none(),
                "{other:?} must not alias the root entry"
            );
        }
        assert!(store.load(&root).is_some());
    }

    #[test]
    fn corrupt_and_stale_entries_invalidate_and_are_deleted() {
        let store = tmp_store("corrupt");
        let f = square();
        let key = StoreKey {
            fingerprint: firvm::fingerprint_pair(&f),
            transforms: "",
            pipeline: "none@1",
            backend: "firvm",
        };
        store.store(&key, &entry_for(&f)).unwrap();

        // Flip one payload byte on disk: the load must reject, count an
        // invalidation, and delete the file so the next lookup is a miss.
        let path = fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "firc"))
            .unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x55;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(&key).is_none());
        assert!(!path.exists(), "corrupt entry must be deleted");
        assert!(store.load(&key).is_none(), "then it's a plain miss");
        let s = store.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.misses, 1);

        // A future format version under the same name is likewise
        // invalidated (version is not part of the file name by design).
        store.store(&key, &entry_for(&f)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = 0xfe;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(&key).is_none());
        assert_eq!(store.stats().invalidations, 2);
    }

    #[test]
    fn entries_of_another_compiler_revision_invalidate_then_hit() {
        let store = tmp_store("revision");
        let f = square();
        let key = StoreKey {
            fingerprint: firvm::fingerprint_pair(&f),
            transforms: "",
            pipeline: "std@8",
            backend: "firvm",
        };
        // A directory another build wrote: same key, same format version.
        let stale = encode_entry_at(&key, &entry_for(&f), "another revision");
        fs::write(store.dir().join(key.file_name()), stale).unwrap();
        assert!(
            store.load(&key).is_none(),
            "another revision is never served"
        );
        assert_eq!(store.stats().invalidations, 1);
        store.store(&key, &entry_for(&f)).unwrap();
        assert!(store.load(&key).is_some(), "the recompiled entry hits");
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 0, 1));
    }

    #[test]
    fn optimized_ir_travels_when_present() {
        let store = tmp_store("optimized");
        let f = square();
        let mut opt = f.clone();
        opt.name = "square_optimized".to_string();
        let key = StoreKey {
            fingerprint: firvm::fingerprint_pair(&f),
            transforms: "",
            pipeline: "std@8",
            backend: "firvm",
        };
        let entry = CachedEntry {
            source: f.clone(),
            optimized: Some(opt.clone()),
            program: firvm::compile(&opt),
        };
        store.store(&key, &entry).unwrap();
        let back = store.load(&key).unwrap();
        assert_eq!(
            back.optimized.as_ref().map(|f| f.name.as_str()),
            Some("square_optimized")
        );
        assert_eq!(back, entry);
    }
}
