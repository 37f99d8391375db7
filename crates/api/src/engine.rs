//! The staged engine: compile once, derive transforms lazily, execute hot.
//!
//! [`Engine`] owns a backend, a structural-fingerprint cache of compiled
//! functions, and a configurable [`PassPipeline`]. [`Engine::compile`]
//! type-checks up front and returns a [`CompiledFn`]; from that handle any
//! stack of [`Transform`]s ([`CompiledFn::transform`], with the fluent
//! sugar [`CompiledFn::vjp`] / [`CompiledFn::jvp`] / [`CompiledFn::vmap`]
//! / [`CompiledFn::hessian`]) derives a new program from the pre-pipeline
//! source, compiled through the same cache and shared by every handle of
//! the same `(source fingerprint, transform stack)`. Execution is
//! fallible end to end and batched calls amortize dispatch across the
//! persistent worker pool.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard};

use fir::ir::Fun;
use fir::types::Type;
use firvm::fingerprint_pair;
use interp::{arena, validate_args, Array, Backend, Executable, Value, WorkerPool};

use crate::error::FirError;
use crate::pipeline::{PassPipeline, PipelineStats};
use crate::registry;
use crate::transform::Transform;

/// A structural fingerprint (see [`firvm::fingerprint_pair`]).
type Fingerprint = (u64, u64);

/// The identity of a program within an engine: the *root* source
/// fingerprint plus the transform stack applied to it (empty for the root
/// itself). It keys the alias index and — with the stack rendered by
/// [`stack_key`] — the persistent store.
type StackId = (Fingerprint, Vec<Transform>);

/// The canonical transform-stack string of a persistent-store key:
/// transform names in application order, comma-joined (`"vjp,vmap"`).
fn stack_key(stack: &[Transform]) -> String {
    stack.iter().map(|t| t.name()).collect::<Vec<_>>().join(",")
}

// ---------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------

/// A compilation and execution engine: a backend, a pass pipeline, and a
/// cache of compiled functions keyed by structural fingerprint.
///
/// Engines are cheap to clone (clones share the backend and the cache) and
/// safe to share across threads.
#[derive(Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

struct EngineInner {
    backend: Arc<dyn Backend>,
    pipeline: PassPipeline,
    /// All cache state behind one lock. Critical sections are map
    /// operations only: typecheck, derivation, the pass pipeline,
    /// `backend.prepare`, disk I/O and trace events all happen outside it.
    cache: Mutex<Cache>,
    opt: Mutex<OptStats>,
    /// The on-disk compile cache ([`EngineBuilder::persistent_cache`]):
    /// consulted after an in-memory miss, before any typecheck/derive/
    /// optimize/prepare work, and written back after every compile. A
    /// persistent hit rebuilds the in-memory entry from disk without
    /// counting as an engine hit *or* miss — `misses` keeps meaning
    /// "compilations actually performed".
    persistent: Option<Arc<fir_cache::Store>>,
}

impl EngineInner {
    fn cache(&self) -> MutexGuard<'_, Cache> {
        self.cache
            .lock()
            .expect("a thread panicked inside an engine-cache map operation")
    }
}

/// One compiled function in the engine cache: the optimized IR and the
/// backend-prepared executable.
///
/// Deliberately *not* home to any derived-transform handle: a
/// `CompiledFn` holds an `Arc<EngineInner>`, so storing one inside the
/// cache the engine owns would create a strong reference cycle and leak
/// the engine (and every cached program) forever. Derived programs are
/// ordinary cache entries under their own `(fingerprint, stack)` key; a
/// `CompiledFn` returned by [`CompiledFn::transform`] keeps its entry
/// alive by `Arc` even after the cache evicts it.
#[derive(Clone)]
struct CacheEntry {
    /// The function as compiled (pre-pipeline). AD transforms derive from
    /// this, so the derived IR — and therefore every gradient — is
    /// identical whatever pipeline the engine runs; the pipeline is applied
    /// to the *derived* function when it compiles in turn.
    source: Arc<Fun>,
    /// The pipeline-optimized IR the executable was prepared from.
    fun: Arc<Fun>,
    exec: Arc<dyn Executable>,
    /// The buffer plan, on engines whose pipeline runs [`crate::Pass::MemPlan`]:
    /// executions open a per-invocation arena scope sized to it. The
    /// reservation is returned ([`arena::release_slots`]) when the last
    /// reference — cache slot or [`CompiledFn`] handle — drops.
    plan: Option<Arc<PlanInfo>>,
}

/// The memory plan of a compiled program: how many arena buffer slots its
/// executions may retain between invocations (see
/// [`fir_opt::BufferPlan`]). Holds the global slot reservation for its
/// lifetime.
struct PlanInfo {
    slots: usize,
}

impl Drop for PlanInfo {
    fn drop(&mut self) {
        arena::release_slots(self.slots);
    }
}

/// The default bound of the engine's compiled-program cache (see
/// [`EngineBuilder::cache_capacity`]).
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// The engine's cache state: a bounded fingerprint → program map with
/// least-recently-used eviction, the alias index over it, and the counters
/// [`Engine::cache_stats`] reports — one struct behind one lock, so every
/// reading of it is consistent. Recency is a monotonic use tick per slot;
/// eviction scans for the minimum, which is O(entries) but only runs when
/// the cache is full (and serving deployments keep the capacity small by
/// design — a handful of registered programs plus their derived
/// transforms).
struct Cache {
    map: HashMap<Fingerprint, LruSlot>,
    /// Derived-program index: `(root source fingerprint, transform
    /// stack)` → the fingerprint of the derived function. Running a
    /// transform (re-deriving a whole `vjp`, say) just to discover that
    /// the result is already compiled would make every `grad` call pay
    /// the derivation; this index answers the hot path with two hash
    /// lookups instead. Entries are a few words each; aliases whose
    /// target program is LRU-evicted are dropped with it (see
    /// [`Cache::install`]), so the index stays proportional to the live
    /// cache — a re-requested stack just re-derives and re-aliases.
    aliases: HashMap<StackId, Fingerprint>,
    capacity: usize,
    tick: u64,
    evictions: usize,
    hits: usize,
    misses: usize,
}

struct LruSlot {
    entry: CacheEntry,
    last_used: u64,
}

impl Cache {
    fn new(capacity: usize) -> Cache {
        Cache {
            map: HashMap::new(),
            aliases: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            evictions: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Count a hit on `key` and mark it most-recently-used.
    fn touch(&mut self, key: &Fingerprint) -> Option<CacheEntry> {
        let slot = self.map.get_mut(key)?;
        self.tick += 1;
        slot.last_used = self.tick;
        self.hits += 1;
        Some(slot.entry.clone())
    }

    /// Look up `key`, aliasing a hit to `id` (a derived program found by
    /// its fingerprint had lost, or never had, its alias).
    fn lookup(&mut self, key: &Fingerprint, id: &StackId) -> Option<CacheEntry> {
        let entry = self.touch(key)?;
        self.alias(id, *key);
        Some(entry)
    }

    /// Look up the program `id` is aliased to.
    fn lookup_alias(&mut self, id: &StackId) -> Option<CacheEntry> {
        let key = *self.aliases.get(id)?;
        self.touch(&key)
    }

    /// Root programs are found by their own fingerprint; only derived
    /// ones (non-empty stack) need the index.
    fn alias(&mut self, id: &StackId, key: Fingerprint) {
        if !id.1.is_empty() {
            self.aliases.insert(id.clone(), key);
        }
    }

    /// Insert `entry` under `key` and alias it to `id`, evicting
    /// least-recently-used slots while the cache is over capacity. If
    /// another thread inserted the same key meanwhile, the first entry
    /// wins (so the executable stays shared) and is returned.
    fn install(&mut self, key: Fingerprint, entry: CacheEntry, id: &StackId) -> CacheEntry {
        self.tick += 1;
        let t = self.tick;
        let kept = self
            .map
            .entry(key)
            .and_modify(|slot| slot.last_used = t)
            .or_insert(LruSlot {
                entry,
                last_used: t,
            })
            .entry
            .clone();
        self.alias(id, key);
        while self.map.len() > self.capacity {
            let lru = self
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| *k)
                .expect("over-capacity cache cannot be empty");
            self.map.remove(&lru);
            self.evictions += 1;
            // Drop aliases that point at the evicted program so the index
            // stays proportional to the *live* cache: without this an
            // engine compiling a stream of distinct functions would grow
            // the index without bound while the cache stays capped.
            self.aliases.retain(|_, target| *target != lru);
        }
        kept
    }
}

/// Aggregate optimizer statistics of an [`Engine`]: what the pass pipeline
/// did across every function this engine compiled (cache misses only; a
/// cache hit re-uses already-optimized IR). Per-pass rewrite counts are
/// keyed by pass name ([`crate::Pass::name`]) and summed over functions
/// and fixpoint iterations.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OptStats {
    /// Functions that went through the pipeline.
    pub functions: usize,
    /// Total fixpoint iterations executed.
    pub iterations: usize,
    /// Statements (all nesting depths) before optimization, summed.
    pub stms_before: usize,
    /// Statements after optimization, summed.
    pub stms_after: usize,
    /// Rewrites fired, by pass name.
    pub rewrites: std::collections::BTreeMap<&'static str, usize>,
    /// Wall time spent in each pass, by pass name, nanoseconds.
    pub pass_nanos: std::collections::BTreeMap<&'static str, u64>,
    /// Arena buffer slots planned across compiled programs (engines whose
    /// pipeline runs [`crate::Pass::MemPlan`]; summed over cache misses).
    pub slots_planned: usize,
}

impl OptStats {
    /// Total rewrites across all passes.
    pub fn total_rewrites(&self) -> usize {
        self.rewrites.values().sum()
    }

    /// Total wall time spent in the pipeline, nanoseconds.
    pub fn total_nanos(&self) -> u64 {
        self.pass_nanos.values().sum()
    }

    /// Statements removed end to end.
    pub fn stms_removed(&self) -> usize {
        self.stms_before.saturating_sub(self.stms_after)
    }

    fn absorb(&mut self, stats: &PipelineStats) {
        self.functions += 1;
        self.iterations += stats.iterations;
        self.stms_before += stats.stms_before;
        self.stms_after += stats.stms_after;
        for run in &stats.runs {
            *self.rewrites.entry(run.pass).or_default() += run.rewrites;
            *self.pass_nanos.entry(run.pass).or_default() += run.nanos;
        }
    }
}

impl std::fmt::Display for OptStats {
    /// One human-readable line, e.g.
    /// `optimizer: 2 functions, 7 iterations, 812 -> 598 stms (-26%), rewrites: cse 12, dce 40`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let pct = if self.stms_before == 0 {
            0.0
        } else {
            100.0 * self.stms_removed() as f64 / self.stms_before as f64
        };
        write!(
            f,
            "optimizer: {} function{}, {} iteration{}, {} -> {} stms (-{:.0}%)",
            self.functions,
            if self.functions == 1 { "" } else { "s" },
            self.iterations,
            if self.iterations == 1 { "" } else { "s" },
            self.stms_before,
            self.stms_after,
            pct,
        )?;
        let fired: Vec<_> = self.rewrites.iter().filter(|(_, n)| **n > 0).collect();
        if !fired.is_empty() {
            write!(f, ", rewrites:")?;
            for (i, (pass, n)) in fired.iter().enumerate() {
                write!(f, "{} {pass} {n}", if i == 0 { "" } else { "," })?;
            }
        }
        if self.slots_planned > 0 {
            write!(
                f,
                ", {} buffer slot{} planned",
                self.slots_planned,
                if self.slots_planned == 1 { "" } else { "s" },
            )?;
        }
        if self.total_nanos() > 0 {
            write!(f, ", opt time {:.1}ms", self.total_nanos() as f64 / 1e6)?;
        }
        Ok(())
    }
}

/// Counters of the VM's two kernel forms ([`firvm::TapeStats`] under the
/// field names this struct has always had): a kernel runs as a monomorphic
/// tape when `firvm::compile` could lower it, and as generic bytecode
/// otherwise — `Program::tape_report` says which, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    /// Programs prepared with at least one tape.
    pub promotions: usize,
    /// SOAC and main-body-region dispatches run as tapes.
    pub jit_hits: usize,
    /// Dispatches run as generic bytecode: the kernel has no tape, or a
    /// value was outside its tape's shape class.
    pub fallbacks: usize,
}

/// Cache counters of an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Compilations answered from the fingerprint cache.
    pub hits: usize,
    /// Compilations that ran the pipeline and the backend.
    pub misses: usize,
    /// Distinct programs currently cached.
    pub entries: usize,
    /// Programs evicted because the cache exceeded its capacity.
    pub evictions: usize,
    /// The configured LRU bound (see [`EngineBuilder::cache_capacity`]).
    pub capacity: usize,
    /// Tape/generic dispatch counters, on every engine whose backend is the
    /// VM (`None` on the interpreter).
    pub tier: Option<TierStats>,
    /// Allocation counters of the execution arena (process-global: shared
    /// by every engine; see [`interp::alloc_stats`]). `reserved_slots`
    /// tracks the buffer plans of live memplanned programs.
    pub arena: interp::AllocStats,
    /// Counters of the persistent on-disk compile cache, on engines built
    /// with [`EngineBuilder::persistent_cache`] (`None` otherwise).
    pub persistent: Option<fir_cache::PersistentStats>,
}

impl std::fmt::Display for CacheStats {
    /// One human-readable line, e.g.
    /// `cache: 3 hits, 2 misses, 2/128 entries, 0 evictions` — plus, on a
    /// VM engine, `; tapes: 2 taped programs, 64 tape dispatches, 3 generic`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cache: {} hit{}, {} miss{}, {}/{} entries, {} eviction{}",
            self.hits,
            if self.hits == 1 { "" } else { "s" },
            self.misses,
            if self.misses == 1 { "" } else { "es" },
            self.entries,
            self.capacity,
            self.evictions,
            if self.evictions == 1 { "" } else { "s" },
        )?;
        if let Some(t) = &self.tier {
            write!(
                f,
                "; tapes: {} taped program{}, {} tape dispatch{}, {} generic",
                t.promotions,
                if t.promotions == 1 { "" } else { "s" },
                t.jit_hits,
                if t.jit_hits == 1 { "" } else { "es" },
                t.fallbacks,
            )?;
        }
        if self.arena.reserved_slots > 0 {
            write!(
                f,
                "; arena: {} slots reserved, {} hits, {} heap allocs, {} pooled bytes",
                self.arena.reserved_slots,
                self.arena.arena_hits,
                self.arena.heap_allocs,
                self.arena.pooled_bytes,
            )?;
        }
        if let Some(p) = &self.persistent {
            write!(
                f,
                "; persistent: {} hit{}, {} miss{}, {} store{}, {} invalidation{}",
                p.hits,
                if p.hits == 1 { "" } else { "s" },
                p.misses,
                if p.misses == 1 { "" } else { "es" },
                p.stores,
                if p.stores == 1 { "" } else { "s" },
                p.invalidations,
                if p.invalidations == 1 { "" } else { "s" },
            )?;
        }
        Ok(())
    }
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// An engine on the default backend (the parallel compiled VM) with the
    /// standard simplification pipeline.
    pub fn new() -> Engine {
        Engine::with_backend(Box::new(firvm::Vm::new()))
    }

    /// An engine on an explicit backend instance (e.g. a backend with a
    /// custom `ExecConfig`).
    pub fn with_backend(backend: Box<dyn Backend>) -> Engine {
        Engine::on_backend(
            Arc::from(backend),
            PassPipeline::standard(),
            DEFAULT_CACHE_CAPACITY,
            None,
        )
    }

    /// A builder for engines with non-default configuration (backend,
    /// pipeline, cache capacity).
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    fn on_backend(
        backend: Arc<dyn Backend>,
        pipeline: PassPipeline,
        capacity: usize,
        persistent: Option<Arc<fir_cache::Store>>,
    ) -> Engine {
        Engine {
            inner: Arc::new(EngineInner {
                backend,
                pipeline,
                cache: Mutex::new(Cache::new(capacity)),
                opt: Mutex::new(OptStats::default()),
                persistent,
            }),
        }
    }

    /// An engine on the backend registered under `name` (see
    /// [`crate::BACKEND_NAMES`]). Unknown names return
    /// [`FirError::UnknownBackend`] listing the valid names.
    pub fn by_name(name: &str) -> Result<Engine, FirError> {
        Engine::builder().backend_name(name).build()
    }

    /// An engine on the backend named by the `FIR_BACKEND` environment
    /// variable (default: `"vm"`). An unknown name is an error listing the
    /// valid names — it does not panic.
    pub fn from_env() -> Result<Engine, FirError> {
        Engine::by_name(&registry::default_backend_name())
    }

    /// A new engine on the same backend with a different pass pipeline
    /// (builder style). The returned engine has its own (empty) cache;
    /// the original engine — and any clone of it — is left untouched, so
    /// `engine.clone().with_pipeline(...)` safely builds an unoptimized
    /// variant next to the original.
    pub fn with_pipeline(self, pipeline: PassPipeline) -> Engine {
        let capacity = self.inner.cache().capacity;
        // The persistent store is shared: its key includes the pipeline
        // configuration, so variants never collide on disk.
        Engine::on_backend(
            Arc::clone(&self.inner.backend),
            pipeline,
            capacity,
            self.inner.persistent.clone(),
        )
    }

    /// The name of the engine's backend.
    pub fn backend_name(&self) -> &'static str {
        self.inner.backend.name()
    }

    /// Compile `fun`: type-check up front, run the pass pipeline, prepare
    /// on the backend. Structurally identical functions (same fingerprint)
    /// compile once; later calls are answered from the cache.
    pub fn compile(&self, fun: &Fun) -> Result<CompiledFn, FirError> {
        Self::compile_with(&self.inner, fun)
    }

    fn compile_with(inner: &Arc<EngineInner>, fun: &Fun) -> Result<CompiledFn, FirError> {
        let key = fingerprint_pair(fun);
        let id = (key, Vec::new());
        let entry = Self::compile_entry(inner, key, fun, &id, true)?;
        Ok(CompiledFn::new(Arc::clone(inner), entry, id.0, id.1))
    }

    /// Compile `fun` under `key` (its fingerprint), answering from the
    /// cache when possible and counting the hit/miss either way. `id`
    /// names the program — the *root* fingerprint plus the transform
    /// stack that derived `fun` from it — for the alias index and the
    /// persistent store; `try_load` is cleared when the caller already
    /// consulted the store for it.
    fn compile_entry(
        inner: &Arc<EngineInner>,
        key: Fingerprint,
        fun: &Fun,
        id: &StackId,
        try_load: bool,
    ) -> Result<CacheEntry, FirError> {
        let hit = inner.cache().lookup(&key, id);
        if let Some(entry) = hit {
            fir_trace::instant("cache", "hit");
            return Ok(entry);
        }
        // The persistent tier, before any compile work: a disk hit
        // rebuilds the in-memory entry and skips typecheck, pipeline, and
        // backend compilation entirely.
        if try_load {
            if let Some((loaded_key, entry)) = Self::persist_load(inner, id) {
                debug_assert_eq!(loaded_key, key, "root entry keyed off its own source");
                return Ok(entry);
            }
        }
        fir_trace::instant("cache", "miss");
        let _compile_span = fir_trace::span_str("compile", &fun.name);
        {
            let _span = fir_trace::span("compile", "typecheck");
            fir::typecheck::check_fun(fun)?;
        }
        let (optimized, opt_stats) = {
            let _span = fir_trace::span("compile", "pipeline");
            inner.pipeline.apply_with_stats(fun)
        };
        inner.opt.lock().unwrap().absorb(&opt_stats);
        let exec = {
            let _span = fir_trace::span("compile", "backend-prepare");
            inner.backend.prepare(&optimized)?
        };
        // Memplanned pipelines size a per-invocation arena for the
        // program: compute the buffer plan from the optimized IR and
        // reserve its slots for the entry's lifetime. (If the concurrent-
        // insert race below keeps another thread's entry, dropping ours
        // releases the reservation again.)
        let plan = if inner.pipeline.passes().contains(&crate::Pass::MemPlan) {
            let p = fir_opt::plan_buffers(&optimized);
            let slots = p.slots();
            arena::reserve_slots(slots);
            inner.opt.lock().unwrap().slots_planned += slots;
            fir_trace::instant("compile", "memplan");
            Some(Arc::new(PlanInfo { slots }))
        } else {
            None
        };
        // An empty pipeline returns a borrow: source and optimized IR are
        // the same function, stored once and shared.
        let (source, optimized) = match optimized {
            std::borrow::Cow::Borrowed(_) => {
                let shared = Arc::new(fun.clone());
                (Arc::clone(&shared), shared)
            }
            std::borrow::Cow::Owned(opt) => (Arc::new(fun.clone()), Arc::new(opt)),
        };
        let entry = CacheEntry {
            source,
            fun: optimized,
            exec,
            plan,
        };
        // Another thread may have compiled the same function meanwhile;
        // keep the first entry so the executable stays shared.
        let entry = {
            let mut cache = inner.cache();
            cache.misses += 1;
            cache.install(key, entry, id)
        };
        Self::persist_store(inner, id, &entry);
        Ok(entry)
    }

    /// Consult the persistent store for the program `id` names under the
    /// engine's pipeline and backend. On a hit, rebuild the in-memory
    /// [`CacheEntry`] — adopting the decoded bytecode into the VM's
    /// program cache, its tapes re-derived by `Program::assemble` — install it in the cache under the decoded source's
    /// fingerprint, aliased to `id`, and return both. Neither engine
    /// `hits` nor `misses` move: those count in-memory outcomes, and the
    /// CI warm-start check relies on `misses == 0` meaning "no compile
    /// ran".
    fn persist_load(inner: &Arc<EngineInner>, id: &StackId) -> Option<(Fingerprint, CacheEntry)> {
        let store = inner.persistent.as_ref()?;
        let (root, stack) = (id.0, stack_key(&id.1));
        let pipeline_key = inner.pipeline.cache_key();
        let pkey = fir_cache::StoreKey {
            fingerprint: root,
            transforms: &stack,
            pipeline: &pipeline_key,
            backend: inner.backend.name(),
        };
        let cached = {
            let _span = fir_trace::span("cache", "load");
            store.load(&pkey)?
        };
        let key = fingerprint_pair(&cached.source);
        if stack.is_empty() && key != root {
            // A root entry's source must *be* the root function; anything
            // else is a stale or colliding entry.
            store.invalidate(&pkey);
            return None;
        }
        let source = Arc::new(cached.source);
        let optimized = match cached.optimized {
            Some(f) => Arc::new(f),
            None => Arc::clone(&source),
        };
        let exec = match inner.backend.as_any().downcast_ref::<firvm::Vm>() {
            Some(vm) => vm.prepare_adopted(&optimized, cached.program),
            // A non-VM backend cannot adopt bytecode; re-prepare from the
            // stored optimized IR, which still skips the typecheck, the
            // derivation, and the pipeline.
            None => match inner.backend.prepare(&optimized) {
                Ok(exec) => exec,
                Err(_) => {
                    store.invalidate(&pkey);
                    return None;
                }
            },
        };
        let plan = if inner.pipeline.passes().contains(&crate::Pass::MemPlan) {
            let slots = fir_opt::plan_buffers(&optimized).slots();
            arena::reserve_slots(slots);
            Some(Arc::new(PlanInfo { slots }))
        } else {
            None
        };
        let entry = CacheEntry {
            source,
            fun: optimized,
            exec,
            plan,
        };
        let entry = inner.cache().install(key, entry, id);
        fir_trace::instant("cache", "persistent-hit");
        Some((key, entry))
    }

    /// Write a freshly compiled entry back to the persistent store, best
    /// effort: backends whose executables carry no extractable bytecode
    /// (the interpreter) and I/O failures are silently skipped — the
    /// store is a cache, never a correctness dependency.
    fn persist_store(inner: &EngineInner, id: &StackId, entry: &CacheEntry) {
        let Some(store) = inner.persistent.as_ref() else {
            return;
        };
        let Some(program) = firvm::Vm::program_of(entry.exec.as_ref()) else {
            return;
        };
        let pipeline_key = inner.pipeline.cache_key();
        let pkey = fir_cache::StoreKey {
            fingerprint: id.0,
            transforms: &stack_key(&id.1),
            pipeline: &pipeline_key,
            backend: inner.backend.name(),
        };
        let cached = fir_cache::CachedEntry {
            source: (*entry.source).clone(),
            optimized: if Arc::ptr_eq(&entry.source, &entry.fun) {
                None
            } else {
                Some((*entry.fun).clone())
            },
            program: (*program).clone(),
        };
        let _span = fir_trace::span("cache", "store");
        let _ = store.store(&pkey, &cached);
    }

    /// Apply one [`Transform`] on top of `base` (a handle whose stack is
    /// `base.stack`): consult the derived-program index, re-derive and
    /// compile only when the target is not cached.
    fn transform_one(base: &CompiledFn, t: Transform) -> Result<CompiledFn, FirError> {
        let inner = &base.engine;
        let mut stack = base.stack.clone();
        stack.push(t);
        let id = (base.root_key, stack);
        let hit = inner.cache().lookup_alias(&id);
        let entry = if let Some(entry) = hit {
            fir_trace::instant("cache", "alias-hit");
            entry
        } else if let Some((_, entry)) = Self::persist_load(inner, &id) {
            // The persistent tier, *before* deriving: a disk hit hands
            // back the already-derived, already-compiled program, skipping
            // the derivation itself (for `vjp` of a large workload, the
            // dominant cost). The loaded entry lands in the LRU cache under
            // the decoded source's fingerprint and is aliased like a
            // compiled one.
            entry
        } else {
            // Derive from the pre-pipeline source of the base handle
            // (which already carries `base.stack` applied to the root), so
            // gradients are identical whatever pipeline the engine runs.
            // Derivation is deterministic: the fingerprint (and thus the
            // cache slot) of a `(root, stack)` pair is stable across
            // handles and evictions.
            let fun = {
                let _span =
                    fir_trace::span("compile", t.name()).with_arg(base.stack.len() as u64 + 1);
                t.apply(&base.entry.source)?
            };
            let key = fingerprint_pair(&fun);
            Self::compile_entry(inner, key, &fun, &id, false)?
        };
        Ok(CompiledFn::new(Arc::clone(inner), entry, id.0, id.1))
    }

    /// Aggregate optimizer statistics across every function this engine
    /// compiled (see [`OptStats`]), alongside [`Engine::cache_stats`].
    pub fn opt_stats(&self) -> OptStats {
        self.inner.opt.lock().unwrap().clone()
    }

    /// Cache counters (hits, misses, live entries, evictions) — and, on a
    /// VM engine, the tape/generic dispatch counters.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.inner.cache();
        CacheStats {
            hits: cache.hits,
            misses: cache.misses,
            entries: cache.map.len(),
            evictions: cache.evictions,
            capacity: cache.capacity,
            tier: self
                .inner
                .backend
                .as_any()
                .downcast_ref()
                .map(|vm: &firvm::Vm| {
                    let t = vm.tape_stats();
                    TierStats {
                        promotions: t.taped_programs,
                        jit_hits: t.tape_dispatches,
                        fallbacks: t.generic_dispatches,
                    }
                }),
            arena: interp::alloc_stats(),
            persistent: self.inner.persistent.as_ref().map(|s| s.stats()),
        }
    }
}

// ---------------------------------------------------------------------
// EngineBuilder
// ---------------------------------------------------------------------

enum BackendChoice {
    /// The process default (`FIR_BACKEND`, falling back to the VM).
    Env,
    Named(String),
    Instance(Box<dyn Backend>),
}

/// A builder for [`Engine`]s with non-default configuration.
///
/// ```
/// use fir_api::{Engine, PassPipeline};
///
/// let engine = Engine::builder()
///     .backend_name("vm-seq")
///     .pipeline(PassPipeline::standard())
///     .cache_capacity(16)
///     .build()?;
/// assert_eq!(engine.backend_name(), "firvm");
/// assert_eq!(engine.cache_stats().capacity, 16);
/// # Ok::<(), fir_api::FirError>(())
/// ```
pub struct EngineBuilder {
    backend: BackendChoice,
    pipeline: PassPipeline,
    cache_capacity: usize,
    persistent_cache: Option<PathBuf>,
}

impl Default for EngineBuilder {
    fn default() -> EngineBuilder {
        EngineBuilder::new()
    }
}

impl EngineBuilder {
    /// A builder with the defaults of [`Engine::from_env`]: the backend
    /// named by `FIR_BACKEND` (default: the compiled VM), the standard
    /// pipeline, and a cache bound of [`DEFAULT_CACHE_CAPACITY`].
    pub fn new() -> EngineBuilder {
        EngineBuilder {
            backend: BackendChoice::Env,
            pipeline: PassPipeline::standard(),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            persistent_cache: None,
        }
    }

    /// Use the backend registered under `name`; resolution (and the
    /// unknown-name error) happens in [`EngineBuilder::build`].
    pub fn backend_name(mut self, name: &str) -> EngineBuilder {
        self.backend = BackendChoice::Named(name.to_string());
        self
    }

    /// Use an explicit backend instance.
    pub fn backend(mut self, backend: Box<dyn Backend>) -> EngineBuilder {
        self.backend = BackendChoice::Instance(backend);
        self
    }

    /// The pass pipeline programs are optimized under.
    pub fn pipeline(mut self, pipeline: PassPipeline) -> EngineBuilder {
        self.pipeline = pipeline;
        self
    }

    /// Bound the compiled-program cache to `capacity` entries (clamped to
    /// at least 1); compiling past the bound evicts the least-recently-used
    /// program, counted in [`CacheStats::evictions`].
    pub fn cache_capacity(mut self, capacity: usize) -> EngineBuilder {
        self.cache_capacity = capacity.max(1);
        self
    }

    /// Accepted and ignored: there is no hotness tier to tune. Every VM
    /// engine lowers kernels to tapes at compile time and runs them as
    /// tapes from the first call, so this selects nothing. It survives
    /// only because the frozen benchmark (`fir_bench/`) still builds its
    /// "tiered" engine with it; the next `[benchmark]` PR removes that
    /// call, and then this method.
    pub fn jit_threshold(self, _threshold: u64) -> EngineBuilder {
        self
    }

    /// Persist compiled programs under `dir` (created if missing) and
    /// consult that directory before compiling: across process restarts,
    /// a program whose `(source fingerprint, transform stack, pipeline,
    /// backend, format version)` matches an on-disk entry loads its
    /// bytecode instead of re-deriving, re-optimizing, and re-compiling.
    /// Any mismatch — including a codec format-version bump — recompiles
    /// and overwrites the stale entry. Several processes may share one
    /// directory (writes are atomic); counters surface through
    /// [`CacheStats::persistent`].
    pub fn persistent_cache(mut self, dir: impl Into<PathBuf>) -> EngineBuilder {
        self.persistent_cache = Some(dir.into());
        self
    }

    /// Build the engine. Fails on an unknown backend name or an unusable
    /// persistent-cache directory.
    pub fn build(self) -> Result<Engine, FirError> {
        let backend = match self.backend {
            BackendChoice::Env => registry::backend_by_name(&registry::default_backend_name())?,
            BackendChoice::Named(name) => registry::backend_by_name(&name)?,
            BackendChoice::Instance(backend) => backend,
        };
        let persistent = match self.persistent_cache {
            None => None,
            Some(dir) => Some(Arc::new(fir_cache::Store::open(&dir).map_err(|e| {
                FirError::Unsupported {
                    what: format!("persistent cache directory `{}`: {e}", dir.display()),
                }
            })?)),
        };
        Ok(Engine::on_backend(
            Arc::from(backend),
            self.pipeline,
            self.cache_capacity,
            persistent,
        ))
    }
}

// ---------------------------------------------------------------------
// Typed results
// ---------------------------------------------------------------------

/// The result of a reverse-mode call ([`CompiledFn::grad`]): the primal
/// results plus one adjoint per differentiable parameter, in parameter
/// order.
#[derive(Debug, Clone)]
pub struct GradOutput {
    /// The primal results (all of them, in declaration order).
    pub value: Vec<Value>,
    /// The adjoints of the differentiable parameters, in parameter order.
    pub grads: Vec<Value>,
}

impl GradOutput {
    /// The first primal result as a scalar `f64` (the common
    /// scalar-objective case).
    pub fn scalar(&self) -> f64 {
        self.value[0].as_f64()
    }

    /// All adjoints flattened into one `f64` vector, in parameter order.
    pub fn flat_grads(&self) -> Vec<f64> {
        flatten_f64(&self.grads)
    }
}

/// The result of a forward-mode call ([`CompiledFn::pushforward`]): primal
/// results paired with the tangents of the differentiable results.
#[derive(Debug, Clone)]
pub struct Dual {
    /// The primal results (all of them, in declaration order).
    pub value: Vec<Value>,
    /// The tangents of the differentiable results, in result order.
    pub tangent: Vec<Value>,
}

impl Dual {
    /// The first primal result as a scalar `f64`.
    pub fn scalar(&self) -> f64 {
        self.value[0].as_f64()
    }

    /// All tangents flattened into one `f64` vector.
    pub fn flat_tangents(&self) -> Vec<f64> {
        flatten_f64(&self.tangent)
    }
}

fn flatten_f64(vals: &[Value]) -> Vec<f64> {
    let mut out = Vec::new();
    for v in vals {
        match v {
            Value::F64(x) => out.push(*x),
            Value::Arr(a) if a.elem() == fir::types::ScalarType::F64 => {
                out.extend_from_slice(a.f64s())
            }
            _ => {}
        }
    }
    out
}

/// A value of ones with the same type and shape as `v` (differentiable
/// values only).
fn ones_like(v: &Value) -> Value {
    match v {
        Value::F64(_) => Value::F64(1.0),
        Value::Arr(a) => Value::Arr(Array::from_f64(a.shape.clone(), vec![1.0; a.f64s().len()])),
        other => unreachable!("ones_like of non-differentiable value {other:?}"),
    }
}

/// A value of zeros with the same type and shape as `v` (differentiable
/// values only).
fn zeros_like(v: &Value) -> Value {
    match v {
        Value::F64(_) => Value::F64(0.0),
        Value::Arr(a) => Value::Arr(Array::zeros(a.elem(), a.shape.clone())),
        other => unreachable!("zeros_like of non-differentiable value {other:?}"),
    }
}

// ---------------------------------------------------------------------
// CompiledFn
// ---------------------------------------------------------------------

/// A function compiled by an [`Engine`]: an executable handle that can
/// derive further programs by applying a stack of [`Transform`]s
/// ([`CompiledFn::transform`] and the fluent [`CompiledFn::vjp`] /
/// [`CompiledFn::jvp`] / [`CompiledFn::vmap`] sugar). Cheap to clone;
/// handles of the same `(source fingerprint, transform stack)` share one
/// executable through the engine cache, and a handle keeps its program
/// alive (`Arc`-held) even after the cache evicts the entry.
#[derive(Clone)]
pub struct CompiledFn {
    engine: Arc<EngineInner>,
    entry: CacheEntry,
    /// Fingerprint of the *root* (untransformed) source this handle was
    /// derived from — equal to the entry's own source fingerprint when
    /// `stack` is empty.
    root_key: Fingerprint,
    /// The transforms applied to the root, in application order.
    stack: Vec<Transform>,
}

impl std::fmt::Debug for CompiledFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledFn")
            .field("fun", &self.entry.fun.name)
            .field("transforms", &self.stack)
            .field("backend", &self.engine.backend.name())
            .finish()
    }
}

impl CompiledFn {
    fn new(
        engine: Arc<EngineInner>,
        entry: CacheEntry,
        root_key: Fingerprint,
        stack: Vec<Transform>,
    ) -> CompiledFn {
        CompiledFn {
            engine,
            entry,
            root_key,
            stack,
        }
    }

    /// The function name.
    pub fn name(&self) -> &str {
        &self.entry.fun.name
    }

    /// The transform stack applied to the root source (empty for a
    /// directly compiled function), in application order.
    pub fn transforms(&self) -> &[Transform] {
        &self.stack
    }

    /// The compiled (pipeline-optimized) IR.
    pub fn fun(&self) -> &Fun {
        &self.entry.fun
    }

    /// The declared parameter types.
    pub fn param_types(&self) -> &[Type] {
        self.entry.exec.param_types()
    }

    /// The declared result types.
    pub fn result_types(&self) -> &[Type] {
        self.entry.exec.result_types()
    }

    // -- execution ----------------------------------------------------

    /// Open this program's per-invocation arena scope on the calling
    /// thread, when the program was compiled with a buffer plan
    /// ([`Pass::MemPlan`]): buffers the execution publishes can then be
    /// retained and recycled across invocations, up to the plan's slot
    /// count. `None` (no plan) leaves allocation behavior untouched.
    fn arena_scope(&self) -> Option<interp::ArenaScope> {
        self.entry.plan.as_ref().map(|p| arena::scope(p.slots))
    }

    /// Execute on `args`. Arity/type mismatches and runtime failures are
    /// `Err`, never a panic.
    pub fn call(&self, args: &[Value]) -> Result<Vec<Value>, FirError> {
        let _arena = self.arena_scope();
        self.entry.exec.run(args).map_err(FirError::from)
    }

    /// Execute a function whose first result is a scalar `f64`.
    pub fn call_scalar(&self, args: &[Value]) -> Result<f64, FirError> {
        let _arena = self.arena_scope();
        self.entry.exec.run_scalar(args).map_err(FirError::from)
    }

    /// Execute one call per argument list, fanned over the persistent
    /// worker pool: the batch runs as `batch.len()` independent
    /// executions, so per-call dispatch (and, on sequential backends, the
    /// whole evaluation) overlaps across cores. Results come back in
    /// batch order with per-request error isolation — a malformed or
    /// failing request yields its own `Err` slot and its batchmates still
    /// run. This is the execution primitive of the `fir-serve`
    /// micro-batcher.
    pub fn call_batch(&self, batch: &[Vec<Value>]) -> Vec<Result<Vec<Value>, FirError>> {
        WorkerPool::global().run_tasks(batch.len(), &|i| self.call(&batch[i]))
    }

    // -- derived transforms -------------------------------------------

    /// Apply a stack of [`Transform`]s on top of this handle's own stack,
    /// left to right: `f.transform(&[Vjp, Vmap])` is `vmap(vjp(f))`.
    ///
    /// Each step derives a new function from the previous step's
    /// *pre-pipeline* source (so the derived IR — and therefore every
    /// gradient — is identical whatever pipeline the engine runs),
    /// re-runs the pass pipeline, and lands in the engine cache keyed on
    /// `(root source fingerprint, transform stack)`: one compilation per
    /// distinct stack per engine, LRU-evicted like every other program,
    /// re-derived and recompiled transparently (a counted miss) if
    /// evicted. The returned handle holds its program by `Arc`, so it
    /// stays valid even after eviction.
    ///
    /// An empty stack returns a clone of this handle.
    pub fn transform(&self, transforms: &[Transform]) -> Result<CompiledFn, FirError> {
        let mut cur = self.clone();
        for &t in transforms {
            cur = Engine::transform_one(&cur, t)?;
        }
        Ok(cur)
    }

    /// The reverse-mode transform of this function:
    /// `self.transform(&[Transform::Vjp])`.
    ///
    /// The transformed function takes the original arguments plus one
    /// adjoint seed per differentiable result and returns the primal
    /// results plus one adjoint per differentiable parameter. For
    /// seed-free calling, use [`CompiledFn::grad`].
    pub fn vjp(&self) -> Result<CompiledFn, FirError> {
        self.transform(&[Transform::Vjp])
    }

    /// The forward-mode transform of this function:
    /// `self.transform(&[Transform::Jvp])`. The transformed function
    /// takes the original arguments plus one tangent per differentiable
    /// parameter. For zero-filled tangent calling, use
    /// [`CompiledFn::pushforward`].
    pub fn jvp(&self) -> Result<CompiledFn, FirError> {
        self.transform(&[Transform::Jvp])
    }

    /// The vectorizing-map transform of this function:
    /// `self.transform(&[Transform::Vmap])`. Every parameter and result
    /// gains one leading (batch) dimension; because types carry only
    /// rank, the one derived program serves every batch size. Compose
    /// with AD for per-example gradients: `f.vjp()?.vmap()?` maps the
    /// seeded vjp over a stacked batch, `f.vmap()?.vjp()?`
    /// differentiates the vectorized function — both compute per-example
    /// gradients, bitwise-identical to a per-example loop.
    pub fn vmap(&self) -> Result<CompiledFn, FirError> {
        self.transform(&[Transform::Vmap])
    }

    /// Forward-over-reverse (`jvp ∘ vjp`, i.e.
    /// `self.transform(&[Transform::Vjp, Transform::Jvp])`): the
    /// transform used for Hessian-vector products. See
    /// [`CompiledFn::hvp`] for the seeded convenience wrapper.
    pub fn hessian(&self) -> Result<CompiledFn, FirError> {
        self.transform(&[Transform::Vjp, Transform::Jvp])
    }

    // -- seeded conveniences ------------------------------------------

    /// Unit adjoint seeds for this function's differentiable results,
    /// derived from the registered result types: `1.0` for scalar results;
    /// all-ones arrays (matching the primal output shapes, which requires
    /// one primal evaluation) for array results. With these seeds, reverse
    /// mode computes the gradient of the *sum* of all differentiable
    /// results.
    pub fn unit_seeds(&self, args: &[Value]) -> Result<Vec<Value>, FirError> {
        let ret = &self.entry.fun.ret;
        let diff: Vec<&Type> = ret.iter().filter(|t| t.is_differentiable()).collect();
        if diff.is_empty() {
            return Err(FirError::Unsupported {
                what: format!("`{}` has no differentiable result to seed", self.name()),
            });
        }
        if diff.iter().all(|t| t.is_scalar()) {
            return Ok(vec![Value::F64(1.0); diff.len()]);
        }
        // Array-valued results: shapes are only known at run time, so
        // evaluate the primal once and build ones of each output's shape.
        let primal = self.call(args)?;
        Ok(primal
            .iter()
            .zip(ret)
            .filter(|(_, t)| t.is_differentiable())
            .map(|(v, _)| ones_like(v))
            .collect())
    }

    /// Run reverse mode with auto-derived unit seeds (see
    /// [`CompiledFn::unit_seeds`]): returns the primal results and the
    /// adjoint of every differentiable parameter.
    pub fn grad(&self, args: &[Value]) -> Result<GradOutput, FirError> {
        validate_args(self.name(), self.param_types(), args)?;
        let handle = self.vjp()?;
        let mut full = args.to_vec();
        full.extend(self.unit_seeds(args)?);
        let out = handle.call(&full)?;
        Ok(self.split_grad(out))
    }

    /// [`CompiledFn::grad`] over a batch of argument lists, one seeded vjp
    /// execution per request fanned over the worker pool like
    /// [`CompiledFn::call_batch`], with the same per-request error
    /// isolation: a malformed request (bad arity/types, failed seed
    /// derivation) or a runtime failure yields its own `Err` slot; its
    /// batchmates still run and succeed. The outer `Err` is reserved for
    /// function-level failures that would fail every request identically
    /// (the vjp transform does not compile, or the function has no
    /// differentiable result to seed).
    pub fn grad_batch(
        &self,
        batch: &[Vec<Value>],
    ) -> Result<Vec<Result<GradOutput, FirError>>, FirError> {
        let handle = self.vjp()?;
        let full = self.grad_full_args(batch)?;
        Ok(
            WorkerPool::global().run_tasks(full.len(), &|i| match &full[i] {
                Err(e) => Err(e.clone()),
                Ok(args) => handle.call(args).map(|out| self.split_grad(out)),
            }),
        )
    }

    /// The seeded vjp argument list of every request: original args plus
    /// unit adjoint seeds. For all-scalar differentiable results (every
    /// workload objective) the seeds are a constant of the signature and
    /// derived once for the whole batch; array-valued results need
    /// per-request primal shapes. The outer `Err` is a function-level
    /// failure (nothing differentiable to seed); per-request problems
    /// land in that request's slot.
    fn grad_full_args(
        &self,
        batch: &[Vec<Value>],
    ) -> Result<Vec<Result<Vec<Value>, FirError>>, FirError> {
        let ret = &self.entry.fun.ret;
        let all_scalar = ret
            .iter()
            .filter(|t| t.is_differentiable())
            .all(|t| t.is_scalar());
        if all_scalar && ret.iter().all(|t| !t.is_differentiable()) {
            // No differentiable result at all: every request fails the
            // same way, which is a function-level error.
            return Err(FirError::Unsupported {
                what: format!("`{}` has no differentiable result to seed", self.name()),
            });
        }
        let shared_seeds = if all_scalar {
            batch
                .first()
                .map(|args| self.unit_seeds(args))
                .transpose()?
        } else {
            None
        };
        Ok(batch
            .iter()
            .map(|args| {
                validate_args(self.name(), self.param_types(), args)?;
                let mut a = args.clone();
                match &shared_seeds {
                    Some(seeds) => a.extend(seeds.iter().cloned()),
                    None => a.extend(self.unit_seeds(args)?),
                }
                Ok(a)
            })
            .collect())
    }

    fn split_grad(&self, out: Vec<Value>) -> GradOutput {
        let m = self.entry.fun.ret.len();
        let mut it = out.into_iter();
        let value: Vec<Value> = it.by_ref().take(m).collect();
        GradOutput {
            value,
            grads: it.collect(),
        }
    }

    /// Run forward mode along a direction. `dir` names tangents sparsely as
    /// `(parameter index, tangent value)` pairs; every other differentiable
    /// parameter gets an auto-inserted zero tangent of its argument's
    /// shape.
    pub fn pushforward(&self, args: &[Value], dir: &[(usize, Value)]) -> Result<Dual, FirError> {
        validate_args(self.name(), self.param_types(), args)?;
        let handle = self.jvp()?;
        let mut full = args.to_vec();
        full.extend(self.tangents(args, dir)?);
        let out = handle.call(&full)?;
        let m = self.entry.fun.ret.len();
        let mut it = out.into_iter();
        let value: Vec<Value> = it.by_ref().take(m).collect();
        Ok(Dual {
            value,
            tangent: it.collect(),
        })
    }

    /// One tangent per differentiable parameter: the direction's value
    /// where given, zeros otherwise.
    fn tangents(&self, args: &[Value], dir: &[(usize, Value)]) -> Result<Vec<Value>, FirError> {
        let params = &self.entry.fun.params;
        for (i, _) in dir {
            match params.get(*i) {
                Some(p) if p.ty.is_differentiable() => {}
                Some(p) => {
                    return Err(FirError::Unsupported {
                        what: format!(
                        "`{}` parameter {i} has non-differentiable type {}, cannot take a tangent",
                        self.name(),
                        p.ty
                    ),
                    })
                }
                None => {
                    return Err(FirError::Unsupported {
                        what: format!(
                            "`{}` has {} parameters, tangent index {i} is out of range",
                            self.name(),
                            params.len()
                        ),
                    })
                }
            }
        }
        Ok(params
            .iter()
            .enumerate()
            .filter(|(_, p)| p.ty.is_differentiable())
            .map(|(i, _)| {
                dir.iter()
                    .find(|(j, _)| *j == i)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_else(|| zeros_like(&args[i]))
            })
            .collect())
    }

    /// Hessian-vector product by forward-over-reverse: the directional
    /// derivative of the gradient along `dir` (sparse tangents, as in
    /// [`CompiledFn::pushforward`]). Returns the tangent of each
    /// differentiable parameter's adjoint, in parameter order — for a
    /// scalar objective, `H · v` blocked by parameter.
    pub fn hvp(&self, args: &[Value], dir: &[(usize, Value)]) -> Result<Vec<Value>, FirError> {
        validate_args(self.name(), self.param_types(), args)?;
        let handle = self.hessian()?;
        let seeds = self.unit_seeds(args)?;
        let tangents = self.tangents(args, dir)?;
        // hessian = jvp(vjp(f)); its parameters are f's, then the vjp
        // seeds, then tangents for the vjp function's differentiable
        // parameters (f's, then the seeds — the seeds are held constant,
        // so their tangents are zero).
        let mut full = args.to_vec();
        full.extend(seeds.iter().cloned());
        full.extend(tangents);
        full.extend(seeds.iter().map(zeros_like));
        let out = handle.call(&full)?;
        // Results: f's results (m), parameter adjoints (jd), tangents of
        // the vjp function's differentiable results (kd differentiable
        // primal results, then the jd adjoints). The HVP is the last
        // block.
        let fun = &self.entry.fun;
        let m = fun.ret.len();
        let kd = fun.ret.iter().filter(|t| t.is_differentiable()).count();
        let jd = fun
            .params
            .iter()
            .filter(|p| p.ty.is_differentiable())
            .count();
        debug_assert_eq!(out.len(), m + jd + kd + jd);
        Ok(out[m + jd + kd..].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::builder::Builder;
    use fir::types::Type;

    fn dot() -> Fun {
        let mut b = Builder::new();
        b.build_fun("dot", &[Type::arr_f64(1), Type::arr_f64(1)], |b, ps| {
            let prods = b.map1(Type::arr_f64(1), &[ps[0], ps[1]], |b, es| {
                vec![b.fmul(es[0].into(), es[1].into())]
            });
            vec![b.sum(prods).into()]
        })
    }

    fn dot_args() -> Vec<Value> {
        vec![
            Value::from(vec![1.0, 2.0, 3.0]),
            Value::from(vec![4.0, 5.0, 6.0]),
        ]
    }

    #[test]
    fn compile_call_grad_on_every_backend() {
        for name in crate::BACKEND_NAMES {
            let engine = Engine::by_name(name).unwrap();
            let f = engine.compile(&dot()).unwrap();
            assert_eq!(f.call_scalar(&dot_args()).unwrap(), 32.0);
            let g = f.grad(&dot_args()).unwrap();
            assert_eq!(g.scalar(), 32.0);
            assert_eq!(g.grads[0].as_arr().f64s(), &[4.0, 5.0, 6.0]);
            assert_eq!(g.grads[1].as_arr().f64s(), &[1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn recompilation_hits_the_cache_and_shares_transforms() {
        let engine = Engine::new();
        let f1 = engine.compile(&dot()).unwrap();
        let s0 = engine.cache_stats();
        assert_eq!((s0.hits, s0.misses), (0, 1));
        let f2 = engine.compile(&dot()).unwrap();
        assert_eq!(engine.cache_stats().hits, 1);
        // Deriving the vjp compiles it once; the second handle re-derives
        // the transform but its compilation is answered by the cache.
        let misses_before = engine.cache_stats().misses;
        f1.vjp().unwrap();
        assert_eq!(engine.cache_stats().misses, misses_before + 1);
        f2.vjp().unwrap();
        assert_eq!(engine.cache_stats().misses, misses_before + 1);
    }

    #[test]
    fn dropping_the_engine_and_handles_frees_the_engine() {
        // CompiledFn holds Arc<EngineInner> and the derived handles live
        // on the CompiledFn (not in the engine cache), so dropping every
        // handle and the engine must actually deallocate: no cycle.
        let engine = Engine::new();
        let weak = Arc::downgrade(&engine.inner);
        let f = engine.compile(&dot()).unwrap();
        f.vjp().unwrap();
        f.hessian().unwrap();
        drop(f);
        drop(engine);
        assert!(
            weak.upgrade().is_none(),
            "engine leaked: strong refs remain after dropping all handles"
        );
    }

    #[test]
    fn pushforward_inserts_zero_tangents() {
        let engine = Engine::by_name("vm-seq").unwrap();
        let f = engine.compile(&dot()).unwrap();
        // d/dt dot(xs + t*e0, ys) = ys[0]
        let dual = f
            .pushforward(&dot_args(), &[(0, Value::from(vec![1.0, 0.0, 0.0]))])
            .unwrap();
        assert_eq!(dual.scalar(), 32.0);
        assert_eq!(dual.flat_tangents(), vec![4.0]);
        // No direction at all: zero tangent.
        let dual = f.pushforward(&dot_args(), &[]).unwrap();
        assert_eq!(dual.flat_tangents(), vec![0.0]);
    }

    #[test]
    fn hvp_matches_the_analytic_hessian() {
        // f(x) = x[0]^2 * x[1]; H = [[2x1, 2x0], [2x0, 0]].
        let mut b = Builder::new();
        let f = b.build_fun("h", &[Type::arr_f64(1)], |b, ps| {
            let x0 = b.index(ps[0], &[fir::ir::Atom::i64(0)]);
            let x1 = b.index(ps[0], &[fir::ir::Atom::i64(1)]);
            let sq = b.fmul(x0.into(), x0.into());
            vec![b.fmul(sq, x1.into())]
        });
        let engine = Engine::by_name("interp-seq").unwrap();
        let cf = engine.compile(&f).unwrap();
        let args = [Value::from(vec![3.0, 5.0])];
        let hv = cf.hvp(&args, &[(0, Value::from(vec![1.0, 0.0]))]).unwrap();
        // H · e0 = [2*x1, 2*x0] = [10, 6].
        assert_eq!(hv[0].as_arr().f64s(), &[10.0, 6.0]);
    }

    #[test]
    fn transform_stacks_compile_once_per_distinct_stack() {
        let engine = Engine::by_name("vm-seq").unwrap();
        let f = engine.compile(&dot()).unwrap();
        let m0 = engine.cache_stats().misses;
        // [Vjp] and [Vjp, Vmap]: two new programs.
        let a = f.vjp().unwrap().vmap().unwrap();
        assert_eq!(engine.cache_stats().misses, m0 + 2);
        assert_eq!(a.transforms(), &[Transform::Vjp, Transform::Vmap]);
        // The same stack spelled through `transform`: all cache hits.
        let hits0 = engine.cache_stats().hits;
        let b = f.transform(&[Transform::Vjp, Transform::Vmap]).unwrap();
        assert_eq!(engine.cache_stats().misses, m0 + 2);
        assert!(engine.cache_stats().hits > hits0);
        assert_eq!(a.name(), b.name());
        // The opposite order is a distinct stack (two more programs)...
        let c = f.vmap().unwrap().vjp().unwrap();
        assert_eq!(engine.cache_stats().misses, m0 + 4);
        assert_eq!(c.transforms(), &[Transform::Vmap, Transform::Vjp]);
        // ...and a second handle of the same function shares everything.
        let f2 = engine.compile(&dot()).unwrap();
        f2.vjp().unwrap().vmap().unwrap();
        f2.vmap().unwrap().vjp().unwrap();
        assert_eq!(engine.cache_stats().misses, m0 + 4);
        // An empty stack is the handle itself.
        assert_eq!(f.transform(&[]).unwrap().name(), f.name());
    }

    #[test]
    fn vmap_executes_per_example_bitwise() {
        for name in ["interp-seq", "vm-seq"] {
            let engine = Engine::by_name(name).unwrap();
            let f = engine.compile(&dot()).unwrap();
            let vf = f.vmap().unwrap();
            assert_eq!(vf.param_types(), &[Type::arr_f64(2), Type::arr_f64(2)]);
            let batch: Vec<Vec<Value>> = (0..5)
                .map(|i| {
                    vec![
                        Value::from(vec![i as f64 + 0.5, -1.25, 3.0]),
                        Value::from(vec![0.75, 2.0, i as f64]),
                    ]
                })
                .collect();
            let stacked = crate::batch::stack_args(&batch).unwrap();
            let outs = vf.call(&stacked).unwrap();
            for (i, args) in batch.iter().enumerate() {
                let want = f.call(args).unwrap();
                let got = outs[0].as_arr().index(&[i]);
                assert_eq!(
                    want[0].as_f64().to_bits(),
                    got.as_f64().to_bits(),
                    "{name}: vmap element {i}"
                );
            }
        }
    }

    #[test]
    fn vmap_vjp_in_both_orders_matches_per_example_grad_bitwise() {
        for name in ["interp-seq", "vm-seq"] {
            let engine = Engine::by_name(name).unwrap();
            let f = engine.compile(&dot()).unwrap();
            let batch: Vec<Vec<Value>> = (0..4)
                .map(|i| {
                    vec![
                        Value::from(vec![1.0 + i as f64, 2.0, -0.5]),
                        Value::from(vec![4.0, i as f64 - 2.0, 6.0]),
                    ]
                })
                .collect();
            // Seeded per-example argument lists: args ++ unit seed.
            let seeded: Vec<Vec<Value>> = batch
                .iter()
                .map(|args| {
                    let mut a = args.clone();
                    a.extend(f.unit_seeds(args).unwrap());
                    a
                })
                .collect();
            let stacked = crate::batch::stack_args(&seeded).unwrap();
            // vmap(vjp(f)) and vjp(vmap(f)) take the *same* stacked
            // argument list here (the seed column of the former is the
            // [B]-seed of the latter) and must agree with the
            // per-example grad loop bitwise.
            for stack in [
                [Transform::Vjp, Transform::Vmap],
                [Transform::Vmap, Transform::Vjp],
            ] {
                let tf = f.transform(&stack).unwrap();
                let outs = tf.call(&stacked).unwrap();
                for (i, args) in batch.iter().enumerate() {
                    let want = f.grad(args).unwrap();
                    assert_eq!(
                        want.scalar().to_bits(),
                        outs[0].as_arr().index(&[i]).as_f64().to_bits(),
                        "{name} {stack:?}: primal {i}"
                    );
                    for (j, g) in want.grads.iter().enumerate() {
                        let got = outs[1 + j].as_arr().index(&[i]);
                        assert_eq!(
                            g.as_arr().f64s(),
                            got.as_arr().f64s(),
                            "{name} {stack:?}: grad[{j}] of example {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn call_batch_matches_sequential_calls() {
        let engine = Engine::new();
        let f = engine.compile(&dot()).unwrap();
        let batch: Vec<Vec<Value>> = (0..16)
            .map(|i| {
                vec![
                    Value::from(vec![i as f64, 1.0]),
                    Value::from(vec![2.0, 3.0]),
                ]
            })
            .collect();
        let batched = f.call_batch(&batch);
        for (args, out) in batch.iter().zip(&batched) {
            let out = out.as_ref().unwrap();
            assert_eq!(out[0].as_f64(), f.call(args).unwrap()[0].as_f64());
        }
    }

    #[test]
    fn compiling_past_capacity_evicts_the_lru_program() {
        // Three structurally distinct programs through a capacity-2 cache.
        fn scaled(c: f64) -> Fun {
            let mut b = Builder::new();
            b.build_fun("scaled", &[Type::arr_f64(1)], |b, ps| {
                let s = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                    vec![b.fmul(es[0].into(), fir::ir::Atom::f64(c))]
                });
                vec![b.sum(s).into()]
            })
        }
        let engine = Engine::builder()
            .backend_name("vm-seq")
            .cache_capacity(2)
            .build()
            .unwrap();
        assert_eq!(engine.cache_stats().capacity, 2);
        engine.compile(&scaled(1.0)).unwrap();
        engine.compile(&scaled(2.0)).unwrap();
        // Touch the first program: it becomes most-recently-used.
        engine.compile(&scaled(1.0)).unwrap();
        let s = engine.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries, s.evictions), (1, 2, 2, 0));
        // A third program overflows the cache; the LRU entry (2.0) goes.
        engine.compile(&scaled(3.0)).unwrap();
        let s = engine.cache_stats();
        assert_eq!((s.entries, s.evictions), (2, 1));
        // The survivor is still a hit; the evicted program recompiles.
        engine.compile(&scaled(1.0)).unwrap();
        assert_eq!(engine.cache_stats().hits, 2);
        let misses = engine.cache_stats().misses;
        engine.compile(&scaled(2.0)).unwrap();
        let s = engine.cache_stats();
        assert_eq!(s.misses, misses + 1, "evicted program must recompile");
        assert_eq!(s.evictions, 2);
    }

    #[test]
    fn alias_index_stays_proportional_to_the_live_cache() {
        fn scaled(c: f64) -> Fun {
            let mut b = Builder::new();
            b.build_fun("scaled", &[Type::arr_f64(1)], |b, ps| {
                let s = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                    vec![b.fmul(es[0].into(), fir::ir::Atom::f64(c))]
                });
                vec![b.sum(s).into()]
            })
        }
        let engine = Engine::builder()
            .backend_name("vm-seq")
            .cache_capacity(2)
            .build()
            .unwrap();
        // A stream of distinct programs and their vjps through a tiny
        // cache: aliases of evicted programs must be dropped with them,
        // not accumulated for the engine's lifetime.
        for c in 0..8 {
            engine
                .compile(&scaled(c as f64 + 1.5))
                .unwrap()
                .vjp()
                .unwrap();
        }
        assert!(engine.cache_stats().evictions >= 12);
        let aliases = engine.inner.cache().aliases.len();
        assert!(
            aliases <= engine.cache_stats().capacity,
            "alias index must shrink with evictions, found {aliases} entries"
        );
    }

    #[test]
    fn opt_stats_display_omits_passes_that_never_fired() {
        let mut stats = OptStats {
            functions: 1,
            stms_before: 10,
            stms_after: 8,
            ..OptStats::default()
        };
        stats.rewrites.insert("dce", 2);
        stats.rewrites.insert("cse", 0);
        let line = stats.to_string();
        assert!(line.contains("dce 2"), "{line}");
        assert!(!line.contains("cse"), "{line}");
    }

    #[test]
    fn batches_isolate_the_failing_request() {
        let engine = Engine::new();
        let f = engine.compile(&dot()).unwrap();
        let good = dot_args();
        let bad = vec![Value::F64(1.0)];
        let out = f.call_batch(&[good.clone(), bad.clone(), good.clone()]);
        assert_eq!(out[0].as_ref().unwrap()[0].as_f64(), 32.0);
        assert!(matches!(
            out[1],
            Err(FirError::Exec(interp::ExecError::Arity { .. }))
        ));
        assert_eq!(out[2].as_ref().unwrap()[0].as_f64(), 32.0);

        let grads = f.grad_batch(&[good.clone(), bad, good.clone()]).unwrap();
        assert_eq!(grads[0].as_ref().unwrap().scalar(), 32.0);
        assert!(grads[1].is_err());
        assert_eq!(
            grads[2].as_ref().unwrap().grads[0].as_arr().f64s(),
            &[4.0, 5.0, 6.0]
        );
    }

    /// Arena counters are process-global; tests asserting on them
    /// serialize on this lock so concurrent tests cannot skew the deltas.
    fn arena_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A program with the memplan target shape: `copy` an argument, update
    /// the copy, reduce it.
    fn copyupd(c: f64) -> Fun {
        use fir::ir::{Atom, Exp};
        let mut b = Builder::new();
        b.build_fun("copyupd", &[Type::arr_f64(1)], |b, ps| {
            let y = b.bind1(Type::arr_f64(1), Exp::Copy(ps[0]));
            let z = b.bind1(
                Type::arr_f64(1),
                Exp::Update {
                    arr: y,
                    idx: vec![Atom::i64(0)],
                    val: Atom::f64(c),
                },
            );
            vec![b.sum(z).into()]
        })
    }

    #[test]
    fn standard_mem_plans_buffers_and_matches_plain_results_bitwise() {
        let _g = arena_lock();
        let args = vec![Value::from(vec![1.5, 2.5, 3.5])];
        let plain = Engine::by_name("vm-seq").unwrap();
        let want = plain.compile(&copyupd(9.0)).unwrap().call(&args).unwrap();
        let planned = Engine::builder()
            .backend_name("vm-seq")
            .pipeline(PassPipeline::standard_mem())
            .build()
            .unwrap();
        let f = planned.compile(&copyupd(9.0)).unwrap();
        // Repeated invocations reuse the per-invocation arena; results
        // stay bitwise-identical to the unplanned engine throughout.
        for _ in 0..4 {
            let got = f.call(&args).unwrap();
            assert_eq!(want[0].as_f64().to_bits(), got[0].as_f64().to_bits());
        }
        let opt = planned.opt_stats();
        assert!(
            opt.rewrites.get("memplan").copied().unwrap_or(0) >= 1,
            "the dead-source copy must be rewritten in place: {opt}"
        );
        assert!(opt.slots_planned > 0, "{opt}");
        assert!(opt.to_string().contains("buffer slot"), "{opt}");
        let stats = planned.cache_stats();
        assert!(stats.arena.reserved_slots > 0, "{stats}");
        assert!(stats.to_string().contains("; arena:"), "{stats}");
    }

    #[test]
    fn evicting_a_planned_program_returns_its_arena_reservation() {
        let _g = arena_lock();
        let engine = Engine::builder()
            .backend_name("vm-seq")
            .pipeline(PassPipeline::standard_mem())
            .cache_capacity(1)
            .build()
            .unwrap();
        let base = interp::alloc_stats().reserved_slots;
        let f1 = engine.compile(&copyupd(1.0)).unwrap();
        let after1 = interp::alloc_stats().reserved_slots;
        assert!(after1 > base, "compiling under standard_mem must reserve");
        // The reservation is held by the cache slot, not the handle.
        drop(f1);
        assert_eq!(interp::alloc_stats().reserved_slots, after1);
        {
            // A second program overflows the capacity-1 cache, evicting
            // the first — and with it, its reservation.
            let _f2 = engine.compile(&copyupd(2.0)).unwrap();
            assert_eq!(engine.cache_stats().evictions, 1);
            // copyupd(1.0) and copyupd(2.0) plan identical slot counts,
            // so the eviction nets out to the single-program level.
            assert_eq!(interp::alloc_stats().reserved_slots, after1);
        }
        // Dropping the engine (and every handle) returns everything.
        drop(engine);
        assert_eq!(interp::alloc_stats().reserved_slots, base);
    }

    #[test]
    fn a_dropped_engine_frees_its_programs_while_a_thread_that_used_it_lives() {
        use std::sync::mpsc;
        use std::time::Duration;
        let _g = arena_lock();
        let engine = Engine::builder()
            .backend_name("vm-seq")
            .pipeline(PassPipeline::standard_mem())
            .build()
            .unwrap();
        let base = interp::alloc_stats().reserved_slots;
        let (exec_tx, exec_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let clone = engine.clone();
            let helper = s.spawn(move || {
                let f = clone.compile(&copyupd(3.0)).unwrap();
                // A second lookup, answered from the cache this time.
                clone.compile(&copyupd(3.0)).unwrap();
                let exec = Arc::downgrade(&f.entry.exec);
                drop((f, clone));
                // Park, alive, with nothing of the engine in hand.
                exec_tx.send(exec).unwrap();
                release_rx.recv_timeout(Duration::from_secs(30))
            });
            let exec = exec_rx.recv_timeout(Duration::from_secs(30)).unwrap();
            drop(engine);
            let freed = (
                interp::alloc_stats().reserved_slots,
                exec.upgrade().is_none(),
            );
            release_tx.send(()).unwrap();
            helper.join().unwrap().expect("helper timed out parked");
            assert_eq!(
                freed,
                (base, true),
                "(reserved slots, executable freed) while the helper thread was still alive"
            );
        });
    }

    #[test]
    fn concurrent_lookups_conserve_the_cache_counters() {
        const THREADS: usize = 4;
        const STEPS: usize = 200;
        let funs: Vec<Fun> = (0..6).map(|i| copyupd(i as f64 + 1.25)).collect();
        let args = vec![Value::from(vec![1.0, -2.0, 3.5])];
        let reference = Engine::by_name("vm-seq").unwrap();
        let want: Vec<GradOutput> = funs
            .iter()
            .map(|f| reference.compile(f).unwrap().grad(&args).unwrap())
            .collect();
        let engine = Engine::builder()
            .backend_name("vm-seq")
            .cache_capacity(3)
            .build()
            .unwrap();
        let barrier = std::sync::Barrier::new(THREADS);
        let lookups: usize = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (engine, funs, args, want, barrier) =
                        (&engine, &funs, &args, &want, &barrier);
                    s.spawn(move || {
                        // A fixed-seed LCG per thread picks (function, op).
                        let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1);
                        let mut lookups = 0;
                        barrier.wait();
                        for _ in 0..STEPS {
                            state = state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let i = (state >> 33) as usize % funs.len();
                            let f = engine.compile(&funs[i]).unwrap();
                            lookups += 1;
                            match (state >> 40) % 4 {
                                0 => {}
                                1 => {
                                    f.vjp().unwrap();
                                    lookups += 1;
                                }
                                2 => {
                                    f.transform(&[Transform::Vjp, Transform::Jvp]).unwrap();
                                    lookups += 2;
                                }
                                _ => {
                                    let got = f.grad(args).unwrap();
                                    lookups += 1;
                                    assert_eq!(got.scalar().to_bits(), want[i].scalar().to_bits());
                                    assert_eq!(
                                        got.grads[0].as_arr().f64s(),
                                        want[i].grads[0].as_arr().f64s()
                                    );
                                }
                            }
                        }
                        lookups
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        let s = engine.cache_stats();
        assert_eq!(
            s.hits + s.misses,
            lookups,
            "every lookup is a hit or a miss: {s}"
        );
        assert!(s.entries <= s.capacity, "{s}");
        assert!(s.evictions + s.entries <= s.misses, "{s}");
        assert!(
            s.evictions > 0,
            "six programs and their transforms must overflow: {s}"
        );
        let cache = engine.inner.cache();
        assert!(
            cache.aliases.values().all(|k| cache.map.contains_key(k)),
            "an alias outlived the program it points at"
        );
    }

    #[test]
    fn vm_engines_count_tape_dispatches_from_the_first_call() {
        let engine = Engine::by_name("vm-seq").unwrap();
        assert_eq!(engine.backend_name(), "firvm");
        assert_eq!(engine.cache_stats().tier, Some(TierStats::default()));
        let f = engine.compile(&dot()).unwrap();
        f.call(&dot_args()).unwrap();
        let t = engine.cache_stats().tier.unwrap();
        assert_eq!(
            (t.promotions, t.jit_hits, t.fallbacks),
            (1, 1, 0),
            "the fused redomap runs as a tape on the very first call"
        );
        // Line format of the tape block in Display.
        let line = engine.cache_stats().to_string();
        assert!(
            line.contains("; tapes: 1 taped program, 1 tape dispatch, 0 generic"),
            "{line}"
        );
        // The interpreter has no kernel forms to count.
        let stats = Engine::by_name("interp-seq").unwrap().cache_stats();
        assert_eq!(stats.tier, None);
        assert!(!stats.to_string().contains("tapes"));
        // The tier's backend names went with it: two VMs, two interpreters.
        assert_eq!(crate::BACKEND_NAMES.len(), 4);
    }

    #[test]
    fn evicting_a_promoted_program_prunes_its_aliases_and_stays_correct() {
        fn scaled(c: f64) -> Fun {
            let mut b = Builder::new();
            b.build_fun("scaled", &[Type::arr_f64(1)], |b, ps| {
                let s = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                    vec![b.fmul(es[0].into(), fir::ir::Atom::f64(c))]
                });
                vec![b.sum(s).into()]
            })
        }
        let engine = Engine::builder()
            .backend_name("vm-seq")
            .cache_capacity(2)
            .build()
            .unwrap();
        let args = vec![Value::from(vec![1.0, 2.0, 3.0])];
        // A program and its derived vjp, both with tapes.
        let f1 = engine.compile(&scaled(1.5)).unwrap();
        let g = f1.grad(&args).unwrap();
        assert_eq!(g.grads[0].as_arr().f64s(), &[1.5, 1.5, 1.5]);
        assert!(engine.cache_stats().tier.unwrap().promotions >= 1);
        // A stream of distinct programs overflows the capacity-2 LRU,
        // evicting the taped entries.
        for c in 0..4 {
            engine
                .compile(&scaled(c as f64 + 10.0))
                .unwrap()
                .call(&args)
                .unwrap();
        }
        let s = engine.cache_stats();
        assert!(s.evictions >= 3, "{s}");
        let aliases = engine.inner.cache().aliases.len();
        assert!(
            aliases <= s.capacity,
            "aliases of evicted programs must be dropped, found {aliases}"
        );
        // The evicted program recompiles (a counted miss) and still runs
        // as tapes, bit-identically.
        let misses = s.misses;
        let hits_before = s.tier.unwrap().jit_hits;
        let f1b = engine.compile(&scaled(1.5)).unwrap();
        let out = f1b.call(&args).unwrap();
        assert_eq!(out[0].as_f64(), 1.5 * 6.0);
        let s = engine.cache_stats();
        assert_eq!(s.misses, misses + 1, "evicted program must recompile");
        assert!(s.tier.unwrap().jit_hits > hits_before);
    }

    #[test]
    fn jit_unsupported_expressions_fall_back_with_identical_results() {
        // The kernel constructs an array in its body (`iota`) and gathers
        // through it — array construction is outside the tape fragment —
        // so that kernel runs as generic bytecode while the reduce next to
        // it (unfused: no pipeline) runs as a tape, bitwise-identical to
        // the interpreter.
        let mut b = Builder::new();
        let f = b.build_fun("gather", &[Type::arr_f64(1), Type::arr_f64(1)], |b, ps| {
            let y = b.map1(Type::arr_f64(1), &[ps[0]], |b, es| {
                let i = b.to_i64(es[0].into());
                let im = b.irem(i, fir::ir::Atom::i64(3));
                let tbl = b.iota(fir::ir::Atom::i64(3));
                let w = b.index(tbl, &[im]);
                let wf = b.to_f64(w.into());
                let g = b.index(ps[1], &[im]);
                vec![b.fmul(wf, g.into())]
            });
            vec![b.sum(y).into()]
        });
        let args = vec![
            Value::from(vec![0.0, 1.0, 2.0, 4.0, 5.0]),
            Value::from(vec![10.0, 20.0, 30.0]),
        ];
        let oracle = Engine::by_name("interp-seq").unwrap();
        let want = oracle.compile(&f).unwrap().call(&args).unwrap();
        let engine = Engine::by_name("vm-seq")
            .unwrap()
            .with_pipeline(PassPipeline::none());
        let cf = engine.compile(&f).unwrap();
        for _ in 0..3 {
            let got = cf.call(&args).unwrap();
            assert_eq!(want[0].as_f64().to_bits(), got[0].as_f64().to_bits());
        }
        let t = engine.cache_stats().tier.unwrap();
        assert_eq!(t.promotions, 1);
        assert_eq!(
            (t.jit_hits, t.fallbacks),
            (3, 3),
            "the reduce runs as a tape, the gather kernel generically: {t:?}"
        );
    }

    #[test]
    fn errors_do_not_panic() {
        let engine = Engine::new();
        let f = engine.compile(&dot()).unwrap();
        assert!(matches!(
            f.call(&[Value::F64(1.0)]),
            Err(FirError::Exec(interp::ExecError::Arity { .. }))
        ));
        assert!(matches!(
            f.pushforward(&dot_args(), &[(7, Value::F64(1.0))]),
            Err(FirError::Unsupported { .. })
        ));
    }
}
