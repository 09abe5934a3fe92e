//! Deterministic stage scheduling.
//!
//! The scheduler topologically executes a stage graph, running
//! independent stages concurrently on scoped worker threads. Determinism
//! is structural, not scheduled: every stage seeds its own RNG from the
//! configuration (never from execution order), so the artifacts — and
//! everything derived from them — are byte-identical at any thread
//! count. The only thing that varies with scheduling is the wall-clock
//! timing recorded in each [`StageReport`].

use super::fingerprint::{config_fingerprint, stage_fingerprint, Fingerprint};
use super::store::ArtifactStore;
use super::supervise::{into_pipeline_error, StageError, MAX_RETRIES};
use super::{Artifact, ErasedArtifact, Stage, StageCtx};
use crate::io::{self, CacheRead};
use crate::pipeline::{PipelineConfig, PipelineError};
use crate::telemetry::{Stopwatch, Telemetry};
use geotopo_stats::ChunkExec;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// How a stage's artifact was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheStatus {
    /// Computed from scratch.
    Miss,
    /// Served from the in-memory artifact store.
    HitMemory,
    /// Reloaded from the store's on-disk spill directory.
    HitDisk,
}

impl std::fmt::Display for CacheStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheStatus::Miss => write!(f, "miss"),
            CacheStatus::HitMemory => write!(f, "memory"),
            CacheStatus::HitDisk => write!(f, "disk"),
        }
    }
}

/// Per-stage execution record, surfaced through
/// [`PipelineOutput::reports`](crate::pipeline::PipelineOutput::reports)
/// and the `--trace` flag of `reproduce_paper`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageReport {
    /// Stage name.
    pub stage: String,
    /// Stage fingerprint (config fingerprint + stage name), hex.
    pub fingerprint: String,
    /// The config-derived seed the stage ran with.
    pub seed: u64,
    /// Time spent obtaining the artifact (compute or cache fetch), ms.
    pub wall_ms: f64,
    /// Time spent in the stage's invariant validator, ms (0 when
    /// validation is off or the artifact came from the memory cache).
    pub validate_ms: f64,
    /// Artifact size in stage-specific items (routers, table entries,
    /// nodes...).
    pub artifact_items: usize,
    /// Where the artifact came from.
    pub cache: CacheStatus,
    /// Execution attempts, including the first (>1 means supervision
    /// retried a transient failure).
    pub attempts: u32,
    /// Degradation note when the stage proceeded with a partial result
    /// (e.g. a monitor-quorum collection); `None` when fully healthy.
    pub degraded: Option<String>,
    /// One-line anomaly summary from the stage's artifact (`None` when
    /// clean), surfaced per stage by `--trace`.
    pub anomalies: Option<String>,
    /// Process peak RSS (bytes) sampled right after the stage finished —
    /// a monotone high-water mark, so the first stage where it jumps is
    /// the stage that caused the growth. 0 where unsupported (the
    /// `engine.rss.unavailable` counter records that the 0 is a
    /// degradation, not a measurement).
    pub peak_rss_bytes: u64,
    /// Durability incident survived on the way to this artifact: a
    /// corrupt cache entry that was quarantined and regenerated, or a
    /// failed spill that latched the store to in-memory residency.
    /// `None` on a clean cache cascade.
    pub cache_note: Option<String>,
}

/// Interprets one `GEOTOPO_THREADS` value: `Ok(n)` for a positive
/// integer, `Err(reason)` for anything unusable (`"abc"`, `"0"`,
/// `"-2"`, `""`). Pure so the fallback is unit-testable without racing
/// on the process environment.
///
/// # Errors
///
/// A human-readable reason the value was rejected.
pub fn parse_threads_env(raw: &str) -> Result<usize, String> {
    let trimmed = raw.trim();
    match trimmed.parse::<usize>() {
        Ok(0) => Err("must be a positive integer, got 0".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("not a positive integer: `{trimmed}`")),
    }
}

/// Resolves a thread-count knob: a positive knob wins, then a positive
/// integer in `GEOTOPO_THREADS`, then the machine's available
/// parallelism (1 if unknown). A malformed env value falls through to
/// auto-detection; [`threads_env_warning`] reports it (and
/// `Pipeline::run` records the `engine.threads.env_malformed` counter)
/// instead of the old silent swallow.
pub fn resolve_threads(knob: usize) -> usize {
    if knob > 0 {
        return knob;
    }
    if let Ok(v) = std::env::var("GEOTOPO_THREADS") {
        if let Ok(n) = parse_threads_env(&v) {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A one-line warning when `GEOTOPO_THREADS` is set but unusable, `None`
/// when the variable is unset or valid. Surfaced by `--trace` and
/// counted under `engine.threads.env_malformed` in the run's telemetry.
pub fn threads_env_warning() -> Option<String> {
    let v = std::env::var("GEOTOPO_THREADS").ok()?;
    parse_threads_env(&v).err().map(|reason| {
        format!("GEOTOPO_THREADS ignored ({reason}); falling back to auto-detected parallelism")
    })
}

/// What every stage attempt of one [`execute`] call shares: the
/// configuration and its fingerprint, the validation switch, the
/// resolved worker count, the store and the telemetry registry.
#[derive(Debug)]
pub struct RunCtx<'a> {
    config: &'a PipelineConfig,
    config_fp: Fingerprint,
    validate: bool,
    threads: usize,
    store: Option<&'a ArtifactStore>,
    telemetry: &'a Telemetry,
}

/// The object-safe face of a [`Stage`], for the scheduler. Its one
/// blanket impl is the only place a stage's [`Stage::Output`] is erased
/// to an [`ErasedArtifact`].
pub trait ErasedStage: Send + Sync {
    /// The stage's [`Stage::name`].
    fn name(&self) -> String;

    /// The stage's [`Stage::deps`].
    fn deps(&self) -> Vec<String>;

    /// One attempt (0-based) of the stage's cache cascade: memory hit →
    /// disk hit → compute, validate, spill and store.
    ///
    /// # Errors
    ///
    /// The stage's classified failure, or an injected fault-plan failure.
    fn attempt(
        &self,
        run: &RunCtx<'_>,
        deps: &[ErasedArtifact],
        attempt: u32,
    ) -> Result<(ErasedArtifact, StageReport), StageError>;
}

impl<S: Stage> ErasedStage for S {
    fn name(&self) -> String {
        Stage::name(self)
    }

    fn deps(&self) -> Vec<String> {
        Stage::deps(self)
    }

    fn attempt(
        &self,
        run: &RunCtx<'_>,
        deps: &[ErasedArtifact],
        attempt: u32,
    ) -> Result<(ErasedArtifact, StageReport), StageError> {
        cascade(self, run, deps, attempt).map(|(a, report)| (a as ErasedArtifact, report))
    }
}

impl std::fmt::Debug for dyn ErasedStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Stage({})", self.name())
    }
}

/// The artifacts one [`execute`] call produced, by stage name.
#[derive(Debug)]
pub struct Artifacts(HashMap<String, ErasedArtifact>);

impl Artifacts {
    /// Removes the artifact of stage `name`, as its concrete type.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Wiring`] when no stage of that name produced a
    /// `T`.
    pub fn take<T: Artifact>(&mut self, name: &str) -> Result<Arc<T>, PipelineError> {
        let artifact = self.0.remove(name).and_then(|a| a.downcast().ok());
        artifact.ok_or_else(|| PipelineError::Wiring {
            stage: name.to_string(),
            detail: format!("produced no `{}`", std::any::type_name::<T>()),
        })
    }
}

/// The scheduler's progress, behind one lock.
struct SchedState {
    indegree: Vec<usize>,
    ready: BTreeSet<usize>,
    results: Vec<Option<ErasedArtifact>>,
    reports: Vec<Option<StageReport>>,
    done: usize,
    error: Option<PipelineError>,
}

/// Executes a stage graph, returning every stage's artifact and, in
/// stage order, its report.
///
/// One scheduler loop runs at every worker count: up to `threads`
/// workers claim the lowest-index ready stage, and the calling thread is
/// worker 0, so a 1-worker run spawns no thread and runs the stages in
/// list order. Dependencies resolve by name against *earlier* stages
/// only (the builder in [`pipeline_stages`](super::pipeline_stages)
/// lists every stage after its dependencies), so the graph is acyclic
/// before anything runs.
///
/// # Errors
///
/// [`PipelineError::Wiring`] naming the first stage with a dependency
/// that names no earlier stage (an unknown name or a cycle), before any
/// stage runs. Otherwise the first stage failure short-circuits the run:
/// workers drain and the error is returned. Already-completed artifacts
/// stay in the store (if one was given), so a retry resumes where it
/// left off.
pub fn execute(
    stages: &[Box<dyn ErasedStage>],
    config: &PipelineConfig,
    validate: bool,
    threads: usize,
    store: Option<&ArtifactStore>,
    telemetry: &Telemetry,
) -> Result<(Artifacts, Vec<StageReport>), PipelineError> {
    let n = stages.len();
    let names: Vec<String> = stages.iter().map(|s| s.name()).collect();
    let deps = resolve_deps(stages, &names)?;
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ds) in deps.iter().enumerate() {
        for &d in ds {
            dependents[d].push(i);
        }
    }
    let run = RunCtx {
        config,
        config_fp: config_fingerprint(config),
        validate,
        threads,
        store,
        telemetry,
    };
    // An ordered set popped from the front is the lowest-index-first
    // ready queue — GT-LINT-011 keeps BinaryHeap out of everything but
    // the routing reference solver.
    let state = Mutex::new(SchedState {
        indegree: deps.iter().map(Vec::len).collect(),
        ready: (0..n).filter(|&i| deps[i].is_empty()).collect(),
        results: vec![None; n],
        reports: vec![None; n],
        done: 0,
        error: None,
    });
    let wake = Condvar::new();
    let work = || loop {
        // Claim the lowest-index ready stage, or exit when the run is
        // complete or failed.
        let (i, dep_artifacts) = {
            let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if st.error.is_some() || st.done == n {
                    return;
                }
                if let Some(i) = st.ready.pop_first() {
                    // Indegree hit 0, so every dependency result is filled.
                    let ds: Vec<ErasedArtifact> = deps[i]
                        .iter()
                        .filter_map(|&d| st.results[d].clone())
                        .collect();
                    break (i, ds);
                }
                st = wake.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let outcome = run_stage(&*stages[i], &run, &dep_artifacts);
        let mut st = state.lock().unwrap_or_else(PoisonError::into_inner);
        match outcome {
            Ok((artifact, report)) => {
                st.results[i] = Some(artifact);
                st.reports[i] = Some(report);
                st.done += 1;
                for &j in &dependents[i] {
                    st.indegree[j] -= 1;
                    if st.indegree[j] == 0 {
                        st.ready.insert(j);
                    }
                }
            }
            Err(e) => {
                st.error.get_or_insert(e);
            }
        }
        wake.notify_all();
    };
    std::thread::scope(|s| {
        for _ in 1..threads.min(n) {
            s.spawn(work);
        }
        work();
    });
    let st = state.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(e) = st.error {
        return Err(e);
    }
    record_store_gauges(store, telemetry);
    let artifacts = names.into_iter().zip(st.results);
    Ok((
        Artifacts(artifacts.filter_map(|(name, a)| Some((name, a?))).collect()),
        st.reports.into_iter().flatten().collect(),
    ))
}

/// Resolves each stage's dependency names to the indices of *earlier*
/// stages, so no cycle can reach the scheduler loop.
fn resolve_deps(
    stages: &[Box<dyn ErasedStage>],
    names: &[String],
) -> Result<Vec<Vec<usize>>, PipelineError> {
    let mut index: HashMap<&str, usize> = HashMap::new();
    let mut resolved = Vec::with_capacity(stages.len());
    for (i, (stage, name)) in stages.iter().zip(names).enumerate() {
        let mut deps = Vec::new();
        for d in stage.deps() {
            let Some(&j) = index.get(d.as_str()) else {
                return Err(PipelineError::Wiring {
                    stage: name.clone(),
                    detail: format!("depends on `{d}`, which names no earlier stage"),
                });
            };
            deps.push(j);
        }
        resolved.push(deps);
        index.insert(name, i);
    }
    Ok(resolved)
}

/// Records the store's end-of-run footprint and durability gauges.
/// Written once after every stage has completed, so the values depend
/// only on what was stored (and quarantined, degraded), never on worker
/// interleaving.
fn record_store_gauges(store: Option<&ArtifactStore>, telemetry: &Telemetry) {
    if let Some(store) = store {
        telemetry.gauge("engine.store.resident_bytes", store.resident_bytes() as f64);
        telemetry.gauge("engine.store.tmp_swept", store.tmp_swept() as f64);
        // 1.0 = the store latched off spilling mid-run (the per-reason
        // transition counter `engine.store.spill_disabled.<reason>`
        // names why).
        let disabled = store.spill_disabled_reason().is_some();
        telemetry.gauge(
            "engine.store.spill_disabled",
            if disabled { 1.0 } else { 0.0 },
        );
    }
}

/// Supervised stage execution: retries retryable [`StageError`]s up to
/// [`MAX_RETRIES`] times and converts whatever survives supervision into
/// a [`PipelineError`] at this boundary.
fn run_stage(
    stage: &dyn ErasedStage,
    run: &RunCtx<'_>,
    deps: &[ErasedArtifact],
) -> Result<(ErasedArtifact, StageReport), PipelineError> {
    let mut attempt: u32 = 0;
    loop {
        match stage.attempt(run, deps, attempt) {
            Ok(done) => return Ok(done),
            Err(e) if e.is_retryable() && attempt < MAX_RETRIES => {
                run.telemetry.count("engine.stage.retries", 1);
                attempt += 1;
            }
            Err(e) => return Err(into_pipeline_error(&stage.name(), attempt + 1, e)),
        }
    }
}

/// One attempt of the cache cascade: memory hit → disk hit → compute
/// (+ validate + spill + store). Injected failures from the fault plan
/// (`config.faults.stage_failures`) fail the first N compute attempts;
/// cache hits never fail — fetching an artifact is not an execution.
fn cascade<S: Stage>(
    stage: &S,
    run: &RunCtx<'_>,
    deps: &[ErasedArtifact],
    attempt: u32,
) -> Result<(Arc<S::Output>, StageReport), StageError> {
    let name = Stage::name(stage);
    let fp = stage_fingerprint(run.config_fp, &name);
    let t = run.telemetry;
    // A durability incident survived on this attempt (quarantined entry,
    // disabled spill) — attached to the recompute report.
    let mut cache_note: Option<String> = None;
    let sw = Stopwatch::start();
    let hit = run
        .store
        .and_then(|store| fetch::<S::Output>(store, t, fp, &name, &mut cache_note));
    let (artifact, cache, wall_ms, validate_ms) = match hit {
        Some((artifact, cache)) => (artifact, cache, sw.elapsed_ms(), 0.0),
        None => {
            if attempt < run.config.faults.failing_attempts(&name) {
                t.count("engine.stage.injected_failures", 1);
                return Err(StageError::Transient {
                    detail: format!("injected fault plan failure (attempt {})", attempt + 1),
                });
            }
            let ctx = StageCtx {
                config: run.config,
                deps,
                threads: run.threads,
                telemetry: t,
            };
            let artifact = Arc::new(stage.run(&ctx)?);
            let wall_ms = sw.elapsed_ms();
            let mut validate_ms = 0.0;
            if run.validate {
                // Validation time is reported separately from compute time.
                let vsw = Stopwatch::start();
                stage.validate(&artifact, &ctx)?;
                validate_ms = vsw.elapsed_ms();
            }
            if let Some(store) = run.store {
                if let Some(dir) = store.spill_target() {
                    let path = io::dataset_cache_path(dir, &fp.to_string(), &name);
                    if let Err(e) = artifact.save(store.vfs(), &path, &name, fp) {
                        // Graceful degradation: latch spill off for the
                        // rest of the run and keep everything resident —
                        // the pipeline completes byte-identically, just
                        // without a disk cache.
                        let reason = io::degrade_reason(&e);
                        if store.disable_spill(reason) {
                            t.count(&format!("engine.store.spill_disabled.{reason}"), 1);
                        }
                        cache_note = Some(format!(
                            "spill disabled ({reason}), artifacts stay in memory: {e}"
                        ));
                    }
                }
                store.put(fp, artifact.clone(), artifact.heap_bytes());
            }
            t.count("engine.cache.miss", 1);
            t.span_record(&format!("stage.{name}"), wall_ms);
            (artifact, CacheStatus::Miss, wall_ms, validate_ms)
        }
    };
    let peak_rss_bytes = crate::telemetry::peak_rss_bytes().unwrap_or_else(|| {
        // Degrade loudly: a 0 in the report plus a counter, not a
        // silently wrong measurement.
        t.count("engine.rss.unavailable", 1);
        0
    });
    let report = StageReport {
        stage: name,
        fingerprint: fp.to_string(),
        seed: stage.seed(run.config),
        wall_ms,
        validate_ms,
        artifact_items: artifact.items(),
        cache,
        attempts: attempt + 1,
        degraded: artifact.health(),
        anomalies: artifact.anomalies(),
        peak_rss_bytes,
        cache_note,
    };
    Ok((artifact, report))
}

/// The cache half of the cascade: a memory hit, else a disk hit
/// (re-inserted into memory). A corrupt entry is never resumed from: it
/// is counted, quarantined and noted in `cache_note`, and the stage
/// recomputes (which re-publishes a fresh entry).
fn fetch<T: Artifact>(
    store: &ArtifactStore,
    t: &Telemetry,
    fp: Fingerprint,
    name: &str,
    cache_note: &mut Option<String>,
) -> Option<(Arc<T>, CacheStatus)> {
    if let Some(artifact) = store.get::<T>(fp) {
        t.count("engine.cache.hit_memory", 1);
        return Some((artifact, CacheStatus::HitMemory));
    }
    let path = io::dataset_cache_path(store.disk_dir()?, &fp.to_string(), name);
    match T::load(store.vfs(), &path, name, fp) {
        CacheRead::Hit(value) => {
            let artifact = Arc::new(value);
            store.put(fp, artifact.clone(), artifact.heap_bytes());
            t.count("engine.cache.hit_disk", 1);
            Some((artifact, CacheStatus::HitDisk))
        }
        CacheRead::Miss => None,
        CacheRead::Corrupt(reason) => {
            store.note_corrupt();
            t.count("engine.store.corrupt_detected", 1);
            let fate = match store.quarantine(&path) {
                Some(_) => {
                    t.count("engine.store.quarantined", 1);
                    "quarantined and regenerated"
                }
                None => "regenerated in place",
            };
            *cache_note = Some(format!("corrupt cache entry {fate}: {reason}"));
            None
        }
    }
}

/// Runs `n` independent jobs on up to `threads` scoped workers,
/// returning results in job order regardless of completion order.
///
/// With `threads <= 1` (or a single job) the jobs run in order on the
/// calling thread and no worker is spawned. Jobs must be independently
/// deterministic: nothing about worker assignment may leak into their
/// output.
pub fn parallel_map<T, F>(threads: usize, n: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Send + Sync,
{
    if threads <= 1 || n <= 1 {
        return (0..n).map(job).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let value = job(i);
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // lint: allow(unwrap): the atomic counter hands every index to exactly one worker
                .expect("every job index was claimed and completed")
        })
        .collect()
}

/// The engine's [`ChunkExec`]: [`parallel_map`] plus the
/// `engine.parallel_map.*` telemetry every interior-parallel path
/// carries.
///
/// Chunk counts are decided by the *caller* from fixed constants, so
/// every counter here (calls, jobs, per-stage chunks) and the optional
/// per-chunk span count are identical at any thread count — which is
/// what lets the thread-matrix telemetry tests compare snapshots
/// byte-for-byte.
#[derive(Debug, Clone, Copy)]
pub struct EngineExec<'a> {
    threads: usize,
    telemetry: &'a Telemetry,
    /// Stage label for the per-stage chunk counter
    /// (`engine.parallel_map.<stage>.chunks`).
    stage: &'a str,
    /// Optional span key recorded once per chunk with the chunk's wall
    /// time (masked snapshots keep only the count, which is
    /// thread-invariant).
    span: Option<&'a str>,
}

impl<'a> EngineExec<'a> {
    /// Builds an executor for `stage` running on up to `threads`
    /// workers.
    pub fn new(threads: usize, telemetry: &'a Telemetry, stage: &'a str) -> Self {
        Self {
            threads,
            telemetry,
            stage,
            span: None,
        }
    }

    /// Records `span` once per chunk with the chunk's wall time.
    #[must_use]
    pub fn with_span(mut self, span: &'a str) -> Self {
        self.span = Some(span);
        self
    }
}

impl ChunkExec for EngineExec<'_> {
    fn dispatch<T: Send>(&self, n: usize, job: &(dyn Fn(usize) -> T + Sync)) -> Vec<T> {
        let out = parallel_map(self.threads, n, |i| match self.span {
            Some(key) => {
                let sw = Stopwatch::start();
                let value = job(i);
                self.telemetry.span_record(key, sw.elapsed_ms());
                value
            }
            None => job(i),
        });
        self.telemetry.count("engine.parallel_map.calls", 1);
        self.telemetry.count("engine.parallel_map.jobs", n as u64);
        self.telemetry.count(
            &format!("engine.parallel_map.{}.chunks", self.stage),
            n as u64,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::NearestHints;
    use std::thread::ThreadId;
    use std::time::Duration;

    impl Artifact for ThreadId {}

    /// A test stage `(name, deps, misread)` returning the id of the
    /// thread it ran on, after reading its first dependency as a
    /// `ThreadId` (or, when `misread`, as the wrong type).
    struct Probe(&'static str, &'static [&'static str], bool);

    impl Stage for Probe {
        type Output = ThreadId;

        fn name(&self) -> String {
            self.0.into()
        }

        fn deps(&self) -> Vec<String> {
            self.1.iter().map(|d| d.to_string()).collect()
        }

        fn seed(&self, _config: &PipelineConfig) -> u64 {
            0
        }

        fn run(&self, ctx: &StageCtx<'_>) -> Result<ThreadId, StageError> {
            if self.2 {
                ctx.dep::<NearestHints>(0)?;
            } else if !self.1.is_empty() {
                ctx.dep::<ThreadId>(0)?;
            }
            Ok(std::thread::current().id())
        }
    }

    fn probe(name: &'static str, deps: &'static [&'static str]) -> Box<dyn ErasedStage> {
        Box::new(Probe(name, deps, false))
    }

    type Executed = Result<(Artifacts, Vec<StageReport>), PipelineError>;

    /// Executes `stages` on a fresh thread, returning that thread's id
    /// and the result; a run that hangs fails the test instead of the
    /// suite.
    fn execute_with_timeout(
        stages: Vec<Box<dyn ErasedStage>>,
        threads: usize,
    ) -> (ThreadId, Executed) {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let config = PipelineConfig::tiny(1);
            let result = execute(
                &stages,
                &config,
                false,
                threads,
                None,
                &Telemetry::disabled(),
            );
            let _ = tx.send((std::thread::current().id(), result));
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("execute neither returned nor panicked")
    }

    fn assert_wiring_error(result: Executed, expect_stage: &str) {
        match result {
            Err(PipelineError::Wiring { stage, .. }) => assert_eq!(stage, expect_stage),
            other => panic!("expected a wiring error naming `{expect_stage}`, got {other:?}"),
        }
    }

    #[test]
    fn unknown_dependency_is_a_typed_error() {
        for threads in [1, 4] {
            let stages = vec![probe("a", &[]), probe("b", &["nope"])];
            assert_wiring_error(execute_with_timeout(stages, threads).1, "b");
        }
    }

    #[test]
    fn dependency_cycle_is_a_typed_error() {
        for threads in [1, 4] {
            let stages = vec![probe("a", &["b"]), probe("b", &["a"])];
            assert_wiring_error(execute_with_timeout(stages, threads).1, "a");
        }
    }

    #[test]
    fn wrong_dependency_type_is_a_typed_error() {
        let misread = Box::new(Probe("b", &["a"], true));
        let (_, result) = execute_with_timeout(vec![probe("a", &[]), misread], 1);
        assert_wiring_error(result, "b");
    }

    #[test]
    fn one_worker_runs_every_stage_on_the_calling_thread() {
        let stages = vec![probe("a", &[]), probe("b", &["a"]), probe("c", &["a"])];
        let (caller, result) = execute_with_timeout(stages, 1);
        let (mut artifacts, reports) = result.expect("graph runs");
        assert_eq!(reports.len(), 3);
        for name in ["a", "b", "c"] {
            let ran_on = artifacts.take::<ThreadId>(name).expect("typed artifact");
            assert_eq!(*ran_on, caller, "stage {name} ran off the calling thread");
        }
    }

    #[test]
    fn parallel_map_preserves_job_order() {
        let out = parallel_map(4, 32, |i| i * i);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_sequential_path_matches() {
        let seq = parallel_map(1, 10, |i| i + 1);
        let par = parallel_map(3, 10, |i| i + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert_eq!(parallel_map(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(4, 1, |i| i), vec![0]);
    }

    #[test]
    fn resolve_threads_prefers_explicit_knob() {
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn resolve_threads_auto_is_positive() {
        // knob 0 resolves via env or hardware; either way it is >= 1.
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn parse_threads_env_accepts_positive_integers() {
        assert_eq!(parse_threads_env("4"), Ok(4));
        assert_eq!(parse_threads_env(" 8 "), Ok(8));
        assert_eq!(parse_threads_env("1"), Ok(1));
    }

    #[test]
    fn parse_threads_env_rejects_malformed_values() {
        // The trio from the bug report: each used to be silently
        // swallowed by resolve_threads; now each carries a reason that
        // threads_env_warning surfaces (and --trace prints).
        for bad in ["abc", "0", "-2", "", "  ", "3.5"] {
            let err = parse_threads_env(bad).unwrap_err();
            assert!(!err.is_empty(), "no reason for {bad:?}");
        }
        assert!(parse_threads_env("0").unwrap_err().contains("positive"));
        assert!(parse_threads_env("abc").unwrap_err().contains("abc"));
    }

    #[test]
    fn cache_status_displays() {
        assert_eq!(CacheStatus::Miss.to_string(), "miss");
        assert_eq!(CacheStatus::HitMemory.to_string(), "memory");
        assert_eq!(CacheStatus::HitDisk.to_string(), "disk");
    }
}
