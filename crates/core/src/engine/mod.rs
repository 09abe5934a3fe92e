//! The stage-graph execution engine.
//!
//! [`Pipeline::run`](crate::pipeline::Pipeline::run) used to be a
//! sequential monolith; it now compiles to an explicit graph of typed
//! [`Stage`]s — population grids, world generation, route-table
//! synthesis, the two collectors, the two mapping tools, and the four
//! processed-dataset jobs — executed by a deterministic scheduler
//! ([`execute`]) on scoped worker threads. Independent stages run
//! concurrently (Skitter ∥ Mercator, the four `process_chunked` jobs, the
//! per-region population grids); dependent stages wait on their named
//! dependencies.
//!
//! Each stage declares the type it produces ([`Stage::Output`]), and
//! everything the engine needs to know about that type — item count,
//! heap bytes, health, anomalies, and for persisted types the disk load
//! and save — is one [`Artifact`] impl per type. The scheduler holds
//! stages through [`ErasedStage`], whose one blanket impl is the only
//! place an output's type is erased.
//!
//! Five properties the engine guarantees:
//!
//! - **Determinism.** Every stage derives its RNG seed from the
//!   configuration, never from scheduling, so output is byte-identical
//!   at any thread count (the determinism suite asserts this).
//! - **Reuse.** Artifacts are keyed by a canonical config
//!   [`Fingerprint`]; a shared [`ArtifactStore`] lets a second run of
//!   the same config skip regeneration entirely (memory), and persisted
//!   artifact types additionally spill to disk via `io.rs`.
//! - **Observability.** Each stage execution records a [`StageReport`]
//!   (wall time, validation time, artifact size, cache outcome,
//!   attempts, degradation, anomalies), surfaced through
//!   `PipelineOutput::reports` and `--trace`.
//! - **Supervision.** Stages fail with a typed [`StageError`]; the
//!   scheduler retries transient failures (twice), records
//!   degraded-but-acceptable outcomes (monitor quorum runs) instead of
//!   aborting, and — with a disk-backed store — a killed run resumes
//!   from the last fingerprint-valid artifacts.
//! - **Durability.** Disk cache entries are checksummed, versioned
//!   envelopes published atomically through the [`crate::vfs::Vfs`]
//!   seam; damaged entries are quarantined and regenerated
//!   ([`CacheRead::Corrupt`]), a failed spill degrades the store to
//!   in-memory residency, and the chaos suite (`tests/chaos.rs`) sweeps
//!   injected disk faults across every filesystem op to hold the
//!   contract: byte-identical completion or a typed error, never silent
//!   divergence.

mod fingerprint;
mod scheduler;
mod stages;
mod store;
mod supervise;

pub use fingerprint::{config_fingerprint, stage_fingerprint, Fingerprint};
pub use scheduler::{
    execute, parallel_map, parse_threads_env, resolve_threads, threads_env_warning, Artifacts,
    CacheStatus, EngineExec, ErasedStage, RunCtx, StageReport,
};
pub use stages::{map_stage_name, pipeline_stages, pop_grid_name};
pub use stages::{
    COLLECT_MERCATOR, COLLECT_SKITTER, GAZETTEER, GROUND_TRUTH, MAPPER_EDGESCAPE, MAPPER_IXMAPPER,
    NEAREST_HINTS, ORG_DB, QUERY_SNAPSHOT, ROUTE_TABLE,
};
pub use store::ArtifactStore;
pub use supervise::StageError;

pub(crate) use fingerprint::{fnv1a, FNV_OFFSET};
pub(crate) use stages::TABLE_I_ORDER;

use crate::io::{CacheRead, IoError};
use crate::pipeline::PipelineConfig;
use crate::telemetry::Telemetry;
use crate::vfs::Vfs;
use std::any::Any;
use std::path::Path;
use std::sync::Arc;

/// A stage output with its type erased: how the scheduler hands
/// artifacts between stages and how the store keeps them.
pub type ErasedArtifact = Arc<dyn Any + Send + Sync>;

/// What the engine needs to know about one artifact type, implemented
/// once per type a [`Stage`] produces. The defaults describe a
/// memory-only, always-healthy artifact of one item and unknown size.
pub trait Artifact: Any + Send + Sync + Sized {
    /// Size in type-specific items (routers, table entries, nodes...),
    /// for the [`StageReport`].
    fn items(&self) -> usize {
        1
    }

    /// Approximate heap size in bytes, for the store's resident-bytes
    /// gauge (`0` = unknown).
    fn heap_bytes(&self) -> usize {
        0
    }

    /// A degradation note when the artifact is usable but partial (e.g.
    /// a collection that lost monitors to an outage but kept quorum).
    /// Recorded in the [`StageReport`]; `None` means fully healthy.
    fn health(&self) -> Option<String> {
        None
    }

    /// A one-line summary of collection anomalies survived while
    /// producing the artifact, for `--trace`. `None` when clean.
    fn anomalies(&self) -> Option<String> {
        None
    }

    /// Reloads the artifact from its cache entry at `path`. Types without
    /// a persistent form report a miss without touching the disk; an
    /// entry that fails any integrity check or load guard must be
    /// [`CacheRead::Corrupt`] (never folded into a miss) so the scheduler
    /// quarantines and counts it before regenerating.
    fn load(_vfs: &dyn Vfs, _path: &Path, _stage: &str, _fp: Fingerprint) -> CacheRead<Self> {
        CacheRead::Miss
    }

    /// Publishes the artifact as the cache entry at `path` through the
    /// envelope writer; types without a persistent form write nothing.
    ///
    /// # Errors
    ///
    /// The failed write, on which the scheduler latches spill off for the
    /// rest of the run (graceful degradation to in-memory residency).
    fn save(
        &self,
        _vfs: &dyn Vfs,
        _path: &Path,
        _stage: &str,
        _fp: Fingerprint,
    ) -> Result<(), IoError> {
        Ok(())
    }
}

/// Everything a running stage sees: the pipeline configuration, the
/// artifacts of its declared dependencies, the run's worker count and its
/// telemetry registry.
#[derive(Debug)]
pub struct StageCtx<'a> {
    /// The full pipeline configuration.
    pub config: &'a PipelineConfig,
    /// Dependency artifacts, in [`Stage::deps`] order.
    deps: &'a [ErasedArtifact],
    /// Worker threads the run resolved once, for stage interiors.
    threads: usize,
    /// The run's metrics registry (write-only from stages).
    telemetry: &'a Telemetry,
}

impl StageCtx<'_> {
    /// The run's telemetry registry. Stages record domain counters here
    /// (probe volumes, resolution paths, LPM stats); the registry is
    /// write-only, so recording can never perturb an artifact.
    pub fn telemetry(&self) -> &Telemetry {
        self.telemetry
    }

    /// An executor fanning the stage's interior chunks out over the run's
    /// workers, counting them under `label`.
    pub fn exec<'b>(&'b self, label: &'b str) -> EngineExec<'b> {
        EngineExec::new(self.threads, self.telemetry, label)
    }

    /// The `index`-th dependency (in [`Stage::deps`] order) as its
    /// concrete type.
    ///
    /// # Errors
    ///
    /// [`StageError::Wiring`] when the stage declared no dependency at
    /// `index` or the producing stage's artifact is not a `T`.
    pub fn dep<T: Artifact>(&self, index: usize) -> Result<Arc<T>, StageError> {
        let wiring = |detail: String| StageError::Wiring { detail };
        let dep = self
            .deps
            .get(index)
            .ok_or_else(|| wiring(format!("no dependency {index}")))?;
        dep.clone().downcast().map_err(|_| {
            let ty = std::any::type_name::<T>();
            wiring(format!("dependency {index} is not a `{ty}`"))
        })
    }
}

/// One node of the pipeline's stage graph.
///
/// Implementations must be pure functions of the configuration and
/// their dependency artifacts: any randomness comes from an RNG seeded
/// by [`Stage::seed`] (itself derived only from the config), so the
/// artifact is identical however the scheduler interleaves stages.
pub trait Stage: Send + Sync {
    /// The artifact type this stage produces.
    type Output: Artifact;

    /// Unique stage name; doubles as the dependency reference and the
    /// fingerprint discriminator.
    fn name(&self) -> String;

    /// Names of the stages whose artifacts this stage consumes.
    fn deps(&self) -> Vec<String> {
        Vec::new()
    }

    /// The config-derived seed this stage's RNG runs with (reported in
    /// the [`StageReport`]; stages without randomness report the seed of
    /// the structure they derive from).
    fn seed(&self, config: &PipelineConfig) -> u64;

    /// Computes the stage's artifact.
    ///
    /// # Errors
    ///
    /// A classified [`StageError`]; the scheduler retries retryable
    /// failures.
    fn run(&self, ctx: &StageCtx<'_>) -> Result<Self::Output, StageError>;

    /// Checks the artifact's cross-layer invariants (called by the
    /// scheduler only when validation is active; timed separately).
    ///
    /// # Errors
    ///
    /// The violated invariant, as [`StageError::Invariant`].
    fn validate(&self, _out: &Self::Output, _ctx: &StageCtx<'_>) -> Result<(), StageError> {
        Ok(())
    }
}
