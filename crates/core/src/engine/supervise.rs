//! Stage supervision: a typed error taxonomy and the retry bound.
//!
//! The engine used to abort the whole run on the first stage error. Under
//! fault injection that is the wrong contract: a transient failure of a
//! pure stage is recoverable by re-running it, a lost monitor is
//! recoverable by degrading to a quorum, and only genuine invariant
//! violations or generation failures should kill a run. [`StageError`]
//! classifies the failure, [`MAX_RETRIES`] bounds the recovery, and the
//! scheduler converts whatever survives supervision back into a
//! [`PipelineError`] at the boundary so existing callers see the same
//! error type they always did.

use crate::pipeline::PipelineError;
use geotopo_topology::generate::ground_truth::GroundTruthError;

/// How often the scheduler re-runs a stage after a retryable failure.
/// Every stage is pure, so a couple of retries are always safe.
pub(crate) const MAX_RETRIES: u32 = 2;

/// A classified stage failure.
#[derive(Debug)]
pub enum StageError {
    /// World generation failed. Deterministic: retrying cannot help.
    Generation(GroundTruthError),
    /// A cross-layer invariant validator found a corrupt artifact.
    /// Deterministic: retrying reproduces the same bytes.
    Invariant {
        /// What was violated.
        detail: String,
    },
    /// The stage graph is miswired: a dependency is missing or has an
    /// unexpected artifact type. Deterministic: retrying cannot help.
    Wiring {
        /// What was miswired.
        detail: String,
    },
    /// A transient infrastructure failure (injected or environmental).
    /// Retryable: the stage is pure, so a re-run can succeed and
    /// produces identical output when it does.
    Transient {
        /// What failed.
        detail: String,
    },
    /// Too few monitors survived the campaign for the collection to
    /// stand for the paper's dataset. Not retryable: the outage plan is
    /// deterministic, so a re-run loses the same monitors.
    QuorumLost {
        /// Monitors that stayed healthy.
        active: usize,
        /// Monitors the campaign planned.
        planned: usize,
        /// The quorum threshold that was missed.
        need: usize,
    },
}

impl std::fmt::Display for StageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StageError::Generation(e) => write!(f, "ground-truth generation failed: {e}"),
            StageError::Invariant { detail } => write!(f, "invariant violated: {detail}"),
            StageError::Wiring { detail } => write!(f, "stage graph miswired: {detail}"),
            StageError::Transient { detail } => write!(f, "transient failure: {detail}"),
            StageError::QuorumLost {
                active,
                planned,
                need,
            } => write!(
                f,
                "monitor quorum lost: {active}/{planned} healthy, need {need}"
            ),
        }
    }
}

impl std::error::Error for StageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StageError::Generation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GroundTruthError> for StageError {
    fn from(e: GroundTruthError) -> Self {
        StageError::Generation(e)
    }
}

impl StageError {
    /// Whether re-running the stage can change the outcome.
    pub fn is_retryable(&self) -> bool {
        matches!(self, StageError::Transient { .. })
    }
}

/// Converts a supervision-final error of stage `stage` into the public
/// [`PipelineError`], preserving the legacy variants for generation and
/// invariant failures so existing matches keep working.
pub(crate) fn into_pipeline_error(stage: &str, attempts: u32, e: StageError) -> PipelineError {
    let stage = stage.to_string();
    match e {
        StageError::Generation(g) => PipelineError::GroundTruth(g),
        StageError::Invariant { detail } => PipelineError::Invariant { stage, detail },
        StageError::Wiring { detail } => PipelineError::Wiring { stage, detail },
        other => PipelineError::Stage {
            stage,
            attempts,
            detail: other.to_string(),
        },
    }
}

/// Adapts a stage-local invariant check into a [`StageError`].
///
/// # Errors
///
/// Maps any `Err` to [`StageError::Invariant`].
pub(crate) fn check_invariant<E: std::fmt::Display>(
    result: Result<(), E>,
) -> Result<(), StageError> {
    result.map_err(|e| StageError::Invariant {
        detail: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_transient_errors_are_retryable() {
        assert!(StageError::Transient {
            detail: "injected".into()
        }
        .is_retryable());
        assert!(!StageError::Invariant { detail: "x".into() }.is_retryable());
        assert!(!StageError::Wiring { detail: "x".into() }.is_retryable());
        assert!(!StageError::QuorumLost {
            active: 3,
            planned: 19,
            need: 10
        }
        .is_retryable());
    }

    #[test]
    fn boundary_conversion_preserves_legacy_variants() {
        let e = into_pipeline_error(
            "map-ixmapper-skitter",
            1,
            StageError::Invariant {
                detail: "bad".into(),
            },
        );
        match e {
            PipelineError::Invariant { stage, .. } => assert_eq!(stage, "map-ixmapper-skitter"),
            other => panic!("wrong variant: {other:?}"),
        }
        let e = into_pipeline_error(
            "collect-skitter",
            3,
            StageError::Transient {
                detail: "injected".into(),
            },
        );
        match e {
            PipelineError::Stage {
                stage, attempts, ..
            } => {
                assert_eq!(stage, "collect-skitter");
                assert_eq!(attempts, 3);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn display_is_informative() {
        let s = StageError::QuorumLost {
            active: 4,
            planned: 19,
            need: 10,
        }
        .to_string();
        assert!(s.contains("4/19"));
        assert!(s.contains("need 10"));
    }
}
