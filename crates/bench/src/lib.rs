//! Code shared by the geotopo perf-gate benches (`pipeline_stages` and
//! `query`): when a thread-scaling gate can be enforced.

/// Why a bench's thread-scaling gate cannot be enforced on this run.
///
/// The scaling gates compare a parallel run against the 1-thread run,
/// which only measures real speedup when (a) the host has at least as
/// many cores as the parallel worker count and (b) the committed
/// baseline was recorded on a host with the same core count — a 4-core
/// scaling curve checked against a 1-core recording gates noise, not
/// regressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScalingGateSkip {
    /// The host has fewer cores than the parallel run's worker count.
    HostTooNarrow {
        /// Cores available on this host.
        host_cores: usize,
        /// Worker count of the parallel run.
        threads: usize,
    },
    /// The committed baseline was recorded on a host with a different
    /// core count.
    BaselineCoreMismatch {
        /// `host_cores` recorded in the committed baseline entry.
        baseline_cores: u64,
        /// Cores available on this host.
        host_cores: usize,
    },
}

impl std::fmt::Display for ScalingGateSkip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScalingGateSkip::HostTooNarrow {
                host_cores,
                threads,
            } => write!(
                f,
                "scaling gate skipped: host has {host_cores} core(s) < {threads} threads \
                 (enforced on multi-core CI)"
            ),
            ScalingGateSkip::BaselineCoreMismatch {
                baseline_cores,
                host_cores,
            } => write!(
                f,
                "scaling gate skipped: committed host_cores={baseline_cores} vs {host_cores} \
                 (re-record with `cargo xtask bench --update` on this host to enforce it)"
            ),
        }
    }
}

/// Decides whether a thread-scaling gate must be skipped, and why.
/// Returns `None` when the gate can be enforced. `baseline_cores` is the
/// `host_cores` field of the committed baseline entry (absent in
/// baselines that predate it — those enforce, preserving old behaviour).
pub fn scaling_gate_skip(
    host_cores: usize,
    par_threads: usize,
    baseline_cores: Option<u64>,
) -> Option<ScalingGateSkip> {
    if host_cores < par_threads {
        return Some(ScalingGateSkip::HostTooNarrow {
            host_cores,
            threads: par_threads,
        });
    }
    match baseline_cores {
        Some(b) if b != host_cores as u64 => Some(ScalingGateSkip::BaselineCoreMismatch {
            baseline_cores: b,
            host_cores,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::{scaling_gate_skip, ScalingGateSkip};

    #[test]
    fn scaling_gate_enforced_on_comparable_hosts() {
        assert_eq!(scaling_gate_skip(4, 4, Some(4)), None);
        // Baselines without host_cores (pre-recording) still enforce.
        assert_eq!(scaling_gate_skip(4, 4, None), None);
    }

    #[test]
    fn scaling_gate_skipped_on_narrow_host() {
        let skip = scaling_gate_skip(1, 4, Some(1)).expect("narrow host skips");
        assert_eq!(
            skip,
            ScalingGateSkip::HostTooNarrow {
                host_cores: 1,
                threads: 4
            }
        );
        assert!(skip
            .to_string()
            .starts_with("scaling gate skipped: host has 1 core(s)"));
    }

    #[test]
    fn scaling_gate_skip_names_committed_core_count() {
        // The known-noisy case: the committed small baseline was
        // recorded single-core, the CI host is wider. The line must say
        // so explicitly instead of reading as a silent regression.
        let skip = scaling_gate_skip(4, 4, Some(1)).expect("core mismatch skips");
        let line = skip.to_string();
        assert!(
            line.contains("scaling gate skipped: committed host_cores=1 vs 4"),
            "unexpected skip line: {line}"
        );
    }

    #[test]
    fn narrow_host_takes_precedence_over_core_mismatch() {
        assert_eq!(
            scaling_gate_skip(2, 4, Some(8)),
            Some(ScalingGateSkip::HostTooNarrow {
                host_cores: 2,
                threads: 4
            })
        );
    }
}
