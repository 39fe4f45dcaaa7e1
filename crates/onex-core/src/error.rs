use onex_ts::TsError;
use std::fmt;
use std::path::{Path, PathBuf};

/// Errors produced by the ONEX system.
#[derive(Debug, Clone, PartialEq)]
pub enum OnexError {
    /// The similarity threshold must be a finite positive number (the paper's
    /// normalized thresholds live in (0, 1], but larger values are accepted —
    /// they simply merge everything).
    InvalidThreshold(f64),
    /// A query sequence was empty or shorter than the smallest decomposed
    /// length.
    QueryTooShort {
        /// The query length supplied.
        len: usize,
        /// The minimum usable length.
        min_len: usize,
    },
    /// A query sequence contained a non-finite value.
    NonFiniteQuery {
        /// Index of the offending sample.
        index: usize,
    },
    /// No similarity groups exist for the requested length.
    NoGroupsForLength(usize),
    /// A seasonal query referenced a series not present in the dataset.
    UnknownSeries(usize),
    /// The base holds no groups at all (empty dataset or degenerate
    /// decomposition).
    EmptyBase,
    /// A per-query budget (time or DTW-evaluation cap) expired before any
    /// candidate was evaluated, so there is no best-effort answer to
    /// return. Budgets that expire *after* a candidate was found return
    /// that candidate with `QueryStats::truncated` set instead.
    BudgetExhausted,
    /// An error bubbled up from the time-series substrate.
    Ts(TsError),
    /// A snapshot could not be decoded: structural damage, a truncation, or
    /// (v2) a CRC-32 checksum mismatch. The message states which.
    SnapshotCorrupt(String),
    /// Refinement was requested with an unusable target threshold.
    InvalidRefinement(String),
    /// A lifecycle file operation (snapshot save/load, WAL journaling)
    /// failed at the filesystem level; the error names the operation, the
    /// path and the cause.
    Io(IoError),
    /// Admission control shed this query: the engine already had
    /// [`crate::OnexConfig::max_inflight`] queries in flight. Overload is
    /// surfaced immediately and typed — never queued unboundedly — so a
    /// serving tier can retry, back off, or fail over.
    Overloaded {
        /// The configured in-flight ceiling that was hit.
        max_inflight: usize,
    },
    /// A deep structural invariant of the base failed to hold (see
    /// [`crate::OnexBase::validate_invariants`]): slab strides, envelope
    /// ordering, sketch-plane recomputes, membership reconciliation. The
    /// message names the invariant and its location.
    InvariantViolation(String),
}

impl fmt::Display for OnexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnexError::InvalidThreshold(st) => {
                write!(f, "similarity threshold must be finite and > 0, got {st}")
            }
            OnexError::QueryTooShort { len, min_len } => {
                write!(
                    f,
                    "query of length {len} is shorter than the minimum decomposed length {min_len}"
                )
            }
            OnexError::NonFiniteQuery { index } => {
                write!(f, "query contains a non-finite value at index {index}")
            }
            OnexError::NoGroupsForLength(len) => {
                write!(f, "no similarity groups exist for length {len}")
            }
            OnexError::UnknownSeries(id) => write!(f, "series {id} is not in the dataset"),
            OnexError::EmptyBase => write!(f, "the ONEX base contains no groups"),
            OnexError::BudgetExhausted => write!(
                f,
                "query budget exhausted before any candidate was evaluated"
            ),
            OnexError::Ts(e) => write!(f, "substrate error: {e}"),
            OnexError::SnapshotCorrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
            OnexError::InvalidRefinement(msg) => write!(f, "invalid refinement: {msg}"),
            OnexError::Io(e) => write!(f, "i/o error: {e}"),
            OnexError::Overloaded { max_inflight } => write!(
                f,
                "query shed by admission control: {max_inflight} queries already in flight"
            ),
            OnexError::InvariantViolation(msg) => {
                write!(f, "invariant violation: {msg}")
            }
        }
    }
}

/// A failed file operation. It can only be built through [`IoError::new`],
/// which takes the path, so no I/O error reaches a caller without naming
/// the file it failed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoError {
    op: &'static str,
    path: PathBuf,
    detail: String,
}

impl IoError {
    /// `op` says what was being done ("reading snapshot"), `detail` why it
    /// failed (usually the OS error).
    pub fn new(op: &'static str, path: &Path, detail: impl fmt::Display) -> Self {
        IoError {
            op,
            path: path.to_path_buf(),
            detail: detail.to_string(),
        }
    }

    /// The file the operation failed on.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}: {}", self.op, self.path.display(), self.detail)
    }
}

impl std::error::Error for OnexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OnexError::Ts(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TsError> for OnexError {
    fn from(e: TsError) -> Self {
        OnexError::Ts(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = OnexError::QueryTooShort { len: 1, min_len: 2 };
        assert!(e.to_string().contains("length 1"));
        let e = OnexError::Ts(TsError::EmptySeries);
        assert!(e.to_string().contains("substrate"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
