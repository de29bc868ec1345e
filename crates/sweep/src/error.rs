//! Typed errors for sweep execution and the result cache.
//!
//! The engine used to surface every failure as a bare `String` (and a
//! poisoned worker as a panic deep inside the aggregation loop); these
//! variants keep the failing *cell* attached to its *cause* so a
//! 500-cell campaign that loses one worker reports which cell died
//! instead of aborting the whole run with an opaque `expect`.

use std::fmt;

/// An error raised while executing a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The spec failed [`SweepSpec::validate`](crate::SweepSpec::validate).
    InvalidSpec(String),
    /// One cell's simulation panicked, produced an unphysical result
    /// (see [`RunResult::check`](therm3d::RunResult::check)) or its
    /// worker died; `cell` is the human-readable descriptor from
    /// [`SweepCell::describe`](crate::SweepCell::describe).
    CellFailed {
        /// Which cell died (index + resolved axes).
        cell: String,
        /// The panic payload, the broken rule or the worker-loss
        /// description.
        cause: String,
    },
    /// The result cache could not be opened, read or appended to.
    Cache {
        /// The cache path involved.
        path: String,
        /// The underlying I/O failure.
        cause: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::InvalidSpec(msg) => write!(f, "invalid sweep spec: {msg}"),
            SweepError::CellFailed { cell, cause } => {
                write!(f, "sweep cell failed: {cell}: {cause}")
            }
            SweepError::Cache { path, cause } => write!(f, "sweep cache `{path}`: {cause}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<SweepError> for String {
    fn from(e: SweepError) -> Self {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_keeps_cell_and_cause_together() {
        let e = SweepError::CellFailed {
            cell: "cell #3 (EXP-2, Adapt3D, dpm=false, trace_seed=2009)".into(),
            cause: "index out of bounds".into(),
        };
        let s = e.to_string();
        assert!(s.contains("cell #3"), "{s}");
        assert!(s.contains("index out of bounds"), "{s}");
    }

    #[test]
    fn variants_render_their_context() {
        assert!(SweepError::InvalidSpec("`seeds` axis must not be empty".into())
            .to_string()
            .contains("seeds"));
        let e = SweepError::Cache { path: "/tmp/c".into(), cause: "permission denied".into() };
        assert!(e.to_string().contains("/tmp/c"), "{e}");
    }
}
