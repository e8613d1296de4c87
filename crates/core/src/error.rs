//! Error type for the ACIC pipeline.

use acic_cloudsim::error::CloudSimError;
use std::fmt;

/// Errors surfaced by the ACIC pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum AcicError {
    /// The underlying simulator rejected a run.
    Sim(CloudSimError),
    /// A query or training request was invalid.
    Invalid(String),
    /// No training data available for prediction.
    Untrained,
    /// A filesystem operation on a training artifact failed.
    Io {
        /// The path being read or written.
        path: String,
        /// The underlying OS error, rendered.
        reason: String,
    },
    /// A checkpoint journal is unusable (corrupt header, wrong campaign,
    /// out-of-range entries).
    Journal {
        /// The journal path.
        path: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A durable training store (or published snapshot) file violated the
    /// store format.  Torn WAL tails never raise this — those are
    /// truncated and reported; this is reserved for real corruption of
    /// data the store promised to keep immutable.
    Store {
        /// The offending file or directory.
        path: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl AcicError {
    /// True for errors that a bounded retry can plausibly clear — today,
    /// only injected connection losses (paper §5.6 observation 5).  All
    /// other errors are permanent: re-running the same deterministic
    /// simulation cannot fix an invalid configuration.
    pub fn is_transient(&self) -> bool {
        matches!(self, AcicError::Sim(CloudSimError::InjectedFault { .. }))
    }

    /// Wrap an I/O error with the path it happened on.
    pub fn io(path: &std::path::Path, err: std::io::Error) -> Self {
        AcicError::Io { path: path.display().to_string(), reason: err.to_string() }
    }
}

impl fmt::Display for AcicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcicError::Sim(e) => write!(f, "simulation failed: {e}"),
            AcicError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            AcicError::Untrained => write!(f, "the prediction model has no training data"),
            AcicError::Io { path, reason } => write!(f, "I/O error on {path}: {reason}"),
            AcicError::Journal { path, reason } => {
                write!(f, "unusable training journal {path}: {reason}")
            }
            AcicError::Store { path, reason } => write!(f, "unusable {path}: {reason}"),
        }
    }
}

impl std::error::Error for AcicError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AcicError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CloudSimError> for AcicError {
    fn from(e: CloudSimError) -> Self {
        AcicError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = AcicError::from(CloudSimError::InvalidCluster("x".into()));
        assert!(e.to_string().contains("simulation failed"));
        assert!(std::error::Error::source(&e).is_some());
        let e = AcicError::Invalid("bad field".into());
        assert!(e.to_string().contains("bad field"));
        assert!(std::error::Error::source(&e).is_none());
        // The path or reason names the file kind (MANIFEST, snapshot),
        // so the variant does not name one itself.
        let e = AcicError::Store {
            path: "snap.txt".into(),
            reason: "snapshot holds 11 samples, header says 12".into(),
        };
        assert_eq!(e.to_string(), "unusable snap.txt: snapshot holds 11 samples, header says 12");
    }

    #[test]
    fn io_and_journal_variants_name_the_path() {
        let e = AcicError::io(
            std::path::Path::new("/nope/db.txt"),
            std::io::Error::new(std::io::ErrorKind::NotFound, "missing"),
        );
        assert!(e.to_string().contains("/nope/db.txt"));
        assert!(e.to_string().contains("missing"));
        let e = AcicError::Journal { path: "j.log".into(), reason: "wrong campaign".into() };
        assert!(e.to_string().contains("j.log"));
        assert!(e.to_string().contains("wrong campaign"));
    }

    #[test]
    fn only_injected_faults_are_transient() {
        let fault =
            AcicError::Sim(CloudSimError::InjectedFault { time: 1.0, what: "lost conn".into() });
        assert!(fault.is_transient());
        for e in [
            AcicError::Sim(CloudSimError::InvalidCluster("x".into())),
            AcicError::Invalid("x".into()),
            AcicError::Untrained,
            AcicError::Store { path: "s".into(), reason: "r".into() },
        ] {
            assert!(!e.is_transient(), "{e} must be permanent");
        }
    }
}
