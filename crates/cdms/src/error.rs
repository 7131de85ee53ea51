//! Error type shared across the CDMS substrate.

use std::fmt;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CdmsError>;

/// Errors raised by data-management operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CdmsError {
    /// Shapes of operands are incompatible (and not broadcastable).
    ShapeMismatch { expected: Vec<usize>, got: Vec<usize> },
    /// An axis index is out of range for the array rank.
    AxisOutOfRange { axis: usize, rank: usize },
    /// A named axis or variable does not exist.
    NotFound(String),
    /// A coordinate range selected no points.
    EmptySelection(String),
    /// Values violate an invariant (non-monotonic axis, bad bounds, …).
    Invalid(String),
    /// A file could not be parsed as the `.ncr` self-describing format.
    Format(String),
    /// Underlying I/O failure (message-only so the error stays `Clone`).
    Io(String),
    /// A *transient* I/O failure (EINTR-style interruption, timeout,
    /// injected flakiness): retrying the same operation may succeed.
    /// `crate::storage::write_atomic` retries these internally and
    /// `cdat` task graphs re-run dataset sources that surface them.
    TransientIo(String),
    /// A calendar/time conversion failed.
    Time(String),
}

impl CdmsError {
    /// True for errors a retry may clear ([`CdmsError::TransientIo`]).
    pub(crate) fn is_transient(&self) -> bool {
        matches!(self, CdmsError::TransientIo(_))
    }
}

impl fmt::Display for CdmsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdmsError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected:?}, got {got:?}")
            }
            CdmsError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            CdmsError::NotFound(name) => write!(f, "not found: {name}"),
            CdmsError::EmptySelection(msg) => write!(f, "empty selection: {msg}"),
            CdmsError::Invalid(msg) => write!(f, "invalid: {msg}"),
            CdmsError::Format(msg) => write!(f, "format error: {msg}"),
            CdmsError::Io(msg) => write!(f, "io error: {msg}"),
            CdmsError::TransientIo(msg) => write!(f, "transient io error: {msg}"),
            CdmsError::Time(msg) => write!(f, "time error: {msg}"),
        }
    }
}

impl std::error::Error for CdmsError {
    /// All variants are leaves: causes are captured as strings so the error
    /// stays `Clone`, so there is no deeper error to expose.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        None
    }
}

impl From<std::io::Error> for CdmsError {
    fn from(e: std::io::Error) -> Self {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                CdmsError::TransientIo(e.to_string())
            }
            _ => CdmsError::Io(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CdmsError::ShapeMismatch { expected: vec![2, 3], got: vec![3, 2] };
        assert!(e.to_string().contains("[2, 3]"));
        assert!(e.to_string().contains("[3, 2]"));
        let e = CdmsError::NotFound("ta".into());
        assert_eq!(e.to_string(), "not found: ta");
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let e: CdmsError = io.into();
        assert!(matches!(e, CdmsError::Io(_)));
        assert!(!e.is_transient());
    }

    #[test]
    fn interrupted_io_is_transient() {
        let io = std::io::Error::new(std::io::ErrorKind::Interrupted, "EINTR");
        let e: CdmsError = io.into();
        assert!(matches!(e, CdmsError::TransientIo(_)));
        assert!(e.is_transient());
        assert!(e.to_string().contains("transient"));
    }
}
