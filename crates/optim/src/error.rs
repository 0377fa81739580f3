//! Error types for the optimization toolbox.

use std::error::Error;
use std::fmt;

/// Errors produced by the solvers in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OptimError {
    /// Input dimensions were inconsistent.
    DimensionMismatch {
        /// Expected element count.
        expected: usize,
        /// Actual element count.
        found: usize,
    },
    /// A Cholesky pivot was non-positive.
    NotPositiveDefinite {
        /// Index of the offending pivot.
        pivot: usize,
        /// Its value.
        value: f64,
    },
}

impl fmt::Display for OptimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimError::DimensionMismatch { expected, found } => {
                write!(
                    f,
                    "dimension mismatch: expected {expected} elements, found {found}"
                )
            }
            OptimError::NotPositiveDefinite { pivot, value } => {
                write!(
                    f,
                    "matrix is not positive definite (pivot {pivot} = {value})"
                )
            }
        }
    }
}

impl Error for OptimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = OptimError::DimensionMismatch {
            expected: 4,
            found: 3,
        };
        assert!(e.to_string().contains("expected 4"));
        let e = OptimError::NotPositiveDefinite {
            pivot: 1,
            value: -0.5,
        };
        assert!(e.to_string().contains("positive definite"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<OptimError>();
    }
}
