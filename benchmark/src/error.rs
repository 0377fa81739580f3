//! The benchmark's error type: every way a run ends without a result line.

use std::fmt;

/// Why a run printed no result line.
#[derive(Debug)]
pub enum Error {
    /// Bad command line.
    Usage(String),
    /// A named correctness check came out false.
    Check {
        /// The check's name, as listed in the README.
        name: &'static str,
        /// What was seen.
        detail: String,
    },
    /// A call into the program returned an error on a workload chosen so
    /// that none fails.
    Program(String),
    /// The benchmark's own file handling failed.
    Io(String, std::io::Error),
}

/// `Result` with the benchmark's [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

impl Error {
    /// Wraps a program error with what the benchmark was doing.
    pub fn program(doing: &str, err: impl fmt::Display) -> Self {
        Error::Program(format!("{doing}: {err}"))
    }

    /// Wraps an I/O error with what the benchmark was doing.
    pub fn io(doing: impl Into<String>, err: std::io::Error) -> Self {
        Error::Io(doing.into(), err)
    }
}

/// Fails with [`Error::Check`] unless `ok`.
pub fn check(name: &'static str, ok: bool, detail: impl FnOnce() -> String) -> Result<()> {
    if ok {
        Ok(())
    } else {
        Err(Error::Check {
            name,
            detail: detail(),
        })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Usage(msg) => write!(f, "usage: {msg}"),
            Error::Check { name, detail } => write!(f, "check `{name}` failed: {detail}"),
            Error::Program(msg) => write!(f, "the program failed: {msg}"),
            Error::Io(doing, err) => write!(f, "{doing}: {err}"),
        }
    }
}

impl std::error::Error for Error {}
