//! Engine error types.

use std::fmt;

/// Error constructing a [`Simulator`](crate::Simulator).
#[derive(Clone, Debug)]
pub enum BuildError {
    /// The program image contains an undecodable instruction word.
    Decode(fastsim_isa::DecodeError),
    /// Invalid µ-architecture parameters.
    UArchConfig(String),
    /// Invalid cache parameters.
    CacheConfig(String),
    /// A warm p-action cache was recorded for a different program or
    /// processor model (see
    /// [`Simulator::with_warm_snapshot`](crate::Simulator::with_warm_snapshot)).
    WarmCacheMismatch,
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Decode(e) => write!(f, "program does not decode: {e}"),
            BuildError::UArchConfig(e) => write!(f, "invalid µ-architecture config: {e}"),
            BuildError::CacheConfig(e) => write!(f, "invalid cache config: {e}"),
            BuildError::WarmCacheMismatch => {
                write!(f, "warm cache was recorded for a different program or model")
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<fastsim_isa::DecodeError> for BuildError {
    fn from(e: fastsim_isa::DecodeError) -> BuildError {
        BuildError::Decode(e)
    }
}

/// Error during simulation.
#[derive(Clone, Debug)]
pub enum SimError {
    /// The program executed an unbounded stretch with no conditional
    /// branch or indirect jump (a straight-line/direct-jump infinite loop).
    Diverged {
        /// Program counter near the loop.
        pc: u32,
    },
    /// The committed (non-speculative) execution path left the code
    /// segment — a wild jump in the target program.
    WildPath,
    /// No instruction retired for an implausibly long time; the pipeline
    /// is wedged (this indicates a simulator bug, not a program bug).
    Stuck {
        /// Cycle at which progress stopped.
        cycle: u64,
    },
    /// A decoded configuration failed to reconstruct (p-action cache
    /// corruption; indicates a simulator bug).
    ConfigCorrupt(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Diverged { pc } => {
                write!(f, "program diverged without control transfers near {pc:#x}")
            }
            SimError::WildPath => write!(f, "committed execution path left the code segment"),
            SimError::Stuck { cycle } => write!(f, "pipeline made no progress at cycle {cycle}"),
            SimError::ConfigCorrupt(e) => write!(f, "configuration decode failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(SimError::Diverged { pc: 0x1000 }.to_string().contains("0x1000"));
        assert!(SimError::Stuck { cycle: 42 }.to_string().contains("42"));
        assert!(BuildError::UArchConfig("bad".into()).to_string().contains("bad"));
    }
}
