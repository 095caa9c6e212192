//! The single error type of the `utcq_core` public API.
//!
//! Every public fallible function in this crate returns
//! [`Result<_, Error>`](Error). The lower layers keep their specific
//! error types ([`CodecError`],
//! [`DecompressError`],
//! [`StorageError`], [`std::io::Error`]) and
//! `From` impls fold them into [`Error`] at the API boundary, so callers
//! handle one enum and `?` works across layers.

use std::io;

use utcq_bitio::CodecError;

use crate::decompress::DecompressError;
use crate::storage::StorageError;

/// Unified error for all public fallible operations in `utcq_core`.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// A bit-level encode/decode failed.
    Codec(CodecError),
    /// Decompression failed (codec failure or a view that does not
    /// resolve against the road network).
    Decompress(DecompressError),
    /// A storage container could not be read or written.
    Storage(StorageError),
    /// Underlying I/O failure outside the container parser.
    Io(io::Error),
    /// A trajectory with this id was already ingested.
    DuplicateTrajectory(u64),
    /// The trajectory with this id spans more than
    /// [`crate::stiu::MAX_SPAN_PARTITIONS`] time partitions — the
    /// temporal index registers it under every one of them, so the span
    /// is capped at ingest.
    SpanTooLong(u64),
    /// A batch's default sample interval disagrees with the store's
    /// compression parameters.
    IntervalMismatch {
        /// The store's `CompressParams::default_interval`.
        expected: i64,
        /// The batch's `Dataset::default_interval`.
        got: i64,
    },
    /// A container was compressed against a network with a different
    /// outgoing-edge-number width than the one supplied.
    NetworkMismatch {
        /// Edge-number width recorded in the container.
        expected: u32,
        /// Edge-number width of the supplied network.
        got: u32,
    },
    /// The compressed payload or index is internally inconsistent (e.g. a
    /// non-reference pointing past the reference list). Carries a short
    /// static description of the invariant that failed.
    CorruptStore(&'static str),
    /// A page cursor was presented to a store other than the one that
    /// minted it (e.g. a where/when cursor whose partition tag does not
    /// name the partition that owns the queried trajectory).
    InvalidCursor,
    /// Invalid sharding configuration (zero shards, too many shards, or
    /// `shard_by` after the first ingest). Carries a short static
    /// description.
    ShardConfig(&'static str),
    /// Trajectory `at` of a batch names an edge the network lacks or is
    /// malformed on it; nothing of the batch was stored.
    InvalidTrajectory {
        /// The trajectory's index in the batch.
        at: usize,
        /// What is wrong with it.
        detail: String,
    },
}

impl From<CodecError> for Error {
    fn from(e: CodecError) -> Self {
        Error::Codec(e)
    }
}

impl From<DecompressError> for Error {
    fn from(e: DecompressError) -> Self {
        Error::Decompress(e)
    }
}

impl From<StorageError> for Error {
    fn from(e: StorageError) -> Self {
        Error::Storage(e)
    }
}

impl From<io::Error> for Error {
    fn from(e: io::Error) -> Self {
        Error::Io(e)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Codec(e) => write!(f, "codec error: {e}"),
            Error::Decompress(e) => write!(f, "decompression error: {e}"),
            Error::Storage(e) => write!(f, "storage error: {e}"),
            Error::Io(e) => write!(f, "i/o error: {e}"),
            Error::DuplicateTrajectory(id) => {
                write!(f, "trajectory {id} was already ingested")
            }
            Error::SpanTooLong(id) => write!(
                f,
                "trajectory {id} spans more than {} time partitions",
                crate::stiu::MAX_SPAN_PARTITIONS
            ),
            Error::IntervalMismatch { expected, got } => write!(
                f,
                "batch default interval {got}s does not match the store's {expected}s"
            ),
            Error::NetworkMismatch { expected, got } => write!(
                f,
                "container edge width {expected} does not match the network's {got}"
            ),
            Error::CorruptStore(what) => write!(f, "corrupt store: {what}"),
            Error::InvalidCursor => write!(
                f,
                "page cursor does not belong to this store (stale or foreign shard tag)"
            ),
            Error::ShardConfig(what) => write!(f, "invalid shard configuration: {what}"),
            Error::InvalidTrajectory { at, detail } => {
                write!(f, "trajectories[{at}] is invalid: {detail}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Codec(e) => Some(e),
            Error::Decompress(e) => Some(e),
            Error::Storage(e) => Some(e),
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_impls_fold_every_layer() {
        let c: Error = CodecError::WidthTooLarge(65).into();
        assert!(matches!(c, Error::Codec(_)));
        let d: Error = DecompressError::Codec(CodecError::Malformed("x")).into();
        assert!(matches!(d, Error::Decompress(_)));
        let s: Error = StorageError::BadHeader.into();
        assert!(matches!(s, Error::Storage(_)));
        let i: Error = io::Error::other("boom").into();
        assert!(matches!(i, Error::Io(_)));
    }

    #[test]
    fn displays_are_informative() {
        let e = Error::IntervalMismatch {
            expected: 10,
            got: 15,
        };
        let msg = e.to_string();
        assert!(msg.contains("15") && msg.contains("10"), "{msg}");
        assert!(Error::DuplicateTrajectory(7).to_string().contains('7'));
    }

    #[test]
    fn sources_chain() {
        use std::error::Error as _;
        let e: Error = CodecError::Malformed("prefix").into();
        assert!(e.source().is_some());
        assert!(Error::InvalidCursor.source().is_none());
    }
}
