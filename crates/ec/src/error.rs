//! Error type shared across the erasure-coding crate.

use std::fmt;

/// Errors produced by code construction, encoding and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcError {
    /// Invalid code geometry.
    InvalidParams {
        /// Requested data-block count.
        k: usize,
        /// Requested parity-block count.
        m: usize,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Block buffers have inconsistent or unusable lengths.
    BlockLength {
        /// What was expected.
        expected: usize,
        /// What was supplied.
        got: usize,
    },
    /// Wrong number of blocks supplied to an operation.
    BlockCount {
        /// What was expected.
        expected: usize,
        /// What was supplied.
        got: usize,
    },
    /// More erasures than the code can repair.
    TooManyErasures {
        /// Number of lost blocks.
        lost: usize,
        /// Fault tolerance of the code.
        tolerance: usize,
    },
    /// The decode matrix was singular (should not happen for MDS
    /// constructions; surfaced rather than panicking).
    SingularMatrix,
    /// LRC group geometry error.
    InvalidGroups {
        /// Requested group count.
        l: usize,
        /// Data-block count it must divide.
        k: usize,
    },
    /// An internal invariant was violated (a shard the decode plan proved
    /// present was absent, a worker died mid-batch, …). Surfaced instead of
    /// panicking so a library bug cannot take down the embedding process.
    Internal {
        /// Which invariant broke, for diagnostics.
        what: &'static str,
    },
    /// Shard contents failed parity verification: the stripe is
    /// *corrupt*, not merely erased. `shards` names the corrupt shard
    /// indices when verification could localize them; when it could not
    /// (more simultaneous corruptions than the parity budget can pin
    /// down), it names the mismatching parity shards as evidence.
    Corrupt {
        /// Corrupt shard indices (data shards are `0..k`, parity shards
        /// `k..k+m`), sorted ascending.
        shards: Vec<usize>,
    },
}

impl fmt::Display for EcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcError::InvalidParams { k, m, reason } => {
                write!(f, "invalid code params k={k} m={m}: {reason}")
            }
            EcError::BlockLength { expected, got } => {
                write!(f, "block length mismatch: expected {expected}, got {got}")
            }
            EcError::BlockCount { expected, got } => {
                write!(f, "block count mismatch: expected {expected}, got {got}")
            }
            EcError::TooManyErasures { lost, tolerance } => {
                write!(f, "{lost} erasures exceed fault tolerance {tolerance}")
            }
            EcError::SingularMatrix => write!(f, "singular decode matrix"),
            EcError::InvalidGroups { l, k } => {
                write!(
                    f,
                    "invalid LRC groups: l={l} must divide k={k} and be positive"
                )
            }
            EcError::Internal { what } => {
                write!(f, "internal invariant violated: {what}")
            }
            EcError::Corrupt { shards } => {
                write!(f, "shard contents failed parity verification: {shards:?}")
            }
        }
    }
}

impl std::error::Error for EcError {}

/// The one geometry check of a set of blocks: there must be `count` of
/// them ([`EcError::BlockCount`] otherwise), each `len` bytes long — the
/// first block's length when `len` is `None` — ([`EcError::BlockLength`]
/// naming the first that is not). Returns that length.
///
/// A stripe is checked data first, each set count before lengths, then its
/// parity against the data's length:
/// `check_blocks(parity, m, Some(check_blocks(data, k, None)?))`.
pub fn check_blocks<B: AsRef<[u8]>>(
    blocks: &[B],
    count: usize,
    len: Option<usize>,
) -> Result<usize, EcError> {
    check_count(blocks.len() == count, count, blocks.len())?;
    let mut lens = blocks.iter().map(|b| b.as_ref().len());
    let len = len.or_else(|| lens.clone().next()).unwrap_or(0);
    match lens.find(|&got| got != len) {
        Some(got) => Err(EcError::BlockLength { expected: len, got }),
        None => Ok(len),
    }
}

/// The one builder of [`EcError::BlockCount`], beside [`check_blocks`]:
/// `Ok` when `fits`, else the error naming the `expected` count (or, for an
/// index, the bound it must stay below) and what was `got`.
pub fn check_count(fits: bool, expected: usize, got: usize) -> Result<(), EcError> {
    if fits {
        Ok(())
    } else {
        Err(EcError::BlockCount { expected, got })
    }
}

/// Borrow a shard the caller has already proven present (e.g. by a decode
/// plan or an erasure check), turning an absent shard into
/// [`EcError::Internal`] instead of a panic.
pub fn present_shard<'a, T: AsRef<[u8]>>(
    shards: &'a [Option<T>],
    idx: usize,
    what: &'static str,
) -> Result<&'a T, EcError> {
    shards
        .get(idx)
        .and_then(Option::as_ref)
        .ok_or(EcError::Internal { what })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One Display assertion per variant: the rendered message must carry
    /// every payload field, so a boxed error is diagnosable on its own.
    #[test]
    fn display_renders_every_variant_with_its_payload() {
        let cases: Vec<(EcError, &[&str])> = vec![
            (
                EcError::InvalidParams {
                    k: 10,
                    m: 4,
                    reason: "k+m exceeds field size",
                },
                &["k=10", "m=4", "k+m exceeds field size"],
            ),
            (
                EcError::BlockLength {
                    expected: 4096,
                    got: 4095,
                },
                &["length", "4096", "4095"],
            ),
            (
                EcError::BlockCount {
                    expected: 14,
                    got: 13,
                },
                &["count", "14", "13"],
            ),
            (
                EcError::TooManyErasures {
                    lost: 5,
                    tolerance: 4,
                },
                &["5", "tolerance 4"],
            ),
            (EcError::SingularMatrix, &["singular"]),
            (EcError::InvalidGroups { l: 3, k: 10 }, &["l=3", "k=10"]),
            (
                EcError::Internal {
                    what: "latch under-completed",
                },
                &["internal", "latch under-completed"],
            ),
            (
                EcError::Corrupt { shards: vec![2, 7] },
                &["parity verification", "[2, 7]"],
            ),
        ];
        for (err, needles) in cases {
            let rendered = err.to_string();
            for needle in needles {
                assert!(
                    rendered.contains(needle),
                    "{err:?} rendered as {rendered:?}, missing {needle:?}"
                );
            }
        }
    }

    /// `EcError` is the crate's public error type; it must box into
    /// `dyn Error` callers (the `anyhow` shape) and round-trip Display.
    #[test]
    fn ec_error_boxes_as_std_error() {
        let err = EcError::Corrupt { shards: vec![0] };
        let rendered = err.to_string();
        let boxed: Box<dyn std::error::Error> = Box::new(err);
        assert_eq!(boxed.to_string(), rendered);
        assert!(boxed.source().is_none(), "leaf error, no source");
    }

    #[test]
    fn check_blocks_checks_the_count_then_each_length() {
        let (a, b, c) = ([0u8; 4], [0u8; 4], [0u8; 3]);
        let count = |expected, got| Err(EcError::BlockCount { expected, got });
        let length = |expected, got| Err(EcError::BlockLength { expected, got });
        assert_eq!(check_blocks(&[&a[..], &b], 2, None), Ok(4));
        assert_eq!(check_blocks(&[&a[..], &b], 2, Some(4)), Ok(4));
        assert_eq!(check_blocks::<&[u8]>(&[], 0, None), Ok(0));
        // A wrong count wins over a wrong length.
        assert_eq!(check_blocks(&[&a[..], &c], 3, None), count(3, 2));
        assert_eq!(check_blocks(&[&a[..], &c, &b], 3, None), length(4, 3));
        assert_eq!(check_blocks(&[&a[..], &b], 2, Some(3)), length(3, 4));
    }

    #[test]
    fn present_shard_rejects_missing_and_out_of_range_shards() {
        let shards: Vec<Option<Vec<u8>>> = vec![Some(vec![1, 2]), None];
        assert_eq!(
            present_shard(&shards, 1, "shard absent").unwrap_err(),
            EcError::Internal {
                what: "shard absent"
            }
        );
        assert_eq!(
            present_shard(&shards, 2, "index past stripe").unwrap_err(),
            EcError::Internal {
                what: "index past stripe"
            }
        );
    }

    #[test]
    fn present_shard_surfaces_internal_error() {
        let shards: Vec<Option<Vec<u8>>> = vec![Some(vec![1, 2]), None];
        assert_eq!(present_shard(&shards, 0, "x").unwrap(), &vec![1, 2]);
        let err = present_shard(&shards, 1, "survivor absent").unwrap_err();
        assert_eq!(
            err,
            EcError::Internal {
                what: "survivor absent"
            }
        );
        assert!(err.to_string().contains("survivor absent"), "{err}");
        // Out of bounds is the same invariant violation, not a panic.
        assert!(present_shard(&shards, 9, "oob").is_err());
    }
}
