//! Structured decode errors.
//!
//! Every way an artifact can fail to decode — wrong magic, unsupported
//! version, checksum mismatch, truncation, a corrupt tag — maps to a
//! variant of [`ArtifactError`]. Decoding never panics on untrusted
//! bytes; corruption surfaces as a value the caller can match on,
//! render, or turn into a compiler diagnostic (the `E0106` code).

use asdf_qcircuit::CircuitError;
use std::fmt;

/// The stable diagnostic code shared by every artifact decode failure.
pub const ARTIFACT_ERROR_CODE: &str = "E0106";

/// A structured artifact decode (or validation) failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ArtifactError {
    /// The file does not start with the `ASDFART\0` magic.
    BadMagic,
    /// The container layout version is newer than this build understands.
    UnsupportedFormatVersion {
        /// Version found in the header.
        found: u32,
        /// Newest version this build can read.
        supported: u32,
    },
    /// The payload encoding version is newer than this build understands.
    UnsupportedSchemaVersion {
        /// Version found in the header.
        found: u32,
        /// Newest version this build can read.
        supported: u32,
    },
    /// The trailing FNV-64 integrity checksum does not match the bytes.
    ChecksumMismatch {
        /// Checksum stored in the trailer.
        stored: u64,
        /// Checksum recomputed over the preceding bytes.
        computed: u64,
    },
    /// The content hash stored in the metadata section does not match the
    /// hash recomputed from the decoded semantic sections.
    ContentHashMismatch {
        /// Hash stored in the metadata section.
        stored: u64,
        /// Hash recomputed after decoding.
        computed: u64,
    },
    /// The byte stream ended before a declared value was complete.
    Truncated {
        /// What was being decoded.
        context: &'static str,
        /// Bytes the value needed.
        needed: usize,
        /// Bytes that were left.
        remaining: usize,
    },
    /// An enum discriminant or structural tag had no defined meaning.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A string payload was not valid UTF-8.
    BadUtf8 {
        /// What was being decoded.
        context: &'static str,
    },
    /// A section required by this schema version is absent.
    MissingSection {
        /// Section name, e.g. `"module"`.
        name: &'static str,
    },
    /// A section-table entry points outside the payload.
    BadSectionBounds {
        /// The section id with out-of-range bounds.
        id: u32,
    },
    /// A diagnostic carried a code this build does not know, so it cannot
    /// be interned back to a `&'static str`.
    UnknownDiagnosticCode(String),
    /// A decoded value violated a structural invariant (e.g. a basis
    /// literal whose vectors disagree on dimension).
    Invalid {
        /// What invariant was violated.
        context: &'static str,
    },
    /// A decoded circuit op that [`asdf_qcircuit::Circuit`] rejects (a
    /// qubit out of range or repeated, or a wrong target count).
    InvalidCircuitOp {
        /// The op's position in the circuit.
        index: usize,
        /// Why the circuit rejects it.
        error: CircuitError,
    },
    /// The decoded module fails IR verification, e.g. an op refers to a
    /// value outside its function's arena. Carries the verifier's message.
    InvalidModule(String),
    /// An I/O failure around artifact storage (e.g. the cache directory
    /// cannot be created). Carries the rendered OS error.
    Io(String),
}

impl ArtifactError {
    /// The stable diagnostic code (`E0106`) for this error.
    pub fn code(&self) -> &'static str {
        ARTIFACT_ERROR_CODE
    }
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic => {
                write!(f, "not an ASDF artifact (bad magic)")
            }
            ArtifactError::UnsupportedFormatVersion { found, supported } => {
                write!(
                    f,
                    "unsupported artifact format version {found} (this build reads \
                     up to {supported})"
                )
            }
            ArtifactError::UnsupportedSchemaVersion { found, supported } => {
                write!(
                    f,
                    "unsupported artifact schema version {found} (this build reads \
                     up to {supported})"
                )
            }
            ArtifactError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "artifact checksum mismatch (stored {stored:016x}, computed \
                     {computed:016x}): file is corrupt"
                )
            }
            ArtifactError::ContentHashMismatch { stored, computed } => {
                write!(
                    f,
                    "artifact content hash mismatch (stored {stored:016x}, computed \
                     {computed:016x})"
                )
            }
            ArtifactError::Truncated { context, needed, remaining } => {
                write!(
                    f,
                    "artifact truncated while decoding {context} (needed {needed} \
                     bytes, {remaining} left)"
                )
            }
            ArtifactError::BadTag { context, tag } => {
                write!(f, "corrupt artifact: unknown tag {tag} while decoding {context}")
            }
            ArtifactError::BadUtf8 { context } => {
                write!(f, "corrupt artifact: invalid UTF-8 in {context}")
            }
            ArtifactError::MissingSection { name } => {
                write!(f, "corrupt artifact: required section {name:?} is missing")
            }
            ArtifactError::BadSectionBounds { id } => {
                write!(f, "corrupt artifact: section {id} points outside the payload")
            }
            ArtifactError::UnknownDiagnosticCode(code) => {
                write!(f, "artifact carries unknown diagnostic code {code:?}")
            }
            ArtifactError::Invalid { context } => {
                write!(f, "corrupt artifact: invalid {context}")
            }
            ArtifactError::InvalidCircuitOp { index, error } => {
                write!(f, "corrupt artifact: circuit op {index}: {error}")
            }
            ArtifactError::InvalidModule(message) => {
                write!(f, "corrupt artifact: the module fails verification: {message}")
            }
            ArtifactError::Io(message) => {
                write!(f, "artifact storage i/o error: {message}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}
