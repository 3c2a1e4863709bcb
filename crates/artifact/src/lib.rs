//! Versioned binary artifact format for compiled ASDF programs.
//!
//! A compiled Qwerty kernel is more than a circuit: it is an optimized
//! IR module, an optional lowered circuit, routing telemetry, pass
//! statistics, and lint diagnostics, all keyed by a content hash. This
//! crate gives that bundle a stable on-disk form — a self-describing
//! container (magic, format + schema versions, section table, FNV-64
//! integrity checksum) with forward-compatible version detection — so
//! artifacts survive process restarts, cross-process difftest runs can
//! share compile work, and golden content hashes can be checked into the
//! conformance corpus.
//!
//! The three public layers:
//!
//! - [`wire`]: primitive little-endian encoding and the bounds-checked
//!   [`wire::Decoder`], the safety boundary that turns corruption into
//!   structured errors instead of panics.
//! - [`payload`]: canonical encodings for IR modules, circuits, routing
//!   info, pass statistics, and diagnostics.
//! - [`mod@format`]: the container — [`Artifact`] with [`Artifact::encode`],
//!   [`Artifact::decode`], the [`inspect`] header reader, and the
//!   content hash that excludes wall-clock pass timings.
//!
//! Every decode failure is an [`ArtifactError`] carrying the stable
//! `E0106` diagnostic code. That includes a module that decodes but fails
//! IR verification.
//!
//! ```
//! use asdf_artifact::Artifact;
//! use asdf_ir::{FuncBuilder, FuncType, Module, OpKind, Type, Visibility};
//!
//! let mut builder = FuncBuilder::new(
//!     "k",
//!     FuncType::new(vec![], vec![Type::BitBundle(1)], false),
//!     Visibility::Public,
//! );
//! let mut bb = builder.block();
//! let q = bb.push(OpKind::QAlloc, vec![], vec![Type::Qubit]);
//! let measured = bb.push(OpKind::Measure, q, vec![Type::Qubit, Type::I1]);
//! bb.push(OpKind::QFree, vec![measured[0]], vec![]);
//! let bits = bb.push(OpKind::BitPack, vec![measured[1]], vec![Type::BitBundle(1)]);
//! bb.push(OpKind::Return, bits, vec![]);
//! let mut module = Module::default();
//! module.add_func(builder.finish());
//! let artifact = Artifact {
//!     entry: "k".into(),
//!     module,
//!     circuit: None,
//!     routing: None,
//!     stats: Default::default(),
//!     lints: vec![],
//!     key: vec![1, 2, 3],
//! };
//! let bytes = artifact.encode();
//! let back = Artifact::decode(&bytes).unwrap();
//! assert_eq!(back.entry, "k");
//! assert_eq!(back.encode(), bytes, "re-serialization is byte-identical");
//! ```

pub mod error;
pub mod format;
pub mod payload;
pub mod wire;

pub use error::{ArtifactError, ARTIFACT_ERROR_CODE};
pub use format::{
    inspect, section_name, Artifact, ArtifactInfo, SectionInfo, FORMAT_VERSION, MAGIC,
    SCHEMA_VERSION, SECTION_CIRCUIT, SECTION_LINTS, SECTION_META, SECTION_MODULE, SECTION_ROUTING,
    SECTION_STATS,
};
pub use wire::{fnv1a, Decoder, Encoder, Fnv};
