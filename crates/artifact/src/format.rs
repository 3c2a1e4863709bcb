//! The container format: header, section table, payload, checksum.
//!
//! ```text
//! ┌────────────────────────────────────────────────────────┐
//! │ magic            8 bytes   "ASDFART\0"                 │
//! │ format_version   u32 LE    container layout (now 1)    │
//! │ schema_version   u32 LE    payload encoding (now 1)    │
//! │ section_count    u32 LE                                │
//! │ section table    count × { id u32, offset u32, len u32 }│
//! │ payload          concatenated section bodies           │
//! │ checksum         u64 LE    FNV-1a over all prior bytes │
//! └────────────────────────────────────────────────────────┘
//! ```
//!
//! Section offsets are relative to the start of the payload (the first
//! byte after the section table). Readers skip sections whose id they do
//! not recognize, which is what makes adding a section a
//! `format_version`-preserving change; bumping `schema_version` is for
//! changes to the encoding *inside* a section, and bumping
//! `format_version` is reserved for changes to this container layout
//! itself. A reader that sees a newer version than it understands
//! reports a structured [`ArtifactError`] naming both versions.

use crate::error::ArtifactError;
use crate::payload;
use crate::wire::{Decoder, Encoder, Fnv};
use asdf_ast::diag::Diagnostic;
use asdf_ir::{Module, PassStatistics};
use asdf_qcircuit::Circuit;
use asdf_target::RoutingInfo;

/// The artifact file magic.
pub const MAGIC: [u8; 8] = *b"ASDFART\0";
/// Newest container layout this build writes and reads.
pub const FORMAT_VERSION: u32 = 1;
/// Newest payload encoding this build writes and reads.
pub const SCHEMA_VERSION: u32 = 1;

/// Section id: entry symbol, content hash, and cache-key bytes.
pub(crate) const SECTION_META: u32 = 1;
/// Section id: the optimized IR module.
pub(crate) const SECTION_MODULE: u32 = 2;
/// Section id: the lowered circuit (absent for dynamic-only kernels).
pub(crate) const SECTION_CIRCUIT: u32 = 3;
/// Section id: routing telemetry (absent for untargeted compiles).
pub(crate) const SECTION_ROUTING: u32 = 4;
/// Section id: per-pass pipeline statistics.
pub(crate) const SECTION_STATS: u32 = 5;
/// Section id: lint diagnostics.
pub(crate) const SECTION_LINTS: u32 = 6;

/// Human-readable name for a section id.
pub fn section_name(id: u32) -> &'static str {
    match id {
        SECTION_META => "meta",
        SECTION_MODULE => "module",
        SECTION_CIRCUIT => "circuit",
        SECTION_ROUTING => "routing",
        SECTION_STATS => "stats",
        SECTION_LINTS => "lints",
        _ => "unknown",
    }
}

/// The compile artifact: the one value a compile produces (paper §7's
/// QCircuit module plus its straight-line circuit, with the telemetry
/// around them). `asdf_core` re-exports it as `Compiled`: its session
/// fills every field, `key` included, on a cold compile, then caches,
/// returns and persists that value, and a disk-cache hit decodes it back
/// unchanged.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The entry kernel's symbol name.
    pub entry: String,
    /// The QCircuit-dialect module (input to QASM/QIR codegen).
    pub module: Module,
    /// The straight-line circuit, when inlining fully linearized the entry
    /// kernel (None when callables or control flow remain). For a compile
    /// with a hardware target, this is the *routed* circuit.
    pub circuit: Option<Circuit>,
    /// Routing layouts and cost metrics, when a hardware target was
    /// requested and a circuit existed to route.
    pub routing: Option<RoutingInfo>,
    /// What the compile from source cost, one row per stage in execution
    /// order: the frontend's, the pipeline's passes (with their change
    /// counts), then circuit lowering, decompose and routing. Excluded
    /// from the content hash.
    pub stats: PassStatistics,
    /// Lint diagnostics from the post-pipeline analyses (empty unless the
    /// compile asked for lints). Each carries a stable `W0xxx` code and,
    /// where the IR kept spans, a caret label into the source.
    pub lints: Vec<Diagnostic>,
    /// Canonical cache-key bytes of the compile request (opaque here), so
    /// a disk lookup can verify the key byte-for-byte instead of trusting
    /// the 64-bit filename hash alone. The content hash excludes them.
    pub key: Vec<u8>,
}

/// One section-table entry as reported by [`inspect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// The section id.
    pub id: u32,
    /// [`section_name`] of the id.
    pub name: &'static str,
    /// Body length in bytes.
    pub len: usize,
}

/// Header-level facts about an artifact file, without a full decode.
#[derive(Debug, Clone)]
pub struct ArtifactInfo {
    /// Container layout version from the header.
    pub format_version: u32,
    /// Payload encoding version from the header.
    pub schema_version: u32,
    /// Total file size in bytes.
    pub total_len: usize,
    /// The (verified) trailing checksum.
    pub checksum: u64,
    /// Section table, in file order.
    pub sections: Vec<SectionInfo>,
    /// Entry symbol from the metadata section.
    pub entry: String,
    /// Content hash from the metadata section.
    pub content_hash: u64,
    /// Length of the stored cache-key bytes.
    pub key_len: usize,
}

struct EncodedSections {
    meta_tail: Vec<u8>,
    module: Vec<u8>,
    circuit: Option<Vec<u8>>,
    routing: Option<Vec<u8>>,
    stats: Vec<u8>,
    lints: Vec<u8>,
    content_hash: u64,
}

impl Artifact {
    fn encode_module(&self) -> Vec<u8> {
        let mut module = Encoder::new();
        payload::encode_module(&mut module, &self.module);
        module.into_bytes()
    }

    /// The sections, with `module` as the module section's bytes.
    fn encode_sections(&self, module: Vec<u8>) -> EncodedSections {
        let circuit = self.circuit.as_ref().map(|c| {
            let mut e = Encoder::new();
            payload::encode_circuit(&mut e, c);
            e.into_bytes()
        });
        let routing = self.routing.as_ref().map(|r| {
            let mut e = Encoder::new();
            payload::encode_routing(&mut e, r);
            e.into_bytes()
        });
        let mut stats = Encoder::new();
        payload::encode_stats(&mut stats, &self.stats);
        let mut lints = Encoder::new();
        payload::encode_lints(&mut lints, &self.lints);
        let lints = lints.into_bytes();
        let content_hash =
            content_hash_of(&self.entry, &module, circuit.as_deref(), routing.as_deref(), &lints);
        // The metadata tail: everything after the content hash slot.
        let mut meta_tail = Encoder::new();
        meta_tail.str(&self.entry);
        meta_tail.bytes_prefixed(&self.key);
        EncodedSections {
            meta_tail: meta_tail.into_bytes(),
            module,
            circuit,
            routing,
            stats: stats.into_bytes(),
            lints,
            content_hash,
        }
    }

    /// The 64-bit content hash over the artifact's semantic sections
    /// (entry, module, circuit, routing, lints). Pass statistics carry
    /// wall-clock timings and are deliberately excluded, so the hash is
    /// stable across runs of the same compile.
    pub fn content_hash(&self) -> u64 {
        self.encode_sections(self.encode_module()).content_hash
    }

    /// Serializes the artifact into the container format.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_around(self.encode_module())
    }

    /// Serializes the artifact with `module` as the module section's
    /// bytes, so codec tests can wrap bytes that no [`Module`] encodes to.
    pub(crate) fn encode_around(&self, module: Vec<u8>) -> Vec<u8> {
        let sections = self.encode_sections(module);
        let mut meta = Encoder::new();
        meta.u64(sections.content_hash);
        meta.raw(&sections.meta_tail);
        let mut bodies: Vec<(u32, Vec<u8>)> =
            vec![(SECTION_META, meta.into_bytes()), (SECTION_MODULE, sections.module)];
        if let Some(circuit) = sections.circuit {
            bodies.push((SECTION_CIRCUIT, circuit));
        }
        if let Some(routing) = sections.routing {
            bodies.push((SECTION_ROUTING, routing));
        }
        bodies.push((SECTION_STATS, sections.stats));
        bodies.push((SECTION_LINTS, sections.lints));

        let mut out = Encoder::new();
        out.raw(&MAGIC);
        out.u32(FORMAT_VERSION);
        out.u32(SCHEMA_VERSION);
        out.u32(bodies.len() as u32);
        let mut offset: u32 = 0;
        for (id, body) in &bodies {
            out.u32(*id);
            out.u32(offset);
            out.u32(body.len() as u32);
            offset += body.len() as u32;
        }
        for (_, body) in &bodies {
            out.raw(body);
        }
        let mut checksum = Fnv::new();
        checksum.write(out.bytes());
        let checksum = checksum.finish();
        out.u64(checksum);
        out.into_bytes()
    }

    /// Deserializes an artifact, validating magic, versions, checksum,
    /// section bounds, and the content hash. Unknown section ids are
    /// skipped for forward compatibility.
    pub fn decode(bytes: &[u8]) -> Result<Artifact, ArtifactError> {
        let raw = RawArtifact::parse(bytes)?;
        let mut meta = Decoder::new(
            raw.section(SECTION_META).ok_or(ArtifactError::MissingSection { name: "meta" })?,
        );
        let stored_hash = meta.u64("content hash")?;
        let entry = meta.str("entry symbol")?;
        let key = meta.bytes_prefixed("cache key")?;
        meta.finish("metadata section")?;

        let module_bytes =
            raw.section(SECTION_MODULE).ok_or(ArtifactError::MissingSection { name: "module" })?;
        let mut d = Decoder::new(module_bytes);
        let module = payload::decode_module(&mut d)?;
        d.finish("module section")?;

        let circuit = match raw.section(SECTION_CIRCUIT) {
            None => None,
            Some(bytes) => {
                let mut d = Decoder::new(bytes);
                let circuit = payload::decode_circuit(&mut d)?;
                d.finish("circuit section")?;
                Some(circuit)
            }
        };
        let routing = match raw.section(SECTION_ROUTING) {
            None => None,
            Some(bytes) => {
                let mut d = Decoder::new(bytes);
                let routing = payload::decode_routing(&mut d)?;
                d.finish("routing section")?;
                Some(routing)
            }
        };
        let stats = match raw.section(SECTION_STATS) {
            None => PassStatistics::new(),
            Some(bytes) => {
                let mut d = Decoder::new(bytes);
                let stats = payload::decode_stats(&mut d)?;
                d.finish("stats section")?;
                stats
            }
        };
        let lints = match raw.section(SECTION_LINTS) {
            None => Vec::new(),
            Some(bytes) => {
                let mut d = Decoder::new(bytes);
                let lints = payload::decode_lints(&mut d)?;
                d.finish("lints section")?;
                lints
            }
        };

        let computed = content_hash_of(
            &entry,
            module_bytes,
            raw.section(SECTION_CIRCUIT),
            raw.section(SECTION_ROUTING),
            raw.section(SECTION_LINTS).unwrap_or(&[]),
        );
        if computed != stored_hash {
            return Err(ArtifactError::ContentHashMismatch { stored: stored_hash, computed });
        }
        Ok(Artifact { entry, module, circuit, routing, stats, lints, key })
    }
}

/// Reads header-level facts (versions, section sizes, entry symbol,
/// content hash) without decoding the module payload. The checksum is
/// still verified, so `inspect` on a corrupt file reports the same
/// structured error a full decode would.
pub fn inspect(bytes: &[u8]) -> Result<ArtifactInfo, ArtifactError> {
    let raw = RawArtifact::parse(bytes)?;
    let mut meta = Decoder::new(
        raw.section(SECTION_META).ok_or(ArtifactError::MissingSection { name: "meta" })?,
    );
    let content_hash = meta.u64("content hash")?;
    let entry = meta.str("entry symbol")?;
    let key = meta.bytes_prefixed("cache key")?;
    Ok(ArtifactInfo {
        format_version: raw.format_version,
        schema_version: raw.schema_version,
        total_len: bytes.len(),
        checksum: raw.checksum,
        sections: raw
            .sections
            .iter()
            .map(|(id, body)| SectionInfo { id: *id, name: section_name(*id), len: body.len() })
            .collect(),
        entry,
        content_hash,
        key_len: key.len(),
    })
}

/// The parsed container: versions plus raw section bodies, checksum
/// already verified.
struct RawArtifact<'a> {
    format_version: u32,
    schema_version: u32,
    checksum: u64,
    sections: Vec<(u32, &'a [u8])>,
}

impl<'a> RawArtifact<'a> {
    fn parse(bytes: &'a [u8]) -> Result<RawArtifact<'a>, ArtifactError> {
        if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let mut header = Decoder::new(&bytes[MAGIC.len()..]);
        let format_version = header.u32("format version")?;
        if format_version > FORMAT_VERSION {
            return Err(ArtifactError::UnsupportedFormatVersion {
                found: format_version,
                supported: FORMAT_VERSION,
            });
        }
        // Checksum covers everything before the trailing 8 bytes; verify
        // it before trusting any declared length in the section table.
        if bytes.len() < MAGIC.len() + 8 + 8 {
            return Err(ArtifactError::Truncated {
                context: "checksum trailer",
                needed: MAGIC.len() + 16,
                remaining: bytes.len(),
            });
        }
        let body_len = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[body_len..].try_into().expect("8 bytes"));
        let mut hasher = Fnv::new();
        hasher.write(&bytes[..body_len]);
        let computed = hasher.finish();
        if stored != computed {
            return Err(ArtifactError::ChecksumMismatch { stored, computed });
        }
        let schema_version = header.u32("schema version")?;
        if schema_version > SCHEMA_VERSION {
            return Err(ArtifactError::UnsupportedSchemaVersion {
                found: schema_version,
                supported: SCHEMA_VERSION,
            });
        }
        let count = header.u32("section count")? as usize;
        let table_len = count
            .checked_mul(12)
            .ok_or(ArtifactError::Invalid { context: "section table size" })?;
        let payload_start = MAGIC.len() + 12 + table_len;
        if payload_start > body_len {
            return Err(ArtifactError::Truncated {
                context: "section table",
                needed: payload_start,
                remaining: body_len,
            });
        }
        let payload = &bytes[payload_start..body_len];
        let mut sections = Vec::with_capacity(count);
        for _ in 0..count {
            let id = header.u32("section id")?;
            let offset = header.u32("section offset")? as usize;
            let len = header.u32("section len")? as usize;
            let end = offset
                .checked_add(len)
                .filter(|end| *end <= payload.len())
                .ok_or(ArtifactError::BadSectionBounds { id })?;
            sections.push((id, &payload[offset..end]));
        }
        Ok(RawArtifact { format_version, schema_version, checksum: stored, sections })
    }

    fn section(&self, id: u32) -> Option<&'a [u8]> {
        self.sections.iter().find(|(sid, _)| *sid == id).map(|(_, body)| *body)
    }
}

fn content_hash_of(
    entry: &str,
    module: &[u8],
    circuit: Option<&[u8]>,
    routing: Option<&[u8]>,
    lints: &[u8],
) -> u64 {
    let mut h = Fnv::new();
    h.write(&(entry.len() as u64).to_le_bytes());
    h.write(entry.as_bytes());
    h.write(module);
    for optional in [circuit, routing] {
        match optional {
            None => h.write(&[0]),
            Some(bytes) => {
                h.write(&[1]);
                h.write(bytes);
            }
        }
    }
    h.write(lints);
    h.finish()
}
