//! Binary snapshots: instant cold start for paper-scale networks.
//!
//! Loading a heterogeneous network from TSV means re-parsing strings,
//! re-hashing every node name, merging parallel edges and re-running the
//! offline half-path materialization (Section 4.6 of the paper) — minutes
//! of work at DBLP scale that produces exactly the same bytes every time.
//! A snapshot persists the finished artifacts instead: the [`Hin`]'s
//! schema, node registries and adjacency matrices, plus the materialized
//! half-path products of any warmed relevance paths, in one compact
//! little-endian file. Loading is a bounds-checked decode straight into
//! the CSR layout the engines query — no parsing, no SpGEMM — and yields
//! bitwise-identical query results because the derived structures
//! (transposes, row norms) are recomputed through the same deterministic
//! code the engine itself uses.
//!
//! The byte-level format is specified in `docs/SNAPSHOT.md`. In short: an
//! 8-byte magic, a versioned 32-byte header, a section table, and one
//! CRC-32-guarded section per artifact kind ([`SECTION_SCHEMA`],
//! [`SECTION_NODES`], [`SECTION_ADJ`], [`SECTION_PATHS`]). The loader is
//! strict — *reject, don't guess*: every failure mode maps to a typed
//! [`SnapshotError`], a single flipped byte anywhere in the file is
//! caught by a checksum (or an earlier typed check), and nothing is
//! handed to [`CsrMatrix`] constructors before full structural
//! validation, so corrupt input can never panic or load silently wrong.

use crate::cache::Halves;
use crate::decompose::halves_coincide;
use hetesim_graph::{binio as gbin, Direction, GraphError, Hin, MetaPath, Schema, Step};
use hetesim_sparse::{binio as sbin, CsrMatrix, SparseError};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// First 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"HETESNAP";

/// Format version written by this build and the only one it accepts.
/// Version 2 stores one half for a path whose halves coincide (an even
/// symmetric path, see [`crate::decompose::halves_coincide`]); version 1
/// stored both.
pub const VERSION: u32 = 2;

/// Fixed header length in bytes (magic through header CRC).
const HEADER_LEN: usize = 32;

/// Length of one section-table entry in bytes.
const SECTION_ENTRY_LEN: usize = 24;

/// Section kind: schema (types, abbreviations, relations).
pub const SECTION_SCHEMA: u32 = 1;
/// Section kind: per-type node-name registries.
pub const SECTION_NODES: u32 = 2;
/// Section kind: per-relation adjacency matrices.
pub const SECTION_ADJ: u32 = 3;
/// Section kind: materialized half-path products of warmed paths.
pub const SECTION_PATHS: u32 = 4;

/// Errors produced while writing, verifying or loading a snapshot. Each
/// distinguishable corruption mode maps to its own variant so callers
/// (and tests) can tell a stale format from a truncated download from a
/// bit flip.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// Underlying filesystem error.
    Io(String),
    /// The file does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic {
        /// The 8 bytes actually found.
        found: [u8; 8],
    },
    /// The file's format version is not supported by this build.
    UnsupportedVersion {
        /// Version stored in the file.
        found: u32,
        /// Version this build reads and writes.
        supported: u32,
    },
    /// The file is shorter than a declared structure requires.
    Truncated {
        /// What was being read when the bytes ran out.
        what: String,
        /// Bytes the structure declares.
        needed: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// A CRC-32 over the header or a section payload does not match the
    /// stored checksum — the file was corrupted after writing.
    ChecksumMismatch {
        /// Which region failed (`"header"` or a section name).
        section: String,
        /// Checksum stored in the file.
        stored: u32,
        /// Checksum computed over the bytes present.
        computed: u32,
    },
    /// The checksums match but a payload violates the format's structural
    /// rules (duplicate or unknown section, trailing bytes, bad path key).
    Corrupt {
        /// Description of the violated rule.
        what: String,
    },
    /// A decoded schema/network failed graph-level validation.
    Graph(GraphError),
    /// A decoded matrix failed sparse-level validation.
    Sparse(SparseError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic { found } => {
                write!(f, "not a snapshot: magic bytes are {found:02x?}")
            }
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
            SnapshotError::Truncated {
                what,
                needed,
                actual,
            } => write!(
                f,
                "snapshot truncated while reading {what}: need {needed} bytes, have {actual}"
            ),
            SnapshotError::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in {section}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            SnapshotError::Corrupt { what } => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::Graph(e) => write!(f, "corrupt snapshot (graph): {e}"),
            SnapshotError::Sparse(e) => write!(f, "corrupt snapshot (matrix): {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Graph(e) => Some(e),
            SnapshotError::Sparse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for SnapshotError {
    fn from(e: GraphError) -> Self {
        SnapshotError::Graph(e)
    }
}

impl From<SparseError> for SnapshotError {
    fn from(e: SparseError) -> Self {
        SnapshotError::Sparse(e)
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e.to_string())
    }
}

/// Convenience alias for snapshot entry points.
pub type Result<T> = std::result::Result<T, SnapshotError>;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3: reflected, polynomial 0xEDB88320, init/final 0xFFFFFFFF)
// ---------------------------------------------------------------------------

/// Slicing-by-16 tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC_TABLES[t][b]` advances byte `b` through `t` additional
/// zero bytes. Verifying a paper-scale snapshot checksums several
/// megabytes on every cold start, so the ~8× throughput of slicing over
/// the one-byte loop is directly visible in load latency. The computed
/// checksum is bit-for-bit the same CRC-32 either way.
const CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 (IEEE) of a byte slice — the checksum algorithm named in
/// `docs/SNAPSHOT.md`, exposed so tools and tests can reproduce the
/// stored values.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = u32::MAX;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let a = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let b = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        let c = u32::from_le_bytes([chunk[8], chunk[9], chunk[10], chunk[11]]);
        let d = u32::from_le_bytes([chunk[12], chunk[13], chunk[14], chunk[15]]);
        crc = CRC_TABLES[15][(a & 0xFF) as usize]
            ^ CRC_TABLES[14][((a >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[13][((a >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[12][(a >> 24) as usize]
            ^ CRC_TABLES[11][(b & 0xFF) as usize]
            ^ CRC_TABLES[10][((b >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[9][((b >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[8][(b >> 24) as usize]
            ^ CRC_TABLES[7][(c & 0xFF) as usize]
            ^ CRC_TABLES[6][((c >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((c >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(c >> 24) as usize]
            ^ CRC_TABLES[3][(d & 0xFF) as usize]
            ^ CRC_TABLES[2][((d >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((d >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(d >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Section-table plumbing
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SectionEntry {
    kind: u32,
    crc: u32,
    offset: u64,
    len: u64,
}

fn section_name(kind: u32) -> &'static str {
    match kind {
        SECTION_SCHEMA => "schema",
        SECTION_NODES => "nodes",
        SECTION_ADJ => "adjacency",
        SECTION_PATHS => "paths",
        _ => "unknown",
    }
}

/// Per-section summary reported by [`snapshot_info`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section kind tag as stored.
    pub kind: u32,
    /// Human name of the kind (`"schema"`, `"nodes"`, …).
    pub name: &'static str,
    /// Payload length in bytes.
    pub bytes: u64,
    /// Stored (and verified) CRC-32 of the payload.
    pub crc32: u32,
}

/// Summary of a verified snapshot file.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotInfo {
    /// Format version.
    pub version: u32,
    /// Total file length in bytes.
    pub file_bytes: u64,
    /// Node types in the schema.
    pub types: usize,
    /// Relations in the schema.
    pub relations: usize,
    /// Total nodes across all types.
    pub nodes: usize,
    /// Total stored edges across all relations.
    pub edges: usize,
    /// Display specs of the warmed paths carried by the snapshot.
    pub warm_paths: Vec<String>,
    /// Per-section sizes and checksums, in file order.
    pub sections: Vec<SectionInfo>,
}

/// One warmed relevance path restored from a snapshot: the parsed path
/// plus its two half-products exactly as serialized.
#[derive(Debug)]
pub struct WarmPath {
    /// The relevance path, reconstructed against the snapshot's schema.
    pub path: MetaPath,
    /// Human-readable display form stored alongside (informational).
    pub spec: String,
    /// `PM_PL` (source type × middle).
    pub left: Arc<CsrMatrix>,
    /// `PM_PR⁻¹` (target type × middle). The same `Arc` as `left` when
    /// the path's halves coincide: the file stores that half once.
    pub right: Arc<CsrMatrix>,
}

/// A fully loaded and verified snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// The reassembled network.
    pub hin: Hin,
    /// Warmed half-path products, ready for
    /// [`crate::HeteSimEngine::install_halves`].
    pub warm: Vec<WarmPath>,
    /// Format version of the file.
    pub version: u32,
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

fn push_str(s: &str, out: &mut Vec<u8>) {
    let len = u32::try_from(s.len()).unwrap_or(u32::MAX);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&s.as_bytes()[..len as usize]);
}

fn encode_nodes(hin: &Hin, out: &mut Vec<u8>) {
    for ty in hin.schema().type_ids() {
        let names = hin.node_names(ty);
        out.extend_from_slice(&(names.len() as u32).to_le_bytes());
        for name in names {
            push_str(name, out);
        }
    }
}

fn encode_adj(hin: &Hin, out: &mut Vec<u8>) {
    out.extend_from_slice(&(hin.schema().relation_count() as u32).to_le_bytes());
    for rel in hin.schema().relation_ids() {
        sbin::encode_csr(hin.adjacency(rel), out);
    }
}

fn encode_paths(schema: &Schema, warm: &[(MetaPath, Arc<Halves>)], out: &mut Vec<u8>) {
    out.extend_from_slice(&(warm.len() as u32).to_le_bytes());
    for (path, halves) in warm {
        push_str(&path.cache_key(), out);
        push_str(&path.display(schema), out);
        sbin::encode_csr(&halves.left, out);
        if !halves_coincide(path) {
            sbin::encode_csr(&halves.right, out);
        }
    }
}

/// Serializes `hin` plus the given warmed half-path products into the
/// snapshot file at `path`, returning the same summary [`snapshot_info`]
/// would report. The write is atomic at filesystem granularity: bytes are
/// assembled in memory, written to `<path>.tmp`, then renamed over the
/// destination — a crash never leaves a half-written snapshot behind.
///
/// Only the `left`/`right` halves are stored per warmed path, and only
/// `left` when the two coincide (an even symmetric path); the derived
/// transpose and row norms are recomputed on load through the engine's
/// own code path, which keeps the file smaller and guarantees
/// bit-identity with a freshly built engine.
pub fn write_snapshot(
    path: &Path,
    hin: &Hin,
    warm: &[(MetaPath, Arc<Halves>)],
) -> Result<SnapshotInfo> {
    let _span = hetesim_obs::span!(
        "core.snapshot.write",
        sections = 4u64,
        warm_paths = warm.len(),
    );

    // Assemble section payloads.
    let mut payloads: Vec<(u32, Vec<u8>)> = Vec::with_capacity(4);
    let mut buf = Vec::new();
    gbin::encode_schema(hin.schema(), &mut buf);
    payloads.push((SECTION_SCHEMA, std::mem::take(&mut buf)));
    encode_nodes(hin, &mut buf);
    payloads.push((SECTION_NODES, std::mem::take(&mut buf)));
    encode_adj(hin, &mut buf);
    payloads.push((SECTION_ADJ, std::mem::take(&mut buf)));
    encode_paths(hin.schema(), warm, &mut buf);
    payloads.push((SECTION_PATHS, std::mem::take(&mut buf)));

    // Lay the file out: header, section table, payloads in table order.
    let table_len = payloads.len() * SECTION_ENTRY_LEN;
    let mut offset = (HEADER_LEN + table_len) as u64;
    let mut entries = Vec::with_capacity(payloads.len());
    for (kind, payload) in &payloads {
        entries.push(SectionEntry {
            kind: *kind,
            crc: crc32(payload),
            offset,
            len: payload.len() as u64,
        });
        offset += payload.len() as u64;
    }
    let file_len = offset;

    let mut file = Vec::with_capacity(file_len as usize);
    file.extend_from_slice(&MAGIC);
    file.extend_from_slice(&VERSION.to_le_bytes());
    file.extend_from_slice(&(payloads.len() as u32).to_le_bytes());
    file.extend_from_slice(&file_len.to_le_bytes());
    file.extend_from_slice(&0u32.to_le_bytes()); // reserved
    let crc_field = file.len(); // header CRC patched in below
    file.extend_from_slice(&0u32.to_le_bytes());
    for e in &entries {
        file.extend_from_slice(&e.kind.to_le_bytes());
        file.extend_from_slice(&e.crc.to_le_bytes());
        file.extend_from_slice(&e.offset.to_le_bytes());
        file.extend_from_slice(&e.len.to_le_bytes());
    }
    // The header checksum covers everything before the payloads except
    // the checksum field itself: header prefix + full section table. Any
    // flipped byte in the preamble therefore fails verification.
    let mut guarded = Vec::with_capacity(crc_field + table_len);
    guarded.extend_from_slice(&file[..crc_field]);
    guarded.extend_from_slice(&file[HEADER_LEN..]);
    let header_crc = crc32(&guarded);
    file[crc_field..crc_field + 4].copy_from_slice(&header_crc.to_le_bytes());
    for (_, payload) in &payloads {
        file.extend_from_slice(payload);
    }

    // Write via a temp file + rename so readers never observe a prefix.
    let tmp = path.with_extension("snap.tmp");
    std::fs::write(&tmp, &file)?;
    std::fs::rename(&tmp, path)?;
    hetesim_obs::add("core.snapshot.write.bytes", file.len() as u64);

    Ok(SnapshotInfo {
        version: VERSION,
        file_bytes: file_len,
        types: hin.schema().type_count(),
        relations: hin.schema().relation_count(),
        nodes: hin.total_nodes(),
        edges: hin.total_edges(),
        warm_paths: warm.iter().map(|(p, _)| p.display(hin.schema())).collect(),
        sections: entries
            .iter()
            .map(|e| SectionInfo {
                kind: e.kind,
                name: section_name(e.kind),
                bytes: e.len,
                crc32: e.crc,
            })
            .collect(),
    })
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

fn read_u32_at(buf: &[u8], at: usize) -> u32 {
    // Callers bounds-check before calling; the fallback keeps this
    // panic-free regardless.
    match buf.get(at..at + 4) {
        Some(b) => u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
        None => 0,
    }
}

fn read_u64_at(buf: &[u8], at: usize) -> u64 {
    match buf.get(at..at + 8) {
        Some(b) => u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]),
        None => 0,
    }
}

/// Validates the preamble — length, magic, version, section-table
/// bounds, header CRC, declared file length, per-section bounds and
/// kinds — and returns the section entries. Section *payload* CRCs are
/// checked separately (see [`verify_section_crc`]) so the bulk sections
/// can be verified concurrently. Shared by [`read_snapshot`] and
/// [`snapshot_info`].
fn verify_preamble(buf: &[u8]) -> Result<Vec<SectionEntry>> {
    if buf.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated {
            what: "header".to_string(),
            needed: HEADER_LEN as u64,
            actual: buf.len() as u64,
        });
    }
    if buf[..8] != MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&buf[..8]);
        return Err(SnapshotError::BadMagic { found });
    }
    let version = read_u32_at(buf, 8);
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    let section_count = read_u32_at(buf, 12) as usize;
    let table_len = section_count.saturating_mul(SECTION_ENTRY_LEN);
    let table_end = HEADER_LEN.saturating_add(table_len);
    if buf.len() < table_end {
        return Err(SnapshotError::Truncated {
            what: "section table".to_string(),
            needed: table_end as u64,
            actual: buf.len() as u64,
        });
    }
    // Header CRC next: it covers the file-length field and the whole
    // section table, so any preamble corruption (including a flipped
    // section count that survived the bounds check above) is caught here
    // before those values are trusted.
    let crc_field = HEADER_LEN - 4;
    let stored = read_u32_at(buf, crc_field);
    let mut guarded = Vec::with_capacity(crc_field + table_len);
    guarded.extend_from_slice(&buf[..crc_field]);
    guarded.extend_from_slice(&buf[HEADER_LEN..table_end]);
    let computed = crc32(&guarded);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch {
            section: "header".to_string(),
            stored,
            computed,
        });
    }
    let file_len = read_u64_at(buf, 16);
    if file_len != buf.len() as u64 {
        return Err(SnapshotError::Truncated {
            what: "file body".to_string(),
            needed: file_len,
            actual: buf.len() as u64,
        });
    }
    let mut entries = Vec::with_capacity(section_count);
    for i in 0..section_count {
        let at = HEADER_LEN + i * SECTION_ENTRY_LEN;
        let entry = SectionEntry {
            kind: read_u32_at(buf, at),
            crc: read_u32_at(buf, at + 4),
            offset: read_u64_at(buf, at + 8),
            len: read_u64_at(buf, at + 16),
        };
        let end = entry.offset.saturating_add(entry.len);
        if end > buf.len() as u64 || entry.offset < table_end as u64 {
            return Err(SnapshotError::Truncated {
                what: format!("{} section payload", section_name(entry.kind)),
                needed: end,
                actual: buf.len() as u64,
            });
        }
        if section_name(entry.kind) == "unknown" {
            return Err(SnapshotError::Corrupt {
                what: format!("unknown section kind {}", entry.kind),
            });
        }
        entries.push(entry);
    }
    Ok(entries)
}

/// Payload bytes of a section whose bounds [`verify_preamble`] already
/// validated.
fn section_bytes<'a>(buf: &'a [u8], e: &SectionEntry) -> &'a [u8] {
    &buf[e.offset as usize..(e.offset + e.len) as usize]
}

/// Checks one section's CRC-32 against its table entry.
fn verify_section_crc(buf: &[u8], e: &SectionEntry) -> Result<()> {
    let computed = crc32(section_bytes(buf, e));
    if computed != e.crc {
        return Err(SnapshotError::ChecksumMismatch {
            section: section_name(e.kind).to_string(),
            stored: e.crc,
            computed,
        });
    }
    Ok(())
}

/// Finds the unique section entry of a kind; duplicates and absences
/// are format violations.
fn unique_entry(entries: &[SectionEntry], kind: u32) -> Result<SectionEntry> {
    let mut found = None;
    for e in entries {
        if e.kind == kind {
            if found.is_some() {
                return Err(SnapshotError::Corrupt {
                    what: format!("duplicate {} section", section_name(kind)),
                });
            }
            found = Some(*e);
        }
    }
    found.ok_or_else(|| SnapshotError::Corrupt {
        what: format!("missing {} section", section_name(kind)),
    })
}

/// Reads a length-prefixed UTF-8 string through the sparse byte reader.
fn read_str(reader: &mut sbin::ByteReader<'_>, what: &str) -> Result<String> {
    let len = reader.read_u32(what)? as usize;
    let bytes = reader.take(len, what)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupt {
        what: format!("{what}: invalid UTF-8"),
    })
}

/// Reconstructs a [`MetaPath`] from its canonical cache key (`"+0-1…"`:
/// one direction sign and relation ordinal per step). The key — unlike
/// the display form — never collapses parallel relations, so the
/// round-trip is exact.
fn path_from_key(schema: &Schema, key: &str) -> Result<MetaPath> {
    let rels: Vec<_> = schema.relation_ids().collect();
    let mut steps = Vec::new();
    let mut chars = key.chars().peekable();
    while let Some(sign) = chars.next() {
        let dir = match sign {
            '+' => Direction::Forward,
            '-' => Direction::Backward,
            other => {
                return Err(SnapshotError::Corrupt {
                    what: format!("path key {key:?}: unexpected {other:?}"),
                })
            }
        };
        let mut ordinal = 0usize;
        let mut digits = 0;
        while let Some(d) = chars.peek().and_then(|c| c.to_digit(10)) {
            ordinal = ordinal.saturating_mul(10).saturating_add(d as usize);
            digits += 1;
            chars.next();
        }
        if digits == 0 {
            return Err(SnapshotError::Corrupt {
                what: format!("path key {key:?}: missing relation ordinal"),
            });
        }
        let rel = *rels.get(ordinal).ok_or_else(|| SnapshotError::Corrupt {
            what: format!("path key {key:?}: relation #{ordinal} not in schema"),
        })?;
        steps.push(match dir {
            Direction::Forward => Step::forward(rel),
            Direction::Backward => Step::backward(rel),
        });
    }
    if steps.is_empty() {
        return Err(SnapshotError::Corrupt {
            what: format!("path key {key:?} is empty"),
        });
    }
    Ok(MetaPath::from_steps(schema, steps)?)
}

fn decode_paths(buf: &[u8], schema: &Schema) -> Result<Vec<WarmPath>> {
    let mut reader = sbin::ByteReader::new(buf);
    let count = reader.read_u32("warm path count")? as usize;
    let mut warm = Vec::with_capacity(count.min(buf.len() / 8 + 1));
    for i in 0..count {
        let key = read_str(&mut reader, "warm path key")?;
        let spec = read_str(&mut reader, "warm path spec")?;
        let path = path_from_key(schema, &key)?;
        let left = Arc::new(sbin::decode_csr(&mut reader)?);
        let right = if halves_coincide(&path) {
            Arc::clone(&left)
        } else {
            Arc::new(sbin::decode_csr(&mut reader)?)
        };
        if left.ncols() != right.ncols() {
            return Err(SnapshotError::Corrupt {
                what: format!(
                    "warm path #{i} ({spec}): halves disagree on middle type \
                     ({} vs {} columns)",
                    left.ncols(),
                    right.ncols()
                ),
            });
        }
        warm.push(WarmPath {
            path,
            spec,
            left,
            right,
        });
    }
    if reader.remaining() != 0 {
        return Err(SnapshotError::Corrupt {
            what: format!("{} trailing bytes after paths section", reader.remaining()),
        });
    }
    Ok(warm)
}

fn decode_schema_section(buf: &[u8]) -> Result<Schema> {
    let mut sr = gbin::ByteReader::new(buf);
    let schema = gbin::decode_schema(&mut sr)?;
    if sr.remaining() != 0 {
        return Err(SnapshotError::Corrupt {
            what: format!("{} trailing bytes after schema section", sr.remaining()),
        });
    }
    Ok(schema)
}

fn decode_names_section(buf: &[u8], type_count: usize) -> Result<Vec<Vec<String>>> {
    let mut nr = gbin::ByteReader::new(buf);
    let names = gbin::decode_names(&mut nr, type_count)?;
    if nr.remaining() != 0 {
        return Err(SnapshotError::Corrupt {
            what: format!("{} trailing bytes after nodes section", nr.remaining()),
        });
    }
    Ok(names)
}

fn decode_adj_section(buf: &[u8], schema: &Schema) -> Result<Vec<CsrMatrix>> {
    let mut ar = sbin::ByteReader::new(buf);
    let rel_count = ar.read_u32("adjacency count")? as usize;
    if rel_count != schema.relation_count() {
        return Err(SnapshotError::Corrupt {
            what: format!(
                "{} adjacency matrices for {} relations",
                rel_count,
                schema.relation_count()
            ),
        });
    }
    let mut adj = Vec::with_capacity(rel_count);
    for _ in 0..rel_count {
        adj.push(sbin::decode_csr(&mut ar)?);
    }
    if ar.remaining() != 0 {
        return Err(SnapshotError::Corrupt {
            what: format!("{} trailing bytes after adjacency section", ar.remaining()),
        });
    }
    Ok(adj)
}

/// Joins a decode worker, mapping the (unreachable in practice) panic
/// case to a typed error instead of propagating it.
fn join_worker<T>(handle: std::thread::ScopedJoinHandle<'_, Result<T>>) -> Result<T> {
    match handle.join() {
        Ok(result) => result,
        Err(_) => Err(SnapshotError::Corrupt {
            what: "snapshot decode worker panicked".to_string(),
        }),
    }
}

/// Verifies and decodes every section of an in-memory snapshot.
///
/// The preamble and the (few-hundred-byte) schema section are checked
/// first, serially, because everything else depends on them. The three
/// bulk sections — node names, adjacency, warmed paths — are then
/// CRC-verified and strictly decoded *concurrently*: each is
/// self-contained once the schema is known, and checksumming plus
/// copying several megabytes is the dominant cost of a cold start. On a
/// single-core host the scoped threads simply run back to back; results
/// and errors are identical either way because failures are reported in
/// fixed section order (checksum mismatches first, then structural
/// errors), not completion order.
fn load_sections(buf: &[u8]) -> Result<(Hin, Vec<WarmPath>, Vec<SectionEntry>)> {
    let entries = verify_preamble(buf)?;
    let schema_e = unique_entry(&entries, SECTION_SCHEMA)?;
    let nodes_e = unique_entry(&entries, SECTION_NODES)?;
    let adj_e = unique_entry(&entries, SECTION_ADJ)?;
    let paths_e = unique_entry(&entries, SECTION_PATHS)?;

    verify_section_crc(buf, &schema_e)?;
    let schema = decode_schema_section(section_bytes(buf, &schema_e))?;

    let (names_res, adj_res, paths_res) = std::thread::scope(|scope| {
        let nodes_worker = scope.spawn(|| {
            verify_section_crc(buf, &nodes_e)?;
            decode_names_section(section_bytes(buf, &nodes_e), schema.type_count())
        });
        let adj_worker = scope.spawn(|| {
            verify_section_crc(buf, &adj_e)?;
            decode_adj_section(section_bytes(buf, &adj_e), &schema)
        });
        // The paths section is the largest; decode it on this thread.
        let paths_res = verify_section_crc(buf, &paths_e)
            .and_then(|()| decode_paths(section_bytes(buf, &paths_e), &schema));
        (
            join_worker(nodes_worker),
            join_worker(adj_worker),
            paths_res,
        )
    });

    // Fixed error precedence: a checksum mismatch in any section beats
    // structural errors (a payload that fails to parse under a bad CRC
    // is corruption, not a format bug), then section order.
    for res in [
        names_res.as_ref().err(),
        adj_res.as_ref().err(),
        paths_res.as_ref().err(),
    ]
    .into_iter()
    .flatten()
    {
        if matches!(res, SnapshotError::ChecksumMismatch { .. }) {
            return Err(res.clone());
        }
    }
    let names = names_res?;
    let adj = adj_res?;
    let warm = paths_res?;
    let hin = Hin::from_parts(schema, names, adj)?;
    Ok((hin, warm, entries))
}

/// Installs warmed half-path products into an engine, recomputing the
/// derived transposes and norms through the engine's own deterministic
/// code so subsequent queries are bitwise identical to a freshly warmed
/// engine. Paths install concurrently when more than one is present —
/// each install transposes a half and scans it for finiteness, which at
/// paper scale is the last serial chunk of a cold start.
pub fn install_warm_paths(
    engine: &crate::HeteSimEngine<'_>,
    warm: Vec<WarmPath>,
) -> std::result::Result<usize, crate::CoreError> {
    let count = warm.len();
    if count <= 1 {
        for w in warm {
            engine.install_halves(&w.path, w.left, w.right)?;
        }
        return Ok(count);
    }
    let results = std::thread::scope(|scope| {
        let workers: Vec<_> = warm
            .into_iter()
            .map(|w| scope.spawn(move || engine.install_halves(&w.path, w.left, w.right)))
            .collect();
        workers
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => Err(hetesim_sparse::SparseError::NotFinite {
                    op: "install_warm_paths worker panicked",
                }
                .into()),
            })
            .collect::<Vec<_>>()
    });
    for r in results {
        r?;
    }
    Ok(count)
}

/// Loads and fully verifies a snapshot: every checksum is checked, every
/// payload strictly decoded, the network reassembled via
/// [`Hin::from_parts`] and the warmed paths parsed against the restored
/// schema. On success the result is ready to serve queries after
/// installing the warm halves into an engine.
pub fn read_snapshot(path: &Path) -> Result<Snapshot> {
    let buf = std::fs::read(path)?;
    let _span = hetesim_obs::span!("core.snapshot.read", bytes = buf.len());
    let (hin, warm, _) = load_sections(&buf)?;
    Ok(Snapshot {
        hin,
        warm,
        version: VERSION,
    })
}

/// Verifies a snapshot end to end (exactly the checks [`read_snapshot`]
/// performs) and returns its summary without keeping the decoded network.
pub fn snapshot_info(path: &Path) -> Result<SnapshotInfo> {
    let buf = std::fs::read(path)?;
    let _span = hetesim_obs::span!("core.snapshot.verify", bytes = buf.len());
    let (hin, warm, entries) = load_sections(&buf)?;
    Ok(SnapshotInfo {
        version: VERSION,
        file_bytes: buf.len() as u64,
        types: hin.schema().type_count(),
        relations: hin.schema().relation_count(),
        nodes: hin.total_nodes(),
        edges: hin.total_edges(),
        warm_paths: warm.iter().map(|w| w.spec.clone()).collect(),
        sections: entries
            .iter()
            .map(|e| SectionInfo {
                kind: e.kind,
                name: section_name(e.kind),
                bytes: e.len,
                crc32: e.crc,
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
