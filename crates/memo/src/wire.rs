//! The `fastsim-snapshot/v2` binary format: durable, portable encoding of
//! a frozen [`CacheSnapshot`].
//!
//! Memoized warmth is only worth persisting if a stale or damaged file can
//! *never* mis-replay, so the format is built for strict
//! reject-don't-guess decoding:
//!
//! * a fixed header carries a magic, the format version and the full
//!   (program, µ-architecture, hierarchy) fingerprint the snapshot was
//!   recorded under — a reader for the wrong version or the wrong model
//!   gets a typed error before any payload is touched;
//! * the payload is a fixed sequence of tagged **sections** (meta, stats,
//!   nodes, index), each carrying its own byte length and a
//!   [`hash64`] checksum of its payload — truncation, bit flips and
//!   section-length lies are all detected per section;
//! * every enum tag, node id and arena offset is bounds-checked during
//!   decode, every successor tag must fit its action, every configuration
//!   head must name a key the index holds, and configuration fingerprints
//!   are re-derived from the stored bytes — a decoded snapshot can be
//!   thawed and merged without any panic path.
//!
//! The format is not the in-memory layout. In memory a node is a flat
//! record whose outcome edges sit in a shared edge arena and whose
//! configuration is an index slot number; on the wire each node spells out
//! its successor tag, its edges in insertion order and its key's arena
//! range, exactly as version 2 always has.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header   magic "FSIMSNAP" (8) | version u32 | fingerprint u64 |
//!          section_count u32 | reserved u64 (must be 0)
//! section  tag u32 | len u64 | payload[len] | checksum u64
//! ```
//!
//! Sections appear in a fixed order (`meta`, `stats`, `nodes`, `index`);
//! see `docs/snapshots.md` for the field tables. Version 1 carried three
//! more sections for trace-compiled replay segments; this build rejects it
//! with [`SnapshotDecodeError::UnsupportedVersion`]. Encoding is canonical:
//! re-encoding a decoded snapshot reproduces the input bytes exactly,
//! which the golden fixtures under `tests/fixtures/` pin.

use crate::action::{ActionKind, NodeId, OutcomeKey, RetireCounts};
use crate::cache::{next_run_start, pad_run, run, Edge, Node, NONE};
use crate::index::{ConfigIndex, ConfigRef};
use crate::policy::Policy;
use crate::snapshot::CacheSnapshot;
use crate::MemoStats;
use fastsim_hash::hash64;
use std::fmt;

/// Magic bytes opening every encoded snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"FSIMSNAP";

/// The format version this build writes and the only one it reads.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Number of sections in a v2 snapshot.
const SECTION_COUNT: u32 = 4;

/// Fixed header length in bytes.
const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 8;

/// Section tags, in the order sections must appear.
const SECTIONS: [(u32, &str); SECTION_COUNT as usize] =
    [(1, "meta"), (2, "stats"), (3, "nodes"), (4, "index")];

/// Why a snapshot file was rejected. Every variant is a hard rejection:
/// the decoder never guesses, pads or partially applies a damaged file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotDecodeError {
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The header carries a format version this build does not read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The header fingerprint does not match the model the caller is
    /// loading for.
    FingerprintMismatch {
        /// The fingerprint the caller expected.
        expected: u64,
        /// The fingerprint found in the header.
        found: u64,
    },
    /// The file ends before a section (or the header) is complete.
    Truncated {
        /// The section being read when the data ran out.
        section: &'static str,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A section's payload does not hash to its stored checksum.
    ChecksumMismatch {
        /// The damaged section.
        section: &'static str,
    },
    /// A section parsed but its content is invalid (bad tag, out-of-bounds
    /// id or range, non-canonical layout).
    Corrupt {
        /// The offending section.
        section: &'static str,
        /// What was wrong.
        detail: String,
    },
    /// Bytes remain after the last section — the file is not a single
    /// canonical snapshot.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

impl fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotDecodeError::BadMagic => write!(f, "not a fastsim-snapshot file"),
            SnapshotDecodeError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot format version {found} (expected {SNAPSHOT_VERSION})")
            }
            SnapshotDecodeError::FingerprintMismatch { expected, found } => write!(
                f,
                "snapshot fingerprint {found:#018x} does not match expected {expected:#018x}"
            ),
            SnapshotDecodeError::Truncated { section, needed, available } => write!(
                f,
                "truncated in `{section}`: needed {needed} bytes, {available} available"
            ),
            SnapshotDecodeError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section `{section}`")
            }
            SnapshotDecodeError::Corrupt { section, detail } => {
                write!(f, "corrupt section `{section}`: {detail}")
            }
            SnapshotDecodeError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last section")
            }
        }
    }
}

impl std::error::Error for SnapshotDecodeError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn w8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn w32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn w_action(out: &mut Vec<u8>, kind: &ActionKind) {
    match *kind {
        ActionKind::Advance { cycles, retired } => {
            w8(out, 0);
            w32(out, cycles);
            w_retire(out, &retired);
        }
        ActionKind::FetchRecord => w8(out, 1),
        ActionKind::IssueLoad { lq_index } => {
            w8(out, 2);
            w32(out, lq_index);
        }
        ActionKind::PollLoad { lq_index } => {
            w8(out, 3);
            w32(out, lq_index);
        }
        ActionKind::IssueStore { sq_index } => {
            w8(out, 4);
            w32(out, sq_index);
        }
        ActionKind::CancelLoad { lq_index } => {
            w8(out, 5);
            w32(out, lq_index);
        }
        ActionKind::Rollback { ctrl_index } => {
            w8(out, 6);
            w32(out, ctrl_index);
        }
        ActionKind::Finish => w8(out, 7),
    }
}

fn w_retire(out: &mut Vec<u8>, r: &RetireCounts) {
    for v in [r.insts, r.loads, r.stores, r.ctrls, r.branches] {
        w32(out, v);
    }
}

fn w_outcome(out: &mut Vec<u8>, key: &OutcomeKey) {
    match *key {
        OutcomeKey::Branch { taken, mispredicted } => {
            w8(out, 0);
            w8(out, u8::from(taken) | (u8::from(mispredicted) << 1));
        }
        OutcomeKey::Indirect { target, mispredicted } => {
            w8(out, 1);
            w32(out, target);
            w_bool(out, mispredicted);
        }
        OutcomeKey::Halted => w8(out, 2),
        OutcomeKey::Blocked => w8(out, 3),
        OutcomeKey::Interval(v) => {
            w8(out, 4);
            w32(out, v);
        }
        OutcomeKey::PollReady => w8(out, 5),
        OutcomeKey::PollWait(v) => {
            w8(out, 6);
            w32(out, v);
        }
    }
}

fn encode_meta(snap: &CacheSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    let (tag, limit) = match snap.policy {
        Policy::Unbounded => (0u8, 0usize),
        Policy::FlushOnFull { limit } => (1, limit),
        Policy::CopyingGc { limit } => (2, limit),
        Policy::GenerationalGc { limit } => (3, limit),
    };
    w8(&mut out, tag);
    w64(&mut out, limit as u64);
    w64(&mut out, snap.base_len as u64);
    w64(&mut out, snap.version);
    w64(&mut out, snap.nodes.len() as u64);
    out
}

fn encode_stats(stats: &MemoStats) -> Vec<u8> {
    let mut out = Vec::new();
    for v in [
        stats.static_configs,
        stats.static_actions,
        stats.bytes as u64,
        stats.peak_bytes as u64,
        stats.flushes,
        stats.collections,
        stats.gc_survived_bytes,
        stats.gc_scanned_bytes,
        stats.config_hits,
        stats.config_misses,
    ] {
        w64(&mut out, v);
    }
    out
}

fn encode_nodes(snap: &CacheSnapshot) -> Vec<u8> {
    let mut out = Vec::new();
    for (node, &accessed) in snap.nodes.iter().zip(&snap.accessed) {
        let mut flags = 0u8;
        if node.tenured {
            flags |= 1;
        }
        if accessed {
            flags |= 2;
        }
        if node.is_config_head() {
            flags |= 4;
        }
        w8(&mut out, flags);
        w_action(&mut out, &node.kind);
        // The successor tag is implied by the action kind in memory; the
        // format spells it out.
        if node.kind.has_outcome() {
            w8(&mut out, 2);
            w32(&mut out, node.edges);
            for edge in snap.run_of(node) {
                w_outcome(&mut out, &edge.key);
                w32(&mut out, edge.to);
            }
        } else if node.link == NONE {
            w8(&mut out, 0);
        } else {
            w8(&mut out, 1);
            w32(&mut out, node.link);
        }
        if node.is_config_head() {
            let cref = snap.index.cref(node.config);
            w32(&mut out, cref.offset);
            w32(&mut out, cref.len);
            w64(&mut out, cref.fp);
        }
    }
    out
}

fn encode_index(index: &ConfigIndex) -> Vec<u8> {
    let mut out = Vec::new();
    let arena = index.arena();
    w64(&mut out, arena.len() as u64);
    out.extend_from_slice(arena);
    w64(&mut out, index.len() as u64);
    for (cref, head) in index.slot_entries() {
        w32(&mut out, cref.offset);
        w32(&mut out, cref.len);
        w64(&mut out, cref.fp);
        w32(&mut out, head);
    }
    out
}

/// Encodes a frozen snapshot (plus the model `fingerprint` it was recorded
/// under) into the `fastsim-snapshot/v2` byte format.
///
/// Encoding is canonical and deterministic: equal snapshots produce equal
/// bytes, and [`decode_snapshot`] followed by `encode_snapshot`
/// reproduces the input exactly.
pub fn encode_snapshot(snap: &CacheSnapshot, fingerprint: u64) -> Vec<u8> {
    let payloads = [
        encode_meta(snap),
        encode_stats(&snap.stats),
        encode_nodes(snap),
        encode_index(&snap.index),
    ];
    let body: usize = payloads.iter().map(|p| p.len() + 4 + 8 + 8).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + body);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    w32(&mut out, SNAPSHOT_VERSION);
    w64(&mut out, fingerprint);
    w32(&mut out, SECTION_COUNT);
    w64(&mut out, 0); // reserved
    for ((tag, _), payload) in SECTIONS.iter().zip(payloads) {
        w32(&mut out, *tag);
        w64(&mut out, payload.len() as u64);
        let checksum = hash64(&payload);
        out.extend_from_slice(&payload);
        w64(&mut out, checksum);
    }
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// A strict little-endian reader over one section's payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], section: &'static str) -> Reader<'a> {
        Reader { buf, pos: 0, section }
    }

    fn truncated(&self, needed: usize) -> SnapshotDecodeError {
        SnapshotDecodeError::Truncated {
            section: self.section,
            needed,
            available: self.buf.len() - self.pos,
        }
    }

    fn corrupt(&self, detail: impl Into<String>) -> SnapshotDecodeError {
        SnapshotDecodeError::Corrupt { section: self.section, detail: detail.into() }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotDecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(self.truncated(n));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotDecodeError> {
        Ok(self.bytes(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, SnapshotDecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(self.corrupt(format!("non-canonical bool byte {v}"))),
        }
    }

    fn u32(&mut self) -> Result<u32, SnapshotDecodeError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotDecodeError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// A u64 that must fit a count/length of in-memory items.
    fn count(&mut self, what: &str) -> Result<usize, SnapshotDecodeError> {
        let v = self.u64()?;
        // No section can describe more items than it has payload bytes:
        // every item costs at least one byte, so this bound rejects
        // length lies before any allocation.
        let cap = self.buf.len();
        if v > cap as u64 {
            return Err(self.corrupt(format!("{what} count {v} exceeds section size {cap}")));
        }
        Ok(v as usize)
    }

    fn done(&self) -> Result<(), SnapshotDecodeError> {
        if self.pos != self.buf.len() {
            return Err(self.corrupt(format!(
                "{} unread payload bytes after the last field",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }

    fn retire(&mut self) -> Result<RetireCounts, SnapshotDecodeError> {
        Ok(RetireCounts {
            insts: self.u32()?,
            loads: self.u32()?,
            stores: self.u32()?,
            ctrls: self.u32()?,
            branches: self.u32()?,
        })
    }

    fn action(&mut self) -> Result<ActionKind, SnapshotDecodeError> {
        Ok(match self.u8()? {
            0 => ActionKind::Advance { cycles: self.u32()?, retired: self.retire()? },
            1 => ActionKind::FetchRecord,
            2 => ActionKind::IssueLoad { lq_index: self.u32()? },
            3 => ActionKind::PollLoad { lq_index: self.u32()? },
            4 => ActionKind::IssueStore { sq_index: self.u32()? },
            5 => ActionKind::CancelLoad { lq_index: self.u32()? },
            6 => ActionKind::Rollback { ctrl_index: self.u32()? },
            7 => ActionKind::Finish,
            t => return Err(self.corrupt(format!("unknown action tag {t}"))),
        })
    }

    fn outcome(&mut self) -> Result<OutcomeKey, SnapshotDecodeError> {
        Ok(match self.u8()? {
            0 => {
                let flags = self.u8()?;
                if flags > 3 {
                    return Err(self.corrupt(format!("branch outcome flags {flags}")));
                }
                OutcomeKey::Branch { taken: flags & 1 != 0, mispredicted: flags & 2 != 0 }
            }
            1 => OutcomeKey::Indirect { target: self.u32()?, mispredicted: self.bool()? },
            2 => OutcomeKey::Halted,
            3 => OutcomeKey::Blocked,
            4 => OutcomeKey::Interval(self.u32()?),
            5 => OutcomeKey::PollReady,
            6 => OutcomeKey::PollWait(self.u32()?),
            t => return Err(self.corrupt(format!("unknown outcome tag {t}"))),
        })
    }
}

/// Splits the file into the header fingerprint plus the four
/// checksum-verified section payloads.
fn split_sections(bytes: &[u8]) -> Result<(u64, Vec<&[u8]>), SnapshotDecodeError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotDecodeError::Truncated {
            section: "header",
            needed: HEADER_LEN,
            available: bytes.len(),
        });
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotDecodeError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotDecodeError::UnsupportedVersion { found: version });
    }
    let fingerprint = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    let section_count = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    let reserved = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
    if section_count != SECTION_COUNT {
        return Err(SnapshotDecodeError::Corrupt {
            section: "header",
            detail: format!("section count {section_count} (expected {SECTION_COUNT})"),
        });
    }
    if reserved != 0 {
        return Err(SnapshotDecodeError::Corrupt {
            section: "header",
            detail: format!("reserved header field {reserved:#x} is not zero"),
        });
    }

    let mut pos = HEADER_LEN;
    let mut payloads = Vec::with_capacity(SECTIONS.len());
    for (tag, name) in SECTIONS {
        let frame = 4 + 8;
        if bytes.len() - pos < frame {
            return Err(SnapshotDecodeError::Truncated {
                section: name,
                needed: frame,
                available: bytes.len() - pos,
            });
        }
        let found_tag = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        if found_tag != tag {
            return Err(SnapshotDecodeError::Corrupt {
                section: name,
                detail: format!("section tag {found_tag} (expected {tag})"),
            });
        }
        let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8 bytes"));
        pos += frame;
        let remaining = bytes.len() - pos;
        // The length lie check: a section cannot claim more payload than
        // the file holds (checked before the cast so a absurd u64 cannot
        // wrap on 32-bit targets).
        if len > remaining as u64 || remaining - (len as usize) < 8 {
            return Err(SnapshotDecodeError::Truncated {
                section: name,
                needed: len.saturating_add(8) as usize,
                available: remaining,
            });
        }
        let payload = &bytes[pos..pos + len as usize];
        pos += len as usize;
        let stored = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
        pos += 8;
        if hash64(payload) != stored {
            return Err(SnapshotDecodeError::ChecksumMismatch { section: name });
        }
        payloads.push(payload);
    }
    if pos != bytes.len() {
        return Err(SnapshotDecodeError::TrailingBytes { extra: bytes.len() - pos });
    }
    Ok((fingerprint, payloads))
}

struct Meta {
    policy: Policy,
    base_len: usize,
    version: u64,
    node_count: usize,
}

fn decode_meta(payload: &[u8]) -> Result<Meta, SnapshotDecodeError> {
    let mut r = Reader::new(payload, "meta");
    let tag = r.u8()?;
    let limit = r.u64()?;
    let limit_usize = usize::try_from(limit)
        .map_err(|_| r.corrupt(format!("policy limit {limit} exceeds this platform")))?;
    let policy = match tag {
        0 if limit == 0 => Policy::Unbounded,
        0 => return Err(r.corrupt("unbounded policy with a non-zero limit")),
        1 => Policy::FlushOnFull { limit: limit_usize },
        2 => Policy::CopyingGc { limit: limit_usize },
        3 => Policy::GenerationalGc { limit: limit_usize },
        t => return Err(r.corrupt(format!("unknown policy tag {t}"))),
    };
    let base_len = r.u64()?;
    let version = r.u64()?;
    let node_count = r.u64()?;
    r.done()?;
    let node_count = usize::try_from(node_count)
        .map_err(|_| SnapshotDecodeError::Corrupt {
            section: "meta",
            detail: format!("node count {node_count} exceeds this platform"),
        })?;
    if node_count > u32::MAX as usize {
        return Err(SnapshotDecodeError::Corrupt {
            section: "meta",
            detail: format!("node count {node_count} exceeds the 32-bit id space"),
        });
    }
    if base_len > node_count as u64 {
        return Err(SnapshotDecodeError::Corrupt {
            section: "meta",
            detail: format!("base length {base_len} exceeds node count {node_count}"),
        });
    }
    Ok(Meta { policy, base_len: base_len as usize, version, node_count })
}

fn decode_stats(payload: &[u8]) -> Result<MemoStats, SnapshotDecodeError> {
    let mut r = Reader::new(payload, "stats");
    let mut stats = MemoStats::default();
    let usize_field = |r: &mut Reader<'_>, name: &str| -> Result<usize, SnapshotDecodeError> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| SnapshotDecodeError::Corrupt {
            section: "stats",
            detail: format!("{name} {v} exceeds this platform"),
        })
    };
    stats.static_configs = r.u64()?;
    stats.static_actions = r.u64()?;
    stats.bytes = usize_field(&mut r, "bytes")?;
    stats.peak_bytes = usize_field(&mut r, "peak_bytes")?;
    stats.flushes = r.u64()?;
    stats.collections = r.u64()?;
    stats.gc_survived_bytes = r.u64()?;
    stats.gc_scanned_bytes = r.u64()?;
    stats.config_hits = r.u64()?;
    stats.config_misses = r.u64()?;
    r.done()?;
    Ok(stats)
}

/// The nodes section, decoded: the node and edge arenas, the accessed
/// bits, and each configuration head's key as the file states it. A head's
/// `config` field indexes `keys` until [`cross_validate`] resolves it to an
/// index slot.
struct DecodedNodes {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    accessed: Vec<bool>,
    keys: Vec<ConfigRef>,
}

fn decode_nodes(payload: &[u8], node_count: usize) -> Result<DecodedNodes, SnapshotDecodeError> {
    let mut r = Reader::new(payload, "nodes");
    let mut nodes = Vec::with_capacity(node_count);
    let mut edges: Vec<Edge> = Vec::new();
    let mut accessed = Vec::with_capacity(node_count);
    let mut keys = Vec::new();
    for i in 0..node_count {
        let flags = r.u8()?;
        if flags > 7 {
            return Err(r.corrupt(format!("node {i}: unknown flag bits {flags:#x}")));
        }
        let kind = r.action()?;
        let tag = r.u8()?;
        if tag <= 2 && (tag == 2) != kind.has_outcome() {
            return Err(r.corrupt(format!(
                "node {i}: successor tag {tag} does not fit action {kind:?}"
            )));
        }
        let (link, count) = match tag {
            0 => (NONE, 0),
            1 => (r.u32()?, 0),
            2 => {
                let n = r.u32()?;
                if n as usize > node_count.max(payload.len()) {
                    return Err(r.corrupt(format!("node {i}: edge count {n} is implausible")));
                }
                let start = next_run_start(&edges);
                for _ in 0..n {
                    let key = r.outcome()?;
                    let to = r.u32()?;
                    edges.push(Edge { key, to });
                }
                if n > 0 {
                    pad_run(&mut edges, n);
                }
                (start, n)
            }
            t => return Err(r.corrupt(format!("node {i}: unknown successor tag {t}"))),
        };
        let config = if flags & 4 != 0 {
            keys.push(ConfigRef { offset: r.u32()?, len: r.u32()?, fp: r.u64()? });
            keys.len() as u32 - 1
        } else {
            NONE
        };
        nodes.push(Node { kind, link, edges: count, config, tenured: flags & 1 != 0 });
        accessed.push(flags & 2 != 0);
    }
    r.done()?;
    Ok(DecodedNodes { nodes, edges, accessed, keys })
}

fn decode_index(payload: &[u8], node_count: usize) -> Result<ConfigIndex, SnapshotDecodeError> {
    let mut r = Reader::new(payload, "index");
    let arena_len = r.count("arena byte")?;
    let arena = r.bytes(arena_len)?.to_vec();
    let slot_count = r.count("slot")?;
    let mut entries: Vec<(ConfigRef, NodeId)> = Vec::with_capacity(slot_count);
    for i in 0..slot_count {
        let cref = ConfigRef { offset: r.u32()?, len: r.u32()?, fp: r.u64()? };
        let head = r.u32()?;
        let end = cref.offset as u64 + cref.len as u64;
        if end > arena.len() as u64 {
            return Err(r.corrupt(format!(
                "slot {i}: arena range {}..{end} exceeds arena length {}",
                cref.offset,
                arena.len()
            )));
        }
        if (head as usize) >= node_count {
            return Err(r.corrupt(format!(
                "slot {i}: head node {head} out of bounds ({node_count} nodes)"
            )));
        }
        let bytes = &arena[cref.offset as usize..(cref.offset + cref.len) as usize];
        if hash64(bytes) != cref.fp {
            return Err(r.corrupt(format!(
                "slot {i}: stored fingerprint does not match its configuration bytes"
            )));
        }
        entries.push((cref, head));
    }
    r.done()?;
    Ok(ConfigIndex::from_parts(arena, entries))
}

/// Validates the cross-section invariants a well-formed snapshot upholds —
/// successor ids and configuration references in bounds, and every head's
/// key held by the index — and points each head at its index slot.
fn cross_validate(
    decoded: &mut DecodedNodes,
    index: &ConfigIndex,
) -> Result<(), SnapshotDecodeError> {
    let node_count = decoded.nodes.len();
    let arena_len = index.arena().len() as u64;
    let bad = |detail: String| SnapshotDecodeError::Corrupt { section: "nodes", detail };
    for (i, node) in decoded.nodes.iter_mut().enumerate() {
        if node.kind.has_outcome() {
            for edge in run(&decoded.edges, node) {
                if (edge.to as usize) >= node_count {
                    let id = edge.to;
                    return Err(bad(format!("node {i}: edge target {id} out of bounds")));
                }
            }
        } else if node.link != NONE && (node.link as usize) >= node_count {
            let id = node.link;
            return Err(bad(format!("node {i}: successor {id} out of bounds")));
        }
        if node.config != NONE {
            let cref = decoded.keys[node.config as usize];
            let end = cref.offset as u64 + cref.len as u64;
            if end > arena_len {
                return Err(bad(format!(
                    "node {i}: config bytes {}..{end} exceed arena length {arena_len}",
                    cref.offset
                )));
            }
            let bytes = index.bytes_at(cref);
            if hash64(bytes) != cref.fp {
                return Err(bad(format!(
                    "node {i}: config fingerprint does not match its bytes"
                )));
            }
            // In memory a head names its index slot, so its key must be
            // one the index holds, at the same arena range.
            node.config = index
                .find_slot(cref.fp, bytes)
                .filter(|&slot| index.cref(slot) == cref)
                .ok_or_else(|| {
                    bad(format!(
                        "node {i}: config bytes {}..{end} are not a key of the index",
                        cref.offset
                    ))
                })?;
        }
    }
    Ok(())
}

/// Decodes a `fastsim-snapshot/v2` file.
///
/// When `expected_fingerprint` is given, the header fingerprint must match
/// it exactly — loading a snapshot recorded under a different program,
/// µ-architecture or hierarchy is a typed error, not a silent cold start
/// gone wrong.
///
/// Returns the decoded snapshot plus the fingerprint it was recorded
/// under.
///
/// # Errors
///
/// A [`SnapshotDecodeError`] naming exactly what was wrong; a damaged file
/// is never partially applied.
pub fn decode_snapshot(
    bytes: &[u8],
    expected_fingerprint: Option<u64>,
) -> Result<(CacheSnapshot, u64), SnapshotDecodeError> {
    let (fingerprint, payloads) = split_sections(bytes)?;
    if let Some(expected) = expected_fingerprint {
        if fingerprint != expected {
            return Err(SnapshotDecodeError::FingerprintMismatch { expected, found: fingerprint });
        }
    }
    let meta = decode_meta(payloads[0])?;
    let stats = decode_stats(payloads[1])?;
    let mut decoded = decode_nodes(payloads[2], meta.node_count)?;
    let index = decode_index(payloads[3], meta.node_count)?;
    cross_validate(&mut decoded, &index)?;
    let snap = CacheSnapshot {
        nodes: decoded.nodes,
        edges: decoded.edges,
        accessed: decoded.accessed,
        index,
        policy: meta.policy,
        stats,
        base_len: meta.base_len,
        version: meta.version,
    };
    Ok((snap, fingerprint))
}

/// Round-trip self-check used by tests and the corruption fuzzer: two
/// snapshots are wire-equal iff they encode to the same bytes under the
/// same fingerprint.
pub fn snapshots_wire_equal(a: &CacheSnapshot, b: &CacheSnapshot) -> bool {
    encode_snapshot(a, 0) == encode_snapshot(b, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConfigLookup, PActionCache};

    /// Builds a cache with a couple of configurations and outcome
    /// branches, then freezes it.
    fn sample_snapshot() -> CacheSnapshot {
        let mut pc = PActionCache::new(Policy::Unbounded);
        assert_eq!(pc.register_config(b"config-A"), ConfigLookup::Miss);
        pc.record_action(ActionKind::Advance {
            cycles: 4,
            retired: RetireCounts { insts: 2, ..RetireCounts::default() },
        });
        let load = pc.record_action(ActionKind::IssueLoad { lq_index: 0 });
        pc.set_outcome(load, OutcomeKey::Interval(6));
        pc.record_action(ActionKind::Advance { cycles: 6, retired: RetireCounts::default() });
        let fetch = pc.record_action(ActionKind::FetchRecord);
        pc.set_outcome(fetch, OutcomeKey::Branch { taken: true, mispredicted: false });
        assert_eq!(pc.register_config(b"config-B"), ConfigLookup::Miss);
        pc.record_action(ActionKind::IssueStore { sq_index: 1 });
        pc.record_action(ActionKind::Finish);
        pc.freeze()
    }

    #[test]
    fn round_trips_bit_identically() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap, 0xdead_beef_cafe_f00d);
        let (back, fp) = decode_snapshot(&bytes, Some(0xdead_beef_cafe_f00d)).expect("decodes");
        assert_eq!(fp, 0xdead_beef_cafe_f00d);
        assert_eq!(back.config_count(), snap.config_count());
        assert_eq!(back.node_count(), snap.node_count());
        assert_eq!(back.stats(), snap.stats());
        // Canonical encoding: decode → encode reproduces the bytes.
        assert_eq!(encode_snapshot(&back, 0xdead_beef_cafe_f00d), bytes);
        assert!(snapshots_wire_equal(&snap, &back));
    }

    #[test]
    fn decoded_snapshot_thaws_and_replays() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap, 1);
        let (back, _) = decode_snapshot(&bytes, None).expect("decodes");
        let mut thawed = PActionCache::from_snapshot(&back);
        assert_eq!(thawed.register_config(b"config-A"), ConfigLookup::Hit(0));
        assert!(matches!(thawed.register_config(b"config-B"), ConfigLookup::Hit(_)));
    }

    #[test]
    fn rejects_wrong_magic_version_and_fingerprint() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap, 42);

        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            decode_snapshot(&bad, None).expect_err("bad magic"),
            SnapshotDecodeError::BadMagic
        );

        let mut bad = bytes.clone();
        bad[8] = 9;
        assert_eq!(
            decode_snapshot(&bad, None).expect_err("bad version"),
            SnapshotDecodeError::UnsupportedVersion { found: 9 }
        );

        // Version 1 (with trace-segment sections) is no longer read.
        let mut v1 = bytes.clone();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            decode_snapshot(&v1, None).expect_err("v1"),
            SnapshotDecodeError::UnsupportedVersion { found: 1 }
        );

        assert_eq!(
            decode_snapshot(&bytes, Some(43)).expect_err("wrong fingerprint"),
            SnapshotDecodeError::FingerprintMismatch { expected: 43, found: 42 }
        );
    }

    #[test]
    fn rejects_every_truncation() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap, 7);
        for cut in 0..bytes.len() {
            let err = decode_snapshot(&bytes[..cut], None)
                .expect_err("every prefix must be rejected");
            assert!(
                matches!(
                    err,
                    SnapshotDecodeError::Truncated { .. }
                        | SnapshotDecodeError::BadMagic
                        | SnapshotDecodeError::ChecksumMismatch { .. }
                        | SnapshotDecodeError::Corrupt { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn rejects_payload_bit_flips() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap, 7);
        // Flip one bit in every byte past the header: each must be caught
        // by a checksum (or a stricter header/frame check).
        for pos in HEADER_LEN..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 1;
            assert!(
                decode_snapshot(&bad, Some(7)).is_err(),
                "bit flip at {pos} must be rejected"
            );
        }
    }

    #[test]
    fn rejects_section_length_lies() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap, 7);
        // The first section's length field sits right after its tag.
        let len_at = HEADER_LEN + 4;
        for lie in [0u64, 1, 1 << 20, u64::MAX] {
            let mut bad = bytes.clone();
            bad[len_at..len_at + 8].copy_from_slice(&lie.to_le_bytes());
            assert!(
                decode_snapshot(&bad, None).is_err(),
                "length lie {lie} must be rejected"
            );
        }
    }

    /// Recomputes the checksum of section `k` after a test patched its
    /// payload, so that the patch reaches the semantic checks.
    fn reseal(bytes: &mut [u8], k: usize) {
        let mut pos = HEADER_LEN;
        for i in 0..SECTIONS.len() {
            let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
            let payload = pos + 12;
            if i == k {
                let sum = hash64(&bytes[payload..payload + len]);
                bytes[payload + len..payload + len + 8].copy_from_slice(&sum.to_le_bytes());
                return;
            }
            pos = payload + len + 8;
        }
    }

    /// Offset of the nodes payload in an encoded snapshot.
    fn nodes_payload(bytes: &[u8]) -> usize {
        let mut pos = HEADER_LEN;
        for _ in 0..2 {
            let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
            pos += 12 + len + 8;
        }
        pos + 12
    }

    #[test]
    fn edges_round_trip_in_insertion_order() {
        let mut pc = PActionCache::new(Policy::Unbounded);
        assert_eq!(pc.register_config(b"A"), ConfigLookup::Miss);
        let load = pc.record_action(ActionKind::IssueLoad { lq_index: 0 });
        for v in [9u32, 3, 7, 1, 5] {
            pc.resume_recording_at(load, Some(OutcomeKey::Interval(v)));
            pc.record_action(ActionKind::Finish);
        }
        let snap = pc.freeze();
        let bytes = encode_snapshot(&snap, 5);
        let (back, _) = decode_snapshot(&bytes, Some(5)).expect("decodes");
        let keys: Vec<OutcomeKey> =
            back.run_of(&back.nodes[load as usize]).iter().map(|e| e.key).collect();
        let expected: Vec<OutcomeKey> =
            [9u32, 3, 7, 1, 5].into_iter().map(OutcomeKey::Interval).collect();
        assert_eq!(keys, expected);
        assert_eq!(encode_snapshot(&back, 5), bytes);
    }

    #[test]
    fn rejects_a_successor_tag_that_does_not_fit_the_action() {
        let snap = sample_snapshot();
        let mut bytes = encode_snapshot(&snap, 7);
        // Node 0 is an `Advance` (flags, tag, cycles, five retire counts)
        // with one successor: claim outcome edges instead.
        let tag_at = nodes_payload(&bytes) + 1 + 1 + 4 + 20;
        assert_eq!(bytes[tag_at], 1);
        bytes[tag_at] = 2;
        reseal(&mut bytes, 2);
        match decode_snapshot(&bytes, None) {
            Err(SnapshotDecodeError::Corrupt { section: "nodes", detail }) => {
                assert!(detail.contains("does not fit"), "{detail}")
            }
            other => panic!("expected a corrupt nodes section, got {other:?}"),
        }
    }

    #[test]
    fn rejects_a_head_whose_key_the_index_does_not_hold() {
        let snap = sample_snapshot();
        let mut bytes = encode_snapshot(&snap, 7);
        // Node 0 heads "config-A" (arena 0..8). Point it at 0..7 with a
        // matching fingerprint: in bounds and self-consistent, but no key.
        let cref_at = nodes_payload(&bytes) + 1 + 1 + 4 + 20 + 1 + 4;
        assert_eq!(&bytes[cref_at + 4..cref_at + 8], &8u32.to_le_bytes());
        bytes[cref_at + 4..cref_at + 8].copy_from_slice(&7u32.to_le_bytes());
        bytes[cref_at + 8..cref_at + 16].copy_from_slice(&hash64(b"config-").to_le_bytes());
        reseal(&mut bytes, 2);
        match decode_snapshot(&bytes, None) {
            Err(SnapshotDecodeError::Corrupt { section: "nodes", detail }) => {
                assert!(detail.contains("not a key"), "{detail}")
            }
            other => panic!("expected a corrupt nodes section, got {other:?}"),
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let snap = sample_snapshot();
        let mut bytes = encode_snapshot(&snap, 7);
        bytes.extend_from_slice(b"junk");
        assert_eq!(
            decode_snapshot(&bytes, None).expect_err("trailing bytes"),
            SnapshotDecodeError::TrailingBytes { extra: 4 }
        );
    }

    #[test]
    fn error_messages_name_the_problem() {
        let msgs = [
            SnapshotDecodeError::BadMagic.to_string(),
            SnapshotDecodeError::UnsupportedVersion { found: 3 }.to_string(),
            SnapshotDecodeError::FingerprintMismatch { expected: 1, found: 2 }.to_string(),
            SnapshotDecodeError::Truncated { section: "nodes", needed: 8, available: 3 }
                .to_string(),
            SnapshotDecodeError::ChecksumMismatch { section: "index" }.to_string(),
            SnapshotDecodeError::TrailingBytes { extra: 9 }.to_string(),
        ];
        for m in &msgs {
            assert!(!m.is_empty());
        }
        assert!(msgs[3].contains("nodes"));
        assert!(msgs[4].contains("index"));
    }
}
