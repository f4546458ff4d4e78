//! The `fastsim-snapshot/v3` binary format: durable, portable encoding of
//! a frozen [`CacheSnapshot`].
//!
//! Memoized warmth is only worth persisting if a stale or damaged file can
//! *never* mis-replay, so the format is built for strict
//! reject-don't-guess decoding:
//!
//! * the file is framed by the workspace's shared record framing,
//!   [`fastsim_hash::frame`], under [`SNAPSHOT_FORMAT`]: a header with a
//!   magic and the format version, then five records, each carrying its
//!   own length and a [`hash64`] checksum — truncation, bit flips and
//!   length lies are all detected per record;
//! * the first record is the full (program, µ-architecture, hierarchy)
//!   fingerprint the snapshot was recorded under — a reader for the wrong
//!   version or the wrong model gets a typed error before any section is
//!   parsed;
//! * the `meta`, `stats`, `nodes` and `index` sections follow, each
//!   exactly once and in that order, with nothing after them;
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
//! range.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! header   magic "FSIMSNAP" (8) | version u32 (3)
//! record   kind u8 | len u32 | payload[len] | checksum u64
//! records  0 fingerprint (u64) · 1 meta · 2 stats · 3 nodes · 4 index
//! ```
//!
//! The checksum is [`hash64`] over kind ‖ len ‖ payload. The four section
//! payloads are version 2's, byte for byte; see `docs/snapshots.md` for
//! the field tables. Versions 1 and 2 framed them differently, and this
//! build rejects both with [`FrameError::UnsupportedVersion`]. Encoding is
//! canonical: re-encoding a decoded snapshot reproduces the input bytes
//! exactly, which the golden fixtures under `tests/fixtures/` pin.

use crate::action::{ActionKind, NodeId, OutcomeKey, RetireCounts};
use crate::cache::{next_run_start, pad_run, run, Edge, Node, NONE};
use crate::index::{ConfigIndex, ConfigRef};
use crate::policy::Policy;
use crate::snapshot::CacheSnapshot;
use crate::MemoStats;
use fastsim_hash::frame::{
    Format, FrameError, PutLe, Reader, TailPolicy, HEADER_LEN, RECORD_OVERHEAD,
};
use fastsim_hash::hash64;
use std::fmt;

/// The `fastsim-snapshot/v3` framing: magic `FSIMSNAP`, version 3, records
/// up to `u32::MAX` bytes, [`hash64`] checksums.
pub const SNAPSHOT_FORMAT: Format =
    Format { magic: *b"FSIMSNAP", version: 3, max_payload: u32::MAX, checksum: hash64 };

/// The records of a snapshot, in order; each one's kind is its index.
const RECORDS: [&str; 5] = ["fingerprint", "meta", "stats", "nodes", "index"];

/// Why a snapshot file was rejected. Every variant is a hard rejection:
/// the decoder never guesses, pads or partially applies a damaged file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotDecodeError {
    /// The framing is damaged: a bad magic, a version this build does not
    /// read, a truncated record or a checksum mismatch.
    Frame(FrameError),
    /// The fingerprint record does not match the model the caller is
    /// loading for.
    FingerprintMismatch {
        /// The fingerprint the caller expected.
        expected: u64,
        /// The fingerprint the file holds.
        found: u64,
    },
    /// A record framed correctly but the file is invalid: a record is
    /// missing, repeated, out of order or trailing, or a section's content
    /// is invalid (bad tag, out-of-bounds id or range, non-canonical
    /// layout, short or over-long payload).
    Corrupt {
        /// The offending record.
        section: &'static str,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for SnapshotDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotDecodeError::Frame(e) => write!(f, "fastsim-snapshot/v3 framing: {e}"),
            SnapshotDecodeError::FingerprintMismatch { expected, found } => write!(
                f,
                "snapshot fingerprint {found:#018x} does not match expected {expected:#018x}"
            ),
            SnapshotDecodeError::Corrupt { section, detail } => {
                write!(f, "corrupt section `{section}`: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotDecodeError {}

impl From<FrameError> for SnapshotDecodeError {
    fn from(e: FrameError) -> SnapshotDecodeError {
        SnapshotDecodeError::Frame(e)
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn w_action(out: &mut Vec<u8>, kind: &ActionKind) {
    match *kind {
        ActionKind::Advance { cycles, retired } => {
            out.push(0);
            out.put_u32(cycles);
            w_retire(out, &retired);
        }
        ActionKind::FetchRecord => out.push(1),
        ActionKind::IssueLoad { lq_index } => {
            out.push(2);
            out.put_u32(lq_index);
        }
        ActionKind::PollLoad { lq_index } => {
            out.push(3);
            out.put_u32(lq_index);
        }
        ActionKind::IssueStore { sq_index } => {
            out.push(4);
            out.put_u32(sq_index);
        }
        ActionKind::CancelLoad { lq_index } => {
            out.push(5);
            out.put_u32(lq_index);
        }
        ActionKind::Rollback { ctrl_index } => {
            out.push(6);
            out.put_u32(ctrl_index);
        }
        ActionKind::Finish => out.push(7),
    }
}

fn w_retire(out: &mut Vec<u8>, r: &RetireCounts) {
    for v in [r.insts, r.loads, r.stores, r.ctrls, r.branches] {
        out.put_u32(v);
    }
}

fn w_outcome(out: &mut Vec<u8>, key: &OutcomeKey) {
    match *key {
        OutcomeKey::Branch { taken, mispredicted } => {
            out.push(0);
            out.push(u8::from(taken) | (u8::from(mispredicted) << 1));
        }
        OutcomeKey::Indirect { target, mispredicted } => {
            out.push(1);
            out.put_u32(target);
            out.push(u8::from(mispredicted));
        }
        OutcomeKey::Halted => out.push(2),
        OutcomeKey::Blocked => out.push(3),
        OutcomeKey::Interval(v) => {
            out.push(4);
            out.put_u32(v);
        }
        OutcomeKey::PollReady => out.push(5),
        OutcomeKey::PollWait(v) => {
            out.push(6);
            out.put_u32(v);
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
    out.push(tag);
    out.put_u64(limit as u64);
    out.put_u64(snap.base_len as u64);
    out.put_u64(snap.version);
    out.put_u64(snap.nodes.len() as u64);
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
        out.put_u64(v);
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
        out.push(flags);
        w_action(&mut out, &node.kind);
        // The successor tag is implied by the action kind in memory; the
        // format spells it out.
        if node.kind.has_outcome() {
            out.push(2);
            out.put_u32(node.edges);
            for edge in snap.run_of(node) {
                w_outcome(&mut out, &edge.key);
                out.put_u32(edge.to);
            }
        } else if node.link == NONE {
            out.push(0);
        } else {
            out.push(1);
            out.put_u32(node.link);
        }
        if node.is_config_head() {
            let cref = snap.index.cref(node.config);
            out.put_u32(cref.offset);
            out.put_u32(cref.len);
            out.put_u64(cref.fp);
        }
    }
    out
}

fn encode_index(index: &ConfigIndex) -> Vec<u8> {
    let mut out = Vec::new();
    let arena = index.arena();
    out.put_u64(arena.len() as u64);
    out.extend_from_slice(arena);
    out.put_u64(index.len() as u64);
    for (cref, head) in index.slot_entries() {
        out.put_u32(cref.offset);
        out.put_u32(cref.len);
        out.put_u64(cref.fp);
        out.put_u32(head);
    }
    out
}

/// Encodes a frozen snapshot (plus the model `fingerprint` it was recorded
/// under) into the `fastsim-snapshot/v3` byte format.
///
/// Encoding is canonical and deterministic: equal snapshots produce equal
/// bytes, and [`decode_snapshot`] followed by `encode_snapshot`
/// reproduces the input exactly.
///
/// # Panics
///
/// If one section exceeds 4 GiB, which a record's `u32` length cannot
/// frame.
pub fn encode_snapshot(snap: &CacheSnapshot, fingerprint: u64) -> Vec<u8> {
    let mut fp = Vec::new();
    fp.put_u64(fingerprint);
    let payloads = [
        fp,
        encode_meta(snap),
        encode_stats(&snap.stats),
        encode_nodes(snap),
        encode_index(&snap.index),
    ];
    let body: usize = payloads.iter().map(|p| p.len() + RECORD_OVERHEAD).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + body);
    out.extend_from_slice(&SNAPSHOT_FORMAT.header());
    for (kind, payload) in payloads.iter().enumerate() {
        SNAPSHOT_FORMAT
            .put_record(&mut out, kind as u8, payload)
            .expect("a snapshot section under 4 GiB");
    }
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

// The section decoders return a `Corrupt` error's detail; `decode_snapshot`
// names the section.

fn corrupt(section: &'static str) -> impl Fn(String) -> SnapshotDecodeError {
    move |detail| SnapshotDecodeError::Corrupt { section, detail }
}

fn read_bool(r: &mut Reader<'_>) -> Result<bool, String> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(format!("non-canonical bool byte {v}")),
    }
}

fn read_retire(r: &mut Reader<'_>) -> Result<RetireCounts, String> {
    Ok(RetireCounts {
        insts: r.u32()?,
        loads: r.u32()?,
        stores: r.u32()?,
        ctrls: r.u32()?,
        branches: r.u32()?,
    })
}

fn read_action(r: &mut Reader<'_>) -> Result<ActionKind, String> {
    Ok(match r.u8()? {
        0 => ActionKind::Advance { cycles: r.u32()?, retired: read_retire(r)? },
        1 => ActionKind::FetchRecord,
        2 => ActionKind::IssueLoad { lq_index: r.u32()? },
        3 => ActionKind::PollLoad { lq_index: r.u32()? },
        4 => ActionKind::IssueStore { sq_index: r.u32()? },
        5 => ActionKind::CancelLoad { lq_index: r.u32()? },
        6 => ActionKind::Rollback { ctrl_index: r.u32()? },
        7 => ActionKind::Finish,
        t => return Err(format!("unknown action tag {t}")),
    })
}

fn read_outcome(r: &mut Reader<'_>) -> Result<OutcomeKey, String> {
    Ok(match r.u8()? {
        0 => {
            let flags = r.u8()?;
            if flags > 3 {
                return Err(format!("branch outcome flags {flags}"));
            }
            OutcomeKey::Branch { taken: flags & 1 != 0, mispredicted: flags & 2 != 0 }
        }
        1 => OutcomeKey::Indirect { target: r.u32()?, mispredicted: read_bool(r)? },
        2 => OutcomeKey::Halted,
        3 => OutcomeKey::Blocked,
        4 => OutcomeKey::Interval(r.u32()?),
        5 => OutcomeKey::PollReady,
        6 => OutcomeKey::PollWait(r.u32()?),
        t => return Err(format!("unknown outcome tag {t}")),
    })
}

/// Reads the file's framing and returns the five checksum-verified
/// payloads, in [`RECORDS`] order.
fn split_records(bytes: &[u8]) -> Result<[&[u8]; 5], SnapshotDecodeError> {
    let frames = SNAPSHOT_FORMAT.read(bytes, TailPolicy::Strict)?;
    let mut payloads: [&[u8]; 5] = [&[]; 5];
    for (kind, &name) in RECORDS.iter().enumerate() {
        let Some(record) = frames.records.get(kind) else {
            return Err(corrupt(name)("the record is missing".to_string()));
        };
        let (found, at) = (record.kind, record.offset);
        if usize::from(found) != kind {
            let detail = format!("record kind {found} at offset {at} (expected {kind})");
            return Err(corrupt(name)(detail));
        }
        payloads[kind] = record.payload;
    }
    if let Some(extra) = frames.records.get(RECORDS.len()) {
        let (kind, at) = (extra.kind, extra.offset);
        let detail = format!("a record of kind {kind} at offset {at} after the last section");
        return Err(corrupt("file")(detail));
    }
    Ok(payloads)
}

struct Meta {
    policy: Policy,
    base_len: usize,
    version: u64,
    node_count: usize,
}

fn decode_fingerprint(payload: &[u8]) -> Result<u64, String> {
    let mut r = Reader::new(payload);
    let fingerprint = r.u64()?;
    r.finish()?;
    Ok(fingerprint)
}

fn decode_meta(payload: &[u8]) -> Result<Meta, String> {
    let mut r = Reader::new(payload);
    let tag = r.u8()?;
    let limit = r.u64()?;
    let limit_usize = usize::try_from(limit)
        .map_err(|_| format!("policy limit {limit} exceeds this platform"))?;
    let policy = match tag {
        0 if limit == 0 => Policy::Unbounded,
        0 => return Err("unbounded policy with a non-zero limit".to_string()),
        1 => Policy::FlushOnFull { limit: limit_usize },
        2 => Policy::CopyingGc { limit: limit_usize },
        3 => Policy::GenerationalGc { limit: limit_usize },
        t => return Err(format!("unknown policy tag {t}")),
    };
    let base_len = r.u64()?;
    let version = r.u64()?;
    let node_count = r.u64()?;
    r.finish()?;
    let node_count = usize::try_from(node_count)
        .map_err(|_| format!("node count {node_count} exceeds this platform"))?;
    if node_count > u32::MAX as usize {
        return Err(format!("node count {node_count} exceeds the 32-bit id space"));
    }
    if base_len > node_count as u64 {
        return Err(format!("base length {base_len} exceeds node count {node_count}"));
    }
    Ok(Meta { policy, base_len: base_len as usize, version, node_count })
}

fn decode_stats(payload: &[u8]) -> Result<MemoStats, String> {
    let mut r = Reader::new(payload);
    let mut stats = MemoStats::default();
    let usize_field = |r: &mut Reader<'_>, name: &str| -> Result<usize, String> {
        let v = r.u64()?;
        usize::try_from(v).map_err(|_| format!("{name} {v} exceeds this platform"))
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
    r.finish()?;
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

fn decode_nodes(payload: &[u8], node_count: usize) -> Result<DecodedNodes, String> {
    let mut r = Reader::new(payload);
    let mut nodes = Vec::with_capacity(node_count);
    let mut edges: Vec<Edge> = Vec::new();
    let mut accessed = Vec::with_capacity(node_count);
    let mut keys = Vec::new();
    for i in 0..node_count {
        let flags = r.u8()?;
        if flags > 7 {
            return Err(format!("node {i}: unknown flag bits {flags:#x}"));
        }
        let kind = read_action(&mut r)?;
        let tag = r.u8()?;
        if tag <= 2 && (tag == 2) != kind.has_outcome() {
            return Err(format!("node {i}: successor tag {tag} does not fit action {kind:?}"));
        }
        let (link, count) = match tag {
            0 => (NONE, 0),
            1 => (r.u32()?, 0),
            2 => {
                let n = r.u32()?;
                if n as usize > node_count.max(payload.len()) {
                    return Err(format!("node {i}: edge count {n} is implausible"));
                }
                let start = next_run_start(&edges);
                for _ in 0..n {
                    let key = read_outcome(&mut r)?;
                    let to = r.u32()?;
                    edges.push(Edge { key, to });
                }
                if n > 0 {
                    pad_run(&mut edges, n);
                }
                (start, n)
            }
            t => return Err(format!("node {i}: unknown successor tag {t}")),
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
    r.finish()?;
    Ok(DecodedNodes { nodes, edges, accessed, keys })
}

fn decode_index(payload: &[u8], node_count: usize) -> Result<ConfigIndex, String> {
    let mut r = Reader::new(payload);
    // No section can describe more items than it has payload bytes: every
    // item costs at least one byte, so this bound rejects length lies
    // before any allocation.
    let count = |r: &mut Reader<'_>, what: &str| -> Result<usize, String> {
        let (v, cap) = (r.u64()?, payload.len());
        if v > cap as u64 {
            return Err(format!("{what} count {v} exceeds section size {cap}"));
        }
        Ok(v as usize)
    };
    let arena_len = count(&mut r, "arena byte")?;
    let arena = r.bytes(arena_len)?.to_vec();
    let slot_count = count(&mut r, "slot")?;
    let mut entries: Vec<(ConfigRef, NodeId)> = Vec::with_capacity(slot_count);
    for i in 0..slot_count {
        let cref = ConfigRef { offset: r.u32()?, len: r.u32()?, fp: r.u64()? };
        let head = r.u32()?;
        let end = cref.offset as u64 + cref.len as u64;
        if end > arena.len() as u64 {
            return Err(format!(
                "slot {i}: arena range {}..{end} exceeds arena length {}",
                cref.offset,
                arena.len()
            ));
        }
        if (head as usize) >= node_count {
            return Err(format!("slot {i}: head node {head} out of bounds ({node_count} nodes)"));
        }
        let bytes = &arena[cref.offset as usize..(cref.offset + cref.len) as usize];
        if hash64(bytes) != cref.fp {
            return Err(format!(
                "slot {i}: stored fingerprint does not match its configuration bytes"
            ));
        }
        entries.push((cref, head));
    }
    r.finish()?;
    Ok(ConfigIndex::from_parts(arena, entries))
}

/// Validates the cross-section invariants a well-formed snapshot upholds —
/// successor ids and configuration references in bounds, and every head's
/// key held by the index — and points each head at its index slot.
fn cross_validate(decoded: &mut DecodedNodes, index: &ConfigIndex) -> Result<(), String> {
    let node_count = decoded.nodes.len();
    let arena_len = index.arena().len() as u64;
    for (i, node) in decoded.nodes.iter_mut().enumerate() {
        if node.kind.has_outcome() {
            for edge in run(&decoded.edges, node) {
                if (edge.to as usize) >= node_count {
                    let id = edge.to;
                    return Err(format!("node {i}: edge target {id} out of bounds"));
                }
            }
        } else if node.link != NONE && (node.link as usize) >= node_count {
            let id = node.link;
            return Err(format!("node {i}: successor {id} out of bounds"));
        }
        if node.config != NONE {
            let cref = decoded.keys[node.config as usize];
            let end = cref.offset as u64 + cref.len as u64;
            if end > arena_len {
                return Err(format!(
                    "node {i}: config bytes {}..{end} exceed arena length {arena_len}",
                    cref.offset
                ));
            }
            let bytes = index.bytes_at(cref);
            if hash64(bytes) != cref.fp {
                return Err(format!("node {i}: config fingerprint does not match its bytes"));
            }
            // In memory a head names its index slot, so its key must be
            // one the index holds, at the same arena range.
            node.config = index
                .find_slot(cref.fp, bytes)
                .filter(|&slot| index.cref(slot) == cref)
                .ok_or_else(|| {
                    let start = cref.offset;
                    format!("node {i}: config bytes {start}..{end} are not a key of the index")
                })?;
        }
    }
    Ok(())
}

/// Decodes a `fastsim-snapshot/v3` file.
///
/// When `expected_fingerprint` is given, the fingerprint record must match
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
    let [fingerprint, meta, stats, nodes, index] = split_records(bytes)?;
    let fingerprint = decode_fingerprint(fingerprint).map_err(corrupt("fingerprint"))?;
    if let Some(expected) = expected_fingerprint {
        if fingerprint != expected {
            return Err(SnapshotDecodeError::FingerprintMismatch { expected, found: fingerprint });
        }
    }
    let meta = decode_meta(meta).map_err(corrupt("meta"))?;
    let stats = decode_stats(stats).map_err(corrupt("stats"))?;
    let mut decoded = decode_nodes(nodes, meta.node_count).map_err(corrupt("nodes"))?;
    let index = decode_index(index, meta.node_count).map_err(corrupt("index"))?;
    cross_validate(&mut decoded, &index).map_err(corrupt("nodes"))?;
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

    /// The records of an encoded snapshot as `(kind, payload)` pairs.
    fn records(bytes: &[u8]) -> Vec<(u8, Vec<u8>)> {
        let frames = SNAPSHOT_FORMAT.read(bytes, TailPolicy::Strict).expect("valid framing");
        frames.records.iter().map(|r| (r.kind, r.payload.to_vec())).collect()
    }

    /// Frames `records` as a snapshot file, so that a test can patch a
    /// payload (or reorder records) and still reach the semantic checks.
    fn reframe(records: &[(u8, Vec<u8>)]) -> Vec<u8> {
        let mut out = SNAPSHOT_FORMAT.header().to_vec();
        for (kind, payload) in records {
            SNAPSHOT_FORMAT.put_record(&mut out, *kind, payload).expect("small");
        }
        out
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
        // Five records, in order; the first is the fingerprint.
        let recs = records(&bytes);
        assert_eq!(recs.iter().map(|r| r.0).collect::<Vec<_>>(), [0, 1, 2, 3, 4]);
        assert_eq!(Reader::new(&recs[0].1).u64(), Ok(0xdead_beef_cafe_f00d));
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
            SnapshotDecodeError::Frame(FrameError::BadMagic)
        );

        // Version 1 carried trace-segment sections and version 2 framed
        // the same sections differently; neither is read any more.
        for version in [1u8, 2, 9] {
            let mut bad = bytes.clone();
            bad[8] = version;
            assert_eq!(
                decode_snapshot(&bad, None).expect_err("unsupported version"),
                SnapshotDecodeError::Frame(FrameError::UnsupportedVersion {
                    found: u32::from(version)
                })
            );
        }

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
                    SnapshotDecodeError::Frame(FrameError::Truncated { .. })
                        | SnapshotDecodeError::Corrupt { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn rejects_every_bit_flip_even_without_an_expected_fingerprint() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap, 7);
        // Every byte, the fingerprint record's included, is covered by
        // the header checks or a record checksum.
        for pos in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[pos] ^= 1;
            assert!(decode_snapshot(&bad, None).is_err(), "bit flip at {pos} must be rejected");
        }
    }

    #[test]
    fn rejects_record_length_lies() {
        let snap = sample_snapshot();
        let bytes = encode_snapshot(&snap, 7);
        // The first record's length field sits right after its kind.
        let len_at = HEADER_LEN + 1;
        for lie in [0u32, 1, 1 << 20, u32::MAX] {
            let mut bad = bytes.clone();
            let mut field = Vec::new();
            field.put_u32(lie);
            bad[len_at..len_at + 4].copy_from_slice(&field);
            assert!(decode_snapshot(&bad, None).is_err(), "length lie {lie} must be rejected");
        }
    }

    #[test]
    fn rejects_a_missing_repeated_reordered_or_trailing_record() {
        let recs = records(&encode_snapshot(&sample_snapshot(), 7));
        let missing = reframe(&recs[..4]);
        let mut repeated = recs.clone();
        repeated.insert(2, recs[1].clone());
        let mut reordered = recs.clone();
        reordered.swap(2, 3);
        let mut trailing = recs.clone();
        trailing.push((5, Vec::new()));
        for (what, bytes, section) in [
            ("missing", missing, "index"),
            ("repeated", reframe(&repeated), "stats"),
            ("reordered", reframe(&reordered), "stats"),
            ("trailing", reframe(&trailing), "file"),
        ] {
            match decode_snapshot(&bytes, None) {
                Err(SnapshotDecodeError::Corrupt { section: s, .. }) if s == section => {}
                other => panic!("{what} record: expected corrupt `{section}`, got {other:?}"),
            }
        }
        // Trailing bytes short of a record are a truncated frame.
        let mut bytes = reframe(&recs);
        bytes.extend_from_slice(b"junk");
        assert!(matches!(
            decode_snapshot(&bytes, None),
            Err(SnapshotDecodeError::Frame(FrameError::Truncated { available: 4, .. }))
        ));
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
        let mut recs = records(&encode_snapshot(&sample_snapshot(), 7));
        // Node 0 is an `Advance` (flags, tag, cycles, five retire counts)
        // with one successor: claim outcome edges instead.
        let nodes = &mut recs[3].1;
        let tag_at = 1 + 1 + 4 + 20;
        assert_eq!(nodes[tag_at], 1);
        nodes[tag_at] = 2;
        match decode_snapshot(&reframe(&recs), None) {
            Err(SnapshotDecodeError::Corrupt { section: "nodes", detail }) => {
                assert!(detail.contains("does not fit"), "{detail}")
            }
            other => panic!("expected a corrupt nodes section, got {other:?}"),
        }
    }

    #[test]
    fn rejects_a_head_whose_key_the_index_does_not_hold() {
        let mut recs = records(&encode_snapshot(&sample_snapshot(), 7));
        // Node 0 heads "config-A" (arena 0..8). Point it at 0..7 with a
        // matching fingerprint: in bounds and self-consistent, but no key.
        let nodes = &mut recs[3].1;
        let cref_at = 1 + 1 + 4 + 20 + 1 + 4;
        assert_eq!(Reader::new(&nodes[cref_at + 4..cref_at + 8]).u32(), Ok(8));
        let mut key = Vec::new();
        key.put_u32(7);
        key.put_u64(hash64(b"config-"));
        nodes[cref_at + 4..cref_at + 16].copy_from_slice(&key);
        match decode_snapshot(&reframe(&recs), None) {
            Err(SnapshotDecodeError::Corrupt { section: "nodes", detail }) => {
                assert!(detail.contains("not a key"), "{detail}")
            }
            other => panic!("expected a corrupt nodes section, got {other:?}"),
        }
    }

    #[test]
    fn a_short_or_long_section_is_corrupt_content() {
        let recs = records(&encode_snapshot(&sample_snapshot(), 7));
        let mut short = recs.clone();
        short[0].1.pop();
        let mut long = recs.clone();
        long[2].1.push(0);
        for (bytes, section) in [(reframe(&short), "fingerprint"), (reframe(&long), "stats")] {
            assert!(matches!(
                decode_snapshot(&bytes, None),
                Err(SnapshotDecodeError::Corrupt { section: s, .. }) if s == section
            ));
        }
    }

    #[test]
    fn error_messages_name_the_problem() {
        let msgs = [
            SnapshotDecodeError::Frame(FrameError::UnsupportedVersion { found: 2 }).to_string(),
            SnapshotDecodeError::FingerprintMismatch { expected: 1, found: 2 }.to_string(),
            SnapshotDecodeError::Corrupt { section: "nodes", detail: "bad".into() }.to_string(),
        ];
        assert!(msgs[0].contains("fastsim-snapshot/v3") && msgs[0].contains("version 2"));
        assert!(msgs[1].contains("0x0000000000000001"));
        assert!(msgs[2].contains("nodes"));
    }
}
