//! `fastsim-journal/v1` — the append-only write-ahead job journal.
//!
//! With [`crate::server::ServeConfig::journal_dir`] set, every accepted
//! submission is appended (and fsynced) here *before* the server
//! acknowledges it, and every settlement is appended before the result is
//! delivered. A killed-and-restarted server replays the journal at boot:
//! unfinished jobs re-enter the queue with their original ids, clients,
//! and priority bands — in original admission order, so the band/lane
//! schedule reproduces — while settled jobs are never run twice.
//!
//! ## On-disk format
//!
//! A journal is a directory of segment files `journal-NNNNNNNN.seg`
//! (zero-padded decimal index, strictly increasing). Each segment is
//! framed by the workspace's shared record framing,
//! [`fastsim_hash::frame`], under [`JOURNAL`]: a header (magic
//! `FSIMJRNL`, version 1), then records until end of file,
//!
//! ```text
//! kind      u8       1 submit · 2 start · 3 complete · 4 abandon
//! len       u32 LE   payload length (≤ 1 MiB)
//! payload   len bytes
//! checksum  u64 LE   FNV-1a over kind ‖ len ‖ payload
//! ```
//!
//! Integers are little-endian; strings are `u32 LE` length + UTF-8 bytes.
//! The `submit` payload carries everything needed to rebuild the job
//! deterministically: id, target instructions, effective timeout
//! (`u64::MAX` = none), band, chaos budget, display name, kernel
//! selector (a full kernel name, re-expanded through the workload
//! manifest), client, and the resolved hierarchy preset, if any.
//! `start`/`complete` carry the job id; `abandon` adds the reason string.
//!
//! ## Rotation and compaction
//!
//! Appends go to the newest segment; past [`SEGMENT_MAX_BYTES`] a fresh
//! segment is started (rotation — old segments stay until compacted).
//! After [`COMPACT_EVERY`] settlements, compaction rewrites the still
//! *unsettled* submits into a fresh segment via tmp file + atomic rename,
//! then deletes every older segment — the journal's size is bounded by
//! the live queue, not by history. Recovery itself compacts: opening a
//! journal rewrites the recovered pending set into a fresh segment before
//! serving, so a crash loop cannot accrete segments.
//!
//! ## Recovery semantics: reject, don't guess
//!
//! Bad magic, an unknown version, a mid-file checksum mismatch, an
//! oversized length, or malformed payload content each fail recovery with
//! a typed [`JournalError`] — a damaged journal is *rejected*, never
//! replayed as a guessed job. The single tolerated damage is a **torn
//! tail**: a record in the newest segment that runs past the physical end
//! of file (or mismatches its checksum exactly at end of file), which is
//! what a crash mid-append leaves behind. Such a record was never
//! acknowledged — the fsync had not returned — so dropping it loses
//! nothing a client was promised. Everything before it is kept; nothing
//! after it can exist.
//!
//! The writer refuses a record over [`MAX_RECORD`] in every build, so the
//! journal never holds a record its own reader would reject.

use fastsim_hash::fnv1a;
use fastsim_hash::frame::{Format, FrameError, PutLe, Reader, TailPolicy, HEADER_LEN};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Hard cap on one record's payload, the protocol's 1 MiB line cap.
pub const MAX_RECORD: usize = 1 << 20;

/// The `fastsim-journal/v1` framing: magic `FSIMJRNL`, version 1, records
/// up to [`MAX_RECORD`], FNV-1a checksums.
pub const JOURNAL: Format =
    Format { magic: *b"FSIMJRNL", version: 1, max_payload: MAX_RECORD as u32, checksum: fnv1a };

/// Rotate to a fresh segment once the current one exceeds this.
pub const SEGMENT_MAX_BYTES: u64 = 4 << 20;

/// Compact (rewrite live submits, drop history) after this many
/// settlements.
pub const COMPACT_EVERY: u64 = 64;

const KIND_SUBMIT: u8 = 1;
const KIND_START: u8 = 2;
const KIND_COMPLETE: u8 = 3;
const KIND_ABANDON: u8 = 4;

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One journaled submission: everything needed to rebuild and re-queue
/// the job bit-identically after a restart.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitRecord {
    /// The server-assigned job id (preserved across recovery).
    pub id: u64,
    /// Display name, e.g. `"129.compress#1"` for a replica.
    pub name: String,
    /// Kernel selector re-expandable through the workload manifest — the
    /// full kernel name without replica suffix, e.g. `"129.compress"`.
    pub kernel: String,
    /// Target dynamic instructions.
    pub insts: u64,
    /// Submitting client (per-client lane fairness key).
    pub client: String,
    /// Priority band.
    pub band: u32,
    /// Resolved memory-hierarchy preset name, if not the default.
    pub hierarchy: Option<String>,
    /// Effective per-job timeout in milliseconds (`None`: run to
    /// completion). The value journaled is the *effective* one — the
    /// server default already applied — so replays don't depend on the
    /// restarted server's configuration.
    pub timeout_ms: Option<u64>,
    /// Requested fault-injection panics (preserved so chaos tests replay
    /// faithfully).
    pub chaos_panics: u32,
}

/// One journal record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// A job was admitted (always the first record of its id).
    Submit(SubmitRecord),
    /// A worker claimed the job (informational; a crash after `start`
    /// without a settlement replays the job).
    Start {
        /// The claimed job id.
        id: u64,
    },
    /// The job finished successfully; it must never run again.
    Complete {
        /// The settled job id.
        id: u64,
    },
    /// The job settled without a result (failure, timeout, quarantine);
    /// it must never run again.
    Abandon {
        /// The settled job id.
        id: u64,
        /// Why it was abandoned.
        reason: String,
    },
}

impl JournalRecord {
    /// The settled/affected job id.
    pub fn id(&self) -> u64 {
        match self {
            JournalRecord::Submit(s) => s.id,
            JournalRecord::Start { id }
            | JournalRecord::Complete { id }
            | JournalRecord::Abandon { id, .. } => *id,
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a journal (or one segment) failed to decode, or a record was
/// refused. Every rejection is typed and names where it happened; the
/// decoder never guesses past damage.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// The segment's framing is damaged (and not an allowed torn tail), or
    /// a record to append is over [`MAX_RECORD`].
    Frame(FrameError),
    /// A record framed and checksummed correctly but its content is
    /// invalid (unknown kind, short or over-long payload, bad UTF-8,
    /// conflicting duplicate).
    Corrupt {
        /// Byte offset of the offending record (0 for journal-level
        /// conflicts).
        offset: usize,
        /// What was wrong.
        detail: String,
    },
    /// The filesystem failed underneath the journal.
    Io(String),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Frame(e) => write!(f, "fastsim-journal/v1 framing: {e}"),
            JournalError::Corrupt { offset, detail } => {
                write!(f, "corrupt record at offset {offset}: {detail}")
            }
            JournalError::Io(msg) => write!(f, "journal I/O error: {msg}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<FrameError> for JournalError {
    fn from(e: FrameError) -> JournalError {
        JournalError::Frame(e)
    }
}

fn io_err(e: std::io::Error) -> JournalError {
    JournalError::Io(e.to_string())
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Appends one record's framed bytes to `out`.
fn put_record(out: &mut Vec<u8>, rec: &JournalRecord) -> Result<(), FrameError> {
    let mut p = Vec::new();
    let kind = match rec {
        JournalRecord::Submit(s) => {
            p.put_u64(s.id);
            p.put_u64(s.insts);
            p.put_u64(s.timeout_ms.unwrap_or(u64::MAX));
            p.put_u32(s.band);
            p.put_u32(s.chaos_panics);
            p.put_str(&s.name);
            p.put_str(&s.kernel);
            p.put_str(&s.client);
            match &s.hierarchy {
                None => p.push(0),
                Some(h) => {
                    p.push(1);
                    p.put_str(h);
                }
            }
            KIND_SUBMIT
        }
        JournalRecord::Start { id } => {
            p.put_u64(*id);
            KIND_START
        }
        JournalRecord::Complete { id } => {
            p.put_u64(*id);
            KIND_COMPLETE
        }
        JournalRecord::Abandon { id, reason } => {
            p.put_u64(*id);
            p.put_str(reason);
            KIND_ABANDON
        }
    };
    JOURNAL.put_record(out, kind, &p)
}

/// Encodes one record as its on-disk bytes (framing and checksum
/// included). Public so the corruption fuzzer can build synthetic
/// journals byte-exactly.
///
/// # Panics
///
/// If the record's payload exceeds [`MAX_RECORD`];
/// [`Journal::append_all`] refuses such a record with an error instead.
pub fn encode_record(rec: &JournalRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_record(&mut out, rec).expect("a journal record within the cap");
    out
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// What decoding one segment produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentDecode {
    /// The decoded records, in append order.
    pub records: Vec<JournalRecord>,
    /// A torn tail record was dropped (only under [`TailPolicy::DropTorn`]).
    pub torn_tail: bool,
}

/// Decodes one record's payload; an error is the detail of a
/// [`JournalError::Corrupt`].
fn decode_payload(kind: u8, payload: &[u8]) -> Result<JournalRecord, String> {
    let mut r = Reader::new(payload);
    let record = match kind {
        KIND_SUBMIT => {
            // Fields in wire order; a struct literal evaluates in the
            // order it is written.
            let s = SubmitRecord {
                id: r.u64()?,
                insts: r.u64()?,
                timeout_ms: Some(r.u64()?).filter(|&t| t != u64::MAX),
                band: r.u32()?,
                chaos_panics: r.u32()?,
                name: r.str()?,
                kernel: r.str()?,
                client: r.str()?,
                hierarchy: match r.u8()? {
                    0 => None,
                    1 => Some(r.str()?),
                    other => return Err(format!("submit hierarchy flag {other} is not 0 or 1")),
                },
            };
            if s.insts == 0 {
                return Err("submit insts is zero".to_string());
            }
            JournalRecord::Submit(s)
        }
        KIND_START => JournalRecord::Start { id: r.u64()? },
        KIND_COMPLETE => JournalRecord::Complete { id: r.u64()? },
        KIND_ABANDON => JournalRecord::Abandon { id: r.u64()?, reason: r.str()? },
        other => return Err(format!("unknown record kind {other}")),
    };
    r.finish()?;
    Ok(record)
}

/// Strict-decodes one segment's bytes. See [`TailPolicy`] for the single
/// tolerated damage shape.
///
/// # Errors
///
/// Every form of damage except an allowed torn tail, as a typed
/// [`JournalError`].
pub fn decode_segment(bytes: &[u8], tail: TailPolicy) -> Result<SegmentDecode, JournalError> {
    let frames = JOURNAL.read(bytes, tail)?;
    let records = frames
        .records
        .iter()
        .map(|rec| {
            decode_payload(rec.kind, rec.payload)
                .map_err(|detail| JournalError::Corrupt { offset: rec.offset, detail })
        })
        .collect::<Result<_, _>>()?;
    Ok(SegmentDecode { records, torn_tail: frames.torn_tail })
}

// ---------------------------------------------------------------------------
// The journal store
// ---------------------------------------------------------------------------

/// What recovery found when opening a journal directory.
#[derive(Clone, Debug, Default)]
pub struct Recovery {
    /// Unsettled submissions in original admission (id) order — the jobs
    /// a restarted server must re-queue.
    pub pending: Vec<SubmitRecord>,
    /// The next job id to assign (one past the highest id ever journaled,
    /// at least 1) — settled ids are never reused.
    pub next_id: u64,
    /// Segment files scanned.
    pub segments: usize,
    /// Records decoded across all segments.
    pub records: u64,
    /// A torn tail record was dropped from the newest segment.
    pub torn_tail: bool,
}

/// What one append did beyond writing the record (the caller's metrics
/// hooks).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Appended {
    /// The append rotated to a fresh segment first.
    pub rotated: bool,
    /// The append triggered a compaction.
    pub compacted: bool,
}

/// An open journal: the current segment's append handle plus the live
/// (unsettled) submit set that compaction rewrites. One instance per
/// server, behind the server's journal lock.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    file: File,
    seg_index: u64,
    seg_bytes: u64,
    /// Unsettled submissions by id (BTreeMap: compaction and recovery
    /// both need original admission order, which is id order).
    pending: BTreeMap<u64, SubmitRecord>,
    settled_since_compact: u64,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("journal-{index:08}.seg"))
}

/// Lists the segment files in `dir`, sorted by index.
fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, JournalError> {
    let mut segments = Vec::new();
    for entry in fs::read_dir(dir).map_err(io_err)? {
        let entry = entry.map_err(io_err)?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(digits) = name.strip_prefix("journal-").and_then(|n| n.strip_suffix(".seg")) {
            if let Ok(index) = digits.parse::<u64>() {
                segments.push((index, entry.path()));
            }
        } else if name.ends_with(".tmp") {
            // A compaction that crashed before its rename; never renamed,
            // so never part of the journal.
            let _ = fs::remove_file(entry.path());
        }
    }
    segments.sort_unstable();
    Ok(segments)
}

fn create_segment(dir: &Path, index: u64) -> Result<File, JournalError> {
    let mut file = OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(segment_path(dir, index))
        .map_err(io_err)?;
    file.write_all(&JOURNAL.header()).map_err(io_err)?;
    file.sync_data().map_err(io_err)?;
    Ok(file)
}

/// Fsyncs the directory so created/renamed/removed segment files survive
/// a power loss (best-effort on filesystems without directory sync).
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

impl Journal {
    /// Opens (and recovers) the journal in `dir`, creating the directory
    /// if needed. Scans every segment — older ones under
    /// [`TailPolicy::Strict`], the newest under [`TailPolicy::DropTorn`] —
    /// replays the records into the pending set, then compacts: the
    /// pending submits are rewritten into a fresh segment and all scanned
    /// segments are deleted, so the returned journal starts from a clean,
    /// bounded state whatever the crash that preceded it.
    ///
    /// # Errors
    ///
    /// Any damage except a torn tail in the newest segment, as a typed
    /// [`JournalError`] — the caller must refuse to serve jobs it cannot
    /// trust rather than guess.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(Journal, Recovery), JournalError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(io_err)?;
        let segments = list_segments(&dir)?;

        let mut recovery = Recovery { next_id: 1, ..Recovery::default() };
        let mut pending: BTreeMap<u64, SubmitRecord> = BTreeMap::new();
        let last = segments.len().checked_sub(1);
        for (i, (index, path)) in segments.iter().enumerate() {
            let bytes = fs::read(path).map_err(io_err)?;
            let policy =
                if Some(i) == last { TailPolicy::DropTorn } else { TailPolicy::Strict };
            let decoded = decode_segment(&bytes, policy)?;
            recovery.torn_tail |= decoded.torn_tail;
            recovery.segments += 1;
            for record in decoded.records {
                recovery.records += 1;
                recovery.next_id = recovery.next_id.max(record.id() + 1);
                match record {
                    JournalRecord::Submit(s) => {
                        // A compaction that crashed between rename and
                        // delete leaves the same submit in two segments;
                        // identical copies are fine, divergent ones are
                        // corruption.
                        if let Some(prev) = pending.get(&s.id) {
                            if *prev != s {
                                return Err(JournalError::Corrupt {
                                    offset: 0,
                                    detail: format!(
                                        "conflicting submit records for job {} (segment {index})",
                                        s.id
                                    ),
                                });
                            }
                        }
                        pending.insert(s.id, s);
                    }
                    JournalRecord::Start { .. } => {}
                    JournalRecord::Complete { id } | JournalRecord::Abandon { id, .. } => {
                        // Unknown ids are settle records whose submit was
                        // already compacted away — removing work is always
                        // safe; inventing it never happens.
                        pending.remove(&id);
                    }
                }
            }
        }
        recovery.pending = pending.values().cloned().collect();

        // Boot compaction: rewrite the live set into a fresh segment and
        // drop history (including any torn tail) atomically.
        let next_index = segments.last().map(|(i, _)| i + 1).unwrap_or(1);
        let file = write_compacted(&dir, next_index, pending.values())?;
        for (_, path) in &segments {
            fs::remove_file(path).map_err(io_err)?;
        }
        sync_dir(&dir);
        let seg_bytes = file.metadata().map_err(io_err)?.len();
        let journal = Journal {
            dir,
            file,
            seg_index: next_index,
            seg_bytes,
            pending,
            settled_since_compact: 0,
        };
        Ok((journal, recovery))
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Unsettled submissions currently journaled.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// The current (newest) segment index.
    pub fn segment_index(&self) -> u64 {
        self.seg_index
    }

    /// Appends records and fsyncs once — the durability point. Callers
    /// append `Submit` *before* acknowledging the submission and
    /// `Complete`/`Abandon` *before* delivering the settlement, so every
    /// acknowledged state change survives a kill.
    ///
    /// # Errors
    ///
    /// A record over [`MAX_RECORD`] as [`JournalError::Frame`], in which
    /// case nothing of the batch is written; filesystem failures as
    /// [`JournalError::Io`]. The journal stays usable; the caller decides
    /// whether to keep serving without durability.
    pub fn append_all(&mut self, records: &[JournalRecord]) -> Result<Appended, JournalError> {
        let mut outcome = Appended::default();
        if records.is_empty() {
            return Ok(outcome);
        }
        let mut bytes = Vec::new();
        for record in records {
            put_record(&mut bytes, record)?;
        }
        if self.seg_bytes > SEGMENT_MAX_BYTES {
            self.rotate()?;
            outcome.rotated = true;
        }
        self.file.write_all(&bytes).map_err(io_err)?;
        self.file.sync_data().map_err(io_err)?;
        self.seg_bytes += bytes.len() as u64;
        for record in records {
            match record {
                JournalRecord::Submit(s) => {
                    self.pending.insert(s.id, s.clone());
                }
                JournalRecord::Start { .. } => {}
                JournalRecord::Complete { id } | JournalRecord::Abandon { id, .. } => {
                    if self.pending.remove(id).is_some() {
                        self.settled_since_compact += 1;
                    }
                }
            }
        }
        if self.settled_since_compact >= COMPACT_EVERY {
            self.compact()?;
            outcome.compacted = true;
        }
        Ok(outcome)
    }

    /// Appends one record (see [`Journal::append_all`]).
    ///
    /// # Errors
    ///
    /// As [`Journal::append_all`].
    pub fn append(&mut self, record: &JournalRecord) -> Result<Appended, JournalError> {
        self.append_all(std::slice::from_ref(record))
    }

    /// Starts a fresh segment; history stays until the next compaction.
    fn rotate(&mut self) -> Result<(), JournalError> {
        let next = self.seg_index + 1;
        self.file = create_segment(&self.dir, next)?;
        sync_dir(&self.dir);
        self.seg_index = next;
        self.seg_bytes = HEADER_LEN as u64;
        Ok(())
    }

    /// Rewrites the live submit set into a fresh segment (tmp + atomic
    /// rename), then deletes every older segment.
    fn compact(&mut self) -> Result<(), JournalError> {
        let next = self.seg_index + 1;
        let file = write_compacted(&self.dir, next, self.pending.values())?;
        for index in (0..=self.seg_index).rev() {
            let path = segment_path(&self.dir, index);
            if path.exists() {
                fs::remove_file(&path).map_err(io_err)?;
            } else {
                break; // older ones were removed by earlier compactions
            }
        }
        sync_dir(&self.dir);
        self.seg_bytes = file.metadata().map_err(io_err)?.len();
        self.file = file;
        self.seg_index = next;
        self.settled_since_compact = 0;
        Ok(())
    }
}

/// Writes header + the given submits to `journal-<index>.seg.tmp`, fsyncs,
/// atomically renames to the real name, and returns the file reopened for
/// appending.
fn write_compacted<'a>(
    dir: &Path,
    index: u64,
    pending: impl Iterator<Item = &'a SubmitRecord>,
) -> Result<File, JournalError> {
    let final_path = segment_path(dir, index);
    let tmp_path = dir.join(format!("journal-{index:08}.seg.tmp"));
    let mut bytes = JOURNAL.header().to_vec();
    for submit in pending {
        put_record(&mut bytes, &JournalRecord::Submit(submit.clone()))?;
    }
    let mut tmp = File::create(&tmp_path).map_err(io_err)?;
    tmp.write_all(&bytes).map_err(io_err)?;
    tmp.sync_data().map_err(io_err)?;
    drop(tmp);
    fs::rename(&tmp_path, &final_path).map_err(io_err)?;
    sync_dir(dir);
    OpenOptions::new().append(true).open(&final_path).map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn submit(id: u64) -> SubmitRecord {
        SubmitRecord {
            id,
            name: format!("129.compress#{id}"),
            kernel: "129.compress".to_string(),
            insts: 20_000,
            client: "tester".to_string(),
            band: 2,
            hierarchy: id.is_multiple_of(2).then(|| "three-level".to_string()),
            timeout_ms: id.is_multiple_of(3).then_some(5_000),
            chaos_panics: 0,
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fastsim-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn records_round_trip_through_a_segment() {
        let records = vec![
            JournalRecord::Submit(submit(1)),
            JournalRecord::Submit(submit(2)),
            JournalRecord::Start { id: 1 },
            JournalRecord::Complete { id: 1 },
            JournalRecord::Abandon { id: 2, reason: "timeout after 5000 ms".to_string() },
        ];
        let mut bytes = JOURNAL.header().to_vec();
        for r in &records {
            bytes.extend_from_slice(&encode_record(r));
        }
        let decoded = decode_segment(&bytes, TailPolicy::Strict).expect("clean segment");
        assert_eq!(decoded.records, records);
        assert!(!decoded.torn_tail);
    }

    #[test]
    fn journal_open_append_reopen_recovers_unsettled_in_order() {
        let dir = tmpdir("roundtrip");
        let (mut journal, recovery) = Journal::open(&dir).expect("fresh journal");
        assert!(recovery.pending.is_empty());
        assert_eq!(recovery.next_id, 1);

        journal
            .append_all(&[
                JournalRecord::Submit(submit(1)),
                JournalRecord::Submit(submit(2)),
                JournalRecord::Submit(submit(3)),
            ])
            .expect("append submits");
        journal.append(&JournalRecord::Start { id: 1 }).expect("start");
        journal.append(&JournalRecord::Complete { id: 1 }).expect("complete");
        journal
            .append(&JournalRecord::Abandon { id: 3, reason: "failed".to_string() })
            .expect("abandon");
        assert_eq!(journal.pending_len(), 1);
        drop(journal);

        let (journal, recovery) = Journal::open(&dir).expect("reopen");
        assert_eq!(recovery.pending, vec![submit(2)], "only the unsettled job replays");
        assert_eq!(recovery.next_id, 4, "settled ids are never reused");
        assert!(!recovery.torn_tail);
        assert_eq!(journal.pending_len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_bounds_the_directory_to_one_segment() {
        let dir = tmpdir("compact");
        let (mut journal, _) = Journal::open(&dir).expect("fresh journal");
        let mut compactions = 0;
        for id in 1..=(COMPACT_EVERY + 5) {
            journal.append(&JournalRecord::Submit(submit(id))).expect("submit");
            let outcome = journal.append(&JournalRecord::Complete { id }).expect("complete");
            if outcome.compacted {
                compactions += 1;
            }
        }
        assert_eq!(compactions, 1, "one compaction after {COMPACT_EVERY} settlements");
        let segments = list_segments(&dir).expect("list");
        assert_eq!(segments.len(), 1, "history is dropped, not accreted");
        // And replaying the survivor reproduces the in-memory pending set
        // (empty here: every job settled).
        let bytes = fs::read(&segments[0].1).expect("read");
        let decoded = decode_segment(&bytes, TailPolicy::Strict).expect("clean");
        let mut live = std::collections::BTreeSet::new();
        for record in &decoded.records {
            match record {
                JournalRecord::Submit(s) => {
                    live.insert(s.id);
                }
                JournalRecord::Complete { id } | JournalRecord::Abandon { id, .. } => {
                    live.remove(id);
                }
                JournalRecord::Start { .. } => {}
            }
        }
        assert_eq!(journal.pending_len(), live.len());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_chains_segments_and_recovery_reads_across_them() {
        let dir = tmpdir("rotate");
        let (mut journal, _) = Journal::open(&dir).expect("fresh journal");
        // Force rotation cheaply by pretending the segment is huge.
        journal.seg_bytes = SEGMENT_MAX_BYTES + 1;
        let outcome = journal.append(&JournalRecord::Submit(submit(1))).expect("submit");
        assert!(outcome.rotated);
        journal.append(&JournalRecord::Submit(submit(2))).expect("submit");
        assert!(list_segments(&dir).expect("list").len() >= 2, "rotation keeps history");
        drop(journal);

        let (_journal, recovery) = Journal::open(&dir).expect("reopen");
        assert_eq!(recovery.pending, vec![submit(1), submit(2)]);
        assert_eq!(list_segments(&dir).expect("list").len(), 1, "boot compaction re-bounds");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_after_torn_tail_drops_only_the_unacknowledged_record() {
        let dir = tmpdir("torn");
        let (mut journal, _) = Journal::open(&dir).expect("fresh journal");
        journal.append(&JournalRecord::Submit(submit(1))).expect("submit");
        journal.append(&JournalRecord::Submit(submit(2))).expect("submit");
        let seg = segment_path(&dir, journal.segment_index());
        drop(journal);
        // Simulate a crash mid-append: truncate inside the last record.
        let bytes = fs::read(&seg).expect("read");
        fs::write(&seg, &bytes[..bytes.len() - 5]).expect("tear");

        let (_journal, recovery) = Journal::open(&dir).expect("torn tail recovers");
        assert_eq!(recovery.pending, vec![submit(1)]);
        assert!(recovery.torn_tail);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_rejects_mid_file_damage_with_a_typed_error() {
        let dir = tmpdir("strictdamage");
        let (mut journal, _) = Journal::open(&dir).expect("fresh journal");
        journal.append(&JournalRecord::Submit(submit(1))).expect("submit");
        journal.append(&JournalRecord::Submit(submit(2))).expect("submit");
        let seg = segment_path(&dir, journal.segment_index());
        drop(journal);
        let mut bytes = fs::read(&seg).expect("read");
        bytes[HEADER_LEN + 20] ^= 0x08; // inside the first record
        fs::write(&seg, &bytes).expect("damage");

        match Journal::open(&dir) {
            Err(JournalError::Frame(FrameError::ChecksumMismatch { offset: HEADER_LEN })) => {}
            other => panic!("mid-file damage must reject, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crashed_compaction_leftovers_are_tolerated() {
        let dir = tmpdir("compactcrash");
        let (mut journal, _) = Journal::open(&dir).expect("fresh journal");
        journal.append(&JournalRecord::Submit(submit(7))).expect("submit");
        let current = journal.segment_index();
        drop(journal);
        // A compaction that crashed between rename and delete: the same
        // submit exists in the old segment and a newer compacted one.
        let mut dup = JOURNAL.header().to_vec();
        dup.extend_from_slice(&encode_record(&JournalRecord::Submit(submit(7))));
        fs::write(segment_path(&dir, current + 1), &dup).expect("duplicate segment");
        // Plus an orphaned tmp file from the same crash.
        fs::write(dir.join("journal-00000099.seg.tmp"), b"garbage").expect("tmp");

        let (_journal, recovery) = Journal::open(&dir).expect("idempotent recovery");
        assert_eq!(recovery.pending, vec![submit(7)], "identical duplicates collapse");
        assert!(!dir.join("journal-00000099.seg.tmp").exists(), "tmp files are swept");

        // Divergent duplicates, by contrast, are corruption.
        let mut diverged = submit(7);
        diverged.insts += 1;
        let mut seg = JOURNAL.header().to_vec();
        seg.extend_from_slice(&encode_record(&JournalRecord::Submit(diverged)));
        let newest = list_segments(&dir).expect("list").last().expect("one segment").0;
        fs::write(segment_path(&dir, newest + 1), &seg).expect("divergent segment");
        match Journal::open(&dir) {
            Err(JournalError::Corrupt { detail, .. }) => {
                assert!(detail.contains("conflicting submit"), "got: {detail}")
            }
            other => panic!("divergent duplicate must reject, got {other:?}"),
        }
        fs::remove_dir_all(&dir).ok();
    }
}
