//! The workspace's one record framing, under both durable formats: the
//! warm-cache snapshot (`fastsim-snapshot/v3`) and the job journal
//! (`fastsim-journal/v1`).
//!
//! ```text
//! header   magic (8) | version u32
//! record   kind u8 | len u32 | payload[len] | checksum u64
//! ```
//!
//! All integers are little-endian, and the checksum covers
//! kind ‖ len ‖ payload. A [`Format`] fixes the magic, the version, the
//! payload cap and the checksum function; the codecs above give the
//! record kinds and payloads their meaning.
//!
//! Reading is strict, reject-don't-guess: a wrong magic or version, a
//! length over the cap, a checksum mismatch or a short record is a typed
//! [`FrameError`]. The one tolerated damage is a torn tail under
//! [`TailPolicy::DropTorn`]: what a crash part-way through an append
//! leaves at the end of the data.

use std::fmt;

/// Length of the header: magic (8) and version (4).
pub const HEADER_LEN: usize = 12;

/// Framing bytes around each payload: kind (1), len (4), checksum (8).
pub const RECORD_OVERHEAD: usize = 13;

/// One framed format: a constant, never a runtime setting.
#[derive(Clone, Copy, Debug)]
pub struct Format {
    /// The 8 bytes every file of the format starts with.
    pub magic: [u8; 8],
    /// The only version this build writes and reads.
    pub version: u32,
    /// The largest payload a record may hold; the writer refuses a larger
    /// one and the reader rejects a larger length.
    pub max_payload: u32,
    /// The record checksum over kind ‖ len ‖ payload.
    pub checksum: fn(&[u8]) -> u64,
}

/// Why framed bytes were rejected, or a record refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The data does not start with the format's magic.
    BadMagic,
    /// The header carries a version this build does not read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
    },
    /// The data ends inside the header or a record.
    Truncated {
        /// Byte offset of the incomplete header (0) or record.
        offset: usize,
        /// Bytes the header or record needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A record's payload length exceeds the format's cap.
    Oversized {
        /// Byte offset of the record.
        offset: usize,
        /// The payload length.
        len: usize,
    },
    /// A record's bytes do not match its stored checksum.
    ChecksumMismatch {
        /// Byte offset of the damaged record.
        offset: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad magic: not a file of this format"),
            FrameError::UnsupportedVersion { found } => {
                write!(f, "unsupported format version {found}")
            }
            FrameError::Truncated { offset, needed, available } => write!(
                f,
                "truncated at offset {offset}: needed {needed} bytes, {available} available"
            ),
            FrameError::Oversized { offset, len } => {
                write!(f, "record at offset {offset}: a {len}-byte payload exceeds the cap")
            }
            FrameError::ChecksumMismatch { offset } => {
                write!(f, "checksum mismatch in record at offset {offset}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// How a read treats damage at the physical end of the data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailPolicy {
    /// Every damaged byte is an error.
    Strict,
    /// A header or final record that runs past the end of the data, or a
    /// final record that mismatches its checksum exactly at the end, is
    /// dropped as a torn append (reported, not errored). Damage anywhere
    /// before the tail still rejects, and so does a length over the cap: a
    /// torn append keeps the length bytes it wrote.
    DropTorn,
}

/// One checksum-verified record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record<'a> {
    /// Byte offset of the record in the data.
    pub offset: usize,
    /// The record kind, meaningful to the codec.
    pub kind: u8,
    /// The payload.
    pub payload: &'a [u8],
}

/// What a read found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frames<'a> {
    /// The records, in order.
    pub records: Vec<Record<'a>>,
    /// A torn tail was dropped (only under [`TailPolicy::DropTorn`]).
    pub torn_tail: bool,
}

impl Format {
    /// The header: magic, then version.
    pub fn header(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[..8].copy_from_slice(&self.magic);
        h[8..].copy_from_slice(&self.version.to_le_bytes());
        h
    }

    /// Appends one record to `out`.
    ///
    /// # Errors
    ///
    /// [`FrameError::Oversized`] for a payload over
    /// [`Format::max_payload`], in every build; `out` is left unchanged.
    pub fn put_record(
        &self,
        out: &mut Vec<u8>,
        kind: u8,
        payload: &[u8],
    ) -> Result<(), FrameError> {
        let offset = out.len();
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|&len| len <= self.max_payload)
            .ok_or(FrameError::Oversized { offset, len: payload.len() })?;
        out.push(kind);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(payload);
        let sum = (self.checksum)(&out[offset..]);
        out.extend_from_slice(&sum.to_le_bytes());
        Ok(())
    }

    /// Reads the header and every record of `bytes`, verifying each
    /// checksum.
    ///
    /// # Errors
    ///
    /// Every form of damage except a torn tail that `tail` allows to drop.
    pub fn read<'a>(&self, bytes: &'a [u8], tail: TailPolicy) -> Result<Frames<'a>, FrameError> {
        let drop_torn = tail == TailPolicy::DropTorn;
        let torn = |records| Ok(Frames { records, torn_tail: true });
        if bytes.len() < HEADER_LEN {
            // A crash can tear the header write of a new file; the prefix
            // must still match a real header to pass as torn rather than
            // as foreign data.
            if drop_torn && self.header().starts_with(bytes) {
                return torn(Vec::new());
            }
            if !self.magic.starts_with(&bytes[..bytes.len().min(8)]) {
                return Err(FrameError::BadMagic);
            }
            let available = bytes.len();
            return Err(FrameError::Truncated { offset: 0, needed: HEADER_LEN, available });
        }
        if bytes[..8] != self.magic {
            return Err(FrameError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != self.version {
            return Err(FrameError::UnsupportedVersion { found: version });
        }

        let mut records = Vec::new();
        let mut offset = HEADER_LEN;
        while offset < bytes.len() {
            let available = bytes.len() - offset;
            if available < 5 {
                if drop_torn {
                    return torn(records);
                }
                return Err(FrameError::Truncated { offset, needed: 5, available });
            }
            let kind = bytes[offset];
            let len_bytes = bytes[offset + 1..offset + 5].try_into().expect("4 bytes");
            let len = u32::from_le_bytes(len_bytes);
            if len > self.max_payload {
                return Err(FrameError::Oversized { offset, len: len as usize });
            }
            // In u64, so that a length near u32::MAX cannot overflow a
            // 32-bit usize.
            let needed = u64::from(len) + RECORD_OVERHEAD as u64;
            if (available as u64) < needed {
                if drop_torn {
                    return torn(records);
                }
                let needed = needed as usize;
                return Err(FrameError::Truncated { offset, needed, available });
            }
            let end = offset + 5 + len as usize;
            let stored = u64::from_le_bytes(bytes[end..end + 8].try_into().expect("8 bytes"));
            if (self.checksum)(&bytes[offset..end]) != stored {
                // At exactly the end of the data this is the torn-append
                // signature; anywhere else it is damage to history.
                if drop_torn && end + 8 == bytes.len() {
                    return torn(records);
                }
                return Err(FrameError::ChecksumMismatch { offset });
            }
            records.push(Record { offset, kind, payload: &bytes[offset + 5..end] });
            offset = end + 8;
        }
        Ok(Frames { records, torn_tail: false })
    }
}

/// Little-endian field writers for record payloads.
pub trait PutLe {
    /// Appends a `u32`.
    fn put_u32(&mut self, v: u32);
    /// Appends a `u64`.
    fn put_u64(&mut self, v: u64);
    /// Appends a string as its `u32` byte length and its UTF-8 bytes.
    fn put_str(&mut self, s: &str);
}

// The codecs write every field through these and read it through the
// reader below, across a crate boundary: without `#[inline]` each field
// costs a call. The reader's methods are `#[inline(always)]`: when LLVM
// left one out of line, the reader's address escaped into the call, so a
// decode loop kept it in memory and stored its position back after every
// field. Over `warm_replay`'s snapshots that made the nodes section 8 %
// slower to decode than a codec-local reader; fully inlined it is 7 %
// faster.
impl PutLe for Vec<u8> {
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_str(&mut self, s: &str) {
        // A string too long for the cast makes a payload over every cap,
        // which `Format::put_record` refuses.
        self.put_u32(s.len() as u32);
        self.extend_from_slice(s.as_bytes());
    }
}

/// A strict little-endian reader over one payload. Its errors are the
/// detail of a codec's corrupt-content error: the framing already held, so
/// a short or over-long payload is damage to the content.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `payload`.
    #[inline(always)]
    pub fn new(payload: &'a [u8]) -> Reader<'a> {
        Reader { buf: payload, pos: 0 }
    }

    /// The next `n` bytes, or an error if fewer remain.
    #[inline(always)]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], String> {
        let available = self.buf.len() - self.pos;
        if available < n {
            return Err(short(n, available));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next byte, or an error if none remains.
    #[inline(always)]
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.bytes(1)?[0])
    }

    /// The next `u32`, or an error if fewer than 4 bytes remain.
    #[inline(always)]
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    /// The next `u64`, or an error if fewer than 8 bytes remain.
    #[inline(always)]
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }

    /// The next string, as [`PutLe::put_str`] wrote it, or an error if
    /// the bytes run short or are not UTF-8.
    pub fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| "a string is not UTF-8".to_string())
    }

    /// An error if bytes remain after the last field read.
    #[inline(always)]
    pub fn finish(&self) -> Result<(), String> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            extra => Err(format!("{extra} unread payload bytes after the last field")),
        }
    }
}

#[cold]
#[inline(never)]
fn short(needed: usize, available: usize) -> String {
    format!("needed {needed} bytes, {available} available")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv1a;
    use FrameError::*;
    use TailPolicy::{DropTorn, Strict};

    const TEST: Format =
        Format { magic: *b"FSIMTEST", version: 7, max_payload: 64, checksum: fnv1a };

    /// A header and one record per payload, kinds counting from 0.
    fn image(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = TEST.header().to_vec();
        for (kind, payload) in payloads.iter().enumerate() {
            TEST.put_record(&mut out, kind as u8, payload).expect("under the cap");
        }
        out
    }

    #[test]
    fn records_round_trip_in_the_documented_layout() {
        let bytes = image(&[b"first", b"", b"third"]);
        assert_eq!(&bytes[..12], b"FSIMTEST\x07\0\0\0");
        // kind, len, payload, then the checksum of kind ‖ len ‖ payload.
        assert_eq!(&bytes[12..22], b"\0\x05\0\0\0first");
        assert_eq!(bytes[22..30], fnv1a(&bytes[12..22]).to_le_bytes());
        let frames = TEST.read(&bytes, Strict).expect("clean");
        assert!(!frames.torn_tail);
        let got: Vec<_> = frames.records.iter().map(|r| (r.offset, r.kind, r.payload)).collect();
        assert_eq!(got, [(12, 0, &b"first"[..]), (30, 1, &b""[..]), (43, 2, &b"third"[..])]);
        assert_eq!(TEST.read(&bytes, DropTorn), Ok(frames));
    }

    #[test]
    fn header_damage_is_typed_under_both_policies() {
        let bytes = image(&[b"x"]);
        for tail in [Strict, DropTorn] {
            let mut bad = bytes.clone();
            bad[0] ^= 0xff;
            assert_eq!(TEST.read(&bad, tail), Err(BadMagic));
            let mut bad = bytes.clone();
            bad[8] = 99;
            assert_eq!(TEST.read(&bad, tail), Err(UnsupportedVersion { found: 99 }));
        }
    }

    #[test]
    fn a_torn_header_is_dropped_only_under_drop_torn() {
        let header = TEST.header();
        for cut in 0..HEADER_LEN {
            let torn = &header[..cut];
            let truncated = Truncated { offset: 0, needed: HEADER_LEN, available: cut };
            assert_eq!(TEST.read(torn, Strict), Err(truncated));
            let frames = TEST.read(torn, DropTorn).expect("a torn header drops");
            assert!(frames.torn_tail && frames.records.is_empty(), "cut at {cut}");
        }
        // A short prefix that is not a header's is foreign data, not torn.
        assert_eq!(TEST.read(b"FSIMX", DropTorn), Err(BadMagic));
        let mut other = header;
        other[8] ^= 1;
        let truncated = Truncated { offset: 0, needed: HEADER_LEN, available: 10 };
        assert_eq!(TEST.read(&other[..10], DropTorn), Err(truncated));
    }

    #[test]
    fn a_torn_tail_is_dropped_only_at_the_end_of_the_data() {
        let bytes = image(&[b"kept", b"torn"]);
        let last = HEADER_LEN + RECORD_OVERHEAD + 4;
        // A cut anywhere inside the last record, short of its length field
        // or after it.
        for cut in last + 1..bytes.len() {
            let torn = &bytes[..cut];
            assert!(
                matches!(TEST.read(torn, Strict), Err(Truncated { offset, .. }) if offset == last),
                "cut at {cut}"
            );
            let frames = TEST.read(torn, DropTorn).expect("a torn tail drops");
            assert!(frames.torn_tail);
            assert_eq!(frames.records.len(), 1);
        }
        // A flipped payload byte in the last record, which ends where the
        // data ends: torn under DropTorn, rejected under Strict.
        let mut tail_flip = bytes.clone();
        tail_flip[last + 6] ^= 0x40;
        assert_eq!(TEST.read(&tail_flip, Strict), Err(ChecksumMismatch { offset: last }));
        let frames = TEST.read(&tail_flip, DropTorn).expect("tail damage drops");
        assert!(frames.torn_tail);
        assert_eq!(frames.records.len(), 1);
        // The same flip in the first record is damage to history.
        let mut mid_flip = bytes.clone();
        mid_flip[HEADER_LEN + 6] ^= 0x40;
        for tail in [Strict, DropTorn] {
            assert_eq!(TEST.read(&mid_flip, tail), Err(ChecksumMismatch { offset: HEADER_LEN }));
        }
    }

    #[test]
    fn an_over_cap_length_is_rejected_under_both_policies() {
        let mut bytes = image(&[b"x"]);
        for len in [65, u32::MAX] {
            bytes[13..17].copy_from_slice(&len.to_le_bytes());
            for tail in [Strict, DropTorn] {
                let oversized = Oversized { offset: HEADER_LEN, len: len as usize };
                assert_eq!(TEST.read(&bytes, tail), Err(oversized), "{len} under {tail:?}");
            }
        }
    }

    #[test]
    fn the_writer_refuses_an_over_cap_payload() {
        let mut out = TEST.header().to_vec();
        TEST.put_record(&mut out, 1, &[0; 64]).expect("a payload at the cap fits");
        let before = out.clone();
        let refused = TEST.put_record(&mut out, 1, &[0; 65]);
        assert_eq!(refused, Err(Oversized { offset: before.len(), len: 65 }));
        assert_eq!(out, before, "a refused record writes nothing");
    }

    #[test]
    fn the_payload_reader_is_strict() {
        let mut p = vec![7u8];
        p.put_u32(0xdead_beef);
        p.put_u64(u64::MAX - 1);
        p.put_str("é\0\"\\\n");
        let mut r = Reader::new(&p);
        assert_eq!(r.u8(), Ok(7));
        assert!(r.finish().is_err(), "unread bytes remain");
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.str().as_deref(), Ok("é\0\"\\\n"));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(r.u8(), Err("needed 1 bytes, 0 available".to_string()));

        let mut short = Reader::new(&p[..3]);
        assert_eq!(short.u8(), Ok(7));
        assert_eq!(short.u32(), Err("needed 4 bytes, 2 available".to_string()));
        let mut not_utf8 = Vec::new();
        not_utf8.put_u32(1);
        not_utf8.push(0xff);
        assert!(Reader::new(&not_utf8).str().is_err());
    }
}
