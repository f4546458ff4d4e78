//! Per-connection buffering state machine for the event loop.
//!
//! One [`ConnBuf`] per client connection, owned by the I/O thread. It is
//! deliberately free of sockets and syscalls: bytes go in through
//! [`ConnBuf::ingest`] (whatever fragmentation the transport produced),
//! complete request lines come out; response bytes go in through
//! [`ConnBuf::queue`] and drain through [`ConnBuf::flush_into`] whenever
//! the socket accepts writes. That split is what makes partial-frame
//! reassembly, pipelining, oversized-line rejection, and
//! write-backpressure unit-testable without a kernel in the loop (see
//! the tests at the bottom).
//!
//! ## Frame rules
//!
//! * Requests are newline-delimited; a line may arrive in any number of
//!   fragments (slow-loris clients send one byte at a time) and one
//!   fragment may carry any number of lines (pipelining).
//! * A line longer than [`MAX_LINE`] bytes is a protocol violation: the
//!   connection is answered with one error response and closed. The
//!   buffer never grows past the limit, so a hostile client cannot balloon
//!   server memory.
//! * Responses queue in an output buffer; when the socket applies
//!   backpressure (partial write / `EWOULDBLOCK`) the remainder stays
//!   queued and the caller re-arms `EPOLLOUT`.
//! * Requests arriving while an earlier one awaits its deferred response
//!   park as typed [`Incoming`] items (whichever framing parsed them) and
//!   are handed back in order once it resolves.

use crate::protocol::Incoming;
use std::collections::VecDeque;
use std::io::{self, Write};

/// Hard cap on one request line (bytes, newline included). Generous: the
/// largest legitimate request is a `submit` with every kernel named, well
/// under 4 KiB.
pub const MAX_LINE: usize = 1 << 20;

/// Pause reading from a connection whose un-drained output exceeds this
/// (a client that submits fast but reads slowly must not buffer the
/// server out of memory). Reading resumes once the backlog flushes.
pub const OUTBUF_HIGH_WATER: usize = 4 << 20;

/// What [`ConnBuf::ingest`] produced.
#[derive(Debug, PartialEq, Eq)]
pub enum Ingest {
    /// Zero or more complete request lines (newline-stripped, in arrival
    /// order). Empty when the bytes only extended a partial line.
    Lines(Vec<String>),
    /// The current line exceeded [`MAX_LINE`]: answer with an error and
    /// close. Lines completed before the oversized one are returned so
    /// pipelined work ahead of the violation is still served.
    Oversized(Vec<String>),
}

/// One connection's buffering state. See the [module docs](self).
#[derive(Debug, Default)]
pub struct ConnBuf {
    /// Bytes received but not yet assembled into a complete line.
    inbuf: Vec<u8>,
    /// Response bytes not yet accepted by the socket.
    outbuf: VecDeque<u8>,
    /// Close the connection once `outbuf` drains.
    close_after_flush: bool,
    /// Requests parsed but deferred because an earlier request on this
    /// connection is still waiting for its (ordered) response.
    pending: VecDeque<Incoming>,
    /// `Some(close)` while a deferred response is outstanding (`close`:
    /// its request asked to close the connection after it). Later
    /// requests queue in `pending` instead of being handled, preserving
    /// FIFO responses; there is never more than one, because the
    /// connection handles nothing else until it resolves.
    awaiting: Option<bool>,
}

impl ConnBuf {
    /// A fresh buffer for a newly accepted connection.
    pub fn new() -> ConnBuf {
        ConnBuf::default()
    }

    /// Feeds received bytes in; returns every newly completed line.
    pub fn ingest(&mut self, bytes: &[u8]) -> Ingest {
        let mut lines = Vec::new();
        let mut rest = bytes;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            let (head, tail) = rest.split_at(nl);
            rest = &tail[1..];
            if self.inbuf.len() + head.len() > MAX_LINE {
                self.inbuf.clear();
                return Ingest::Oversized(lines);
            }
            self.inbuf.extend_from_slice(head);
            let mut line = std::mem::take(&mut self.inbuf);
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            lines.push(String::from_utf8_lossy(&line).into_owned());
        }
        if self.inbuf.len() + rest.len() > MAX_LINE {
            self.inbuf.clear();
            return Ingest::Oversized(lines);
        }
        self.inbuf.extend_from_slice(rest);
        Ingest::Lines(lines)
    }

    /// Queues response bytes for delivery.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.outbuf.extend(bytes);
    }

    /// Whether un-flushed response bytes remain (the caller keeps
    /// `EPOLLOUT` armed while true).
    pub fn wants_write(&self) -> bool {
        !self.outbuf.is_empty()
    }

    /// Whether reads should be paused until the output backlog drains.
    pub fn read_paused(&self) -> bool {
        self.outbuf.len() > OUTBUF_HIGH_WATER
    }

    /// Marks the connection for closing once every queued byte is out.
    pub fn close_after_flush(&mut self) {
        self.close_after_flush = true;
    }

    /// Whether the connection should now be closed (close requested and
    /// the output fully drained).
    pub fn done(&self) -> bool {
        self.close_after_flush && self.outbuf.is_empty()
    }

    /// Writes as much queued output as the sink accepts. `Ok(true)` when
    /// the buffer fully drained, `Ok(false)` on backpressure (partial
    /// write or `WouldBlock` — the caller re-arms `EPOLLOUT`).
    ///
    /// # Errors
    ///
    /// Real transport errors (peer gone, reset); the caller closes.
    pub fn flush_into(&mut self, sink: &mut impl Write) -> io::Result<bool> {
        while !self.outbuf.is_empty() {
            let head_len = self.outbuf.as_slices().0.len();
            match sink.write(self.outbuf.as_slices().0) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::WriteZero, "peer stopped reading"))
                }
                Ok(n) => {
                    self.outbuf.drain(..n);
                    if n < head_len {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Parks a request behind an outstanding deferred response.
    pub fn defer(&mut self, incoming: Incoming) {
        self.pending.push_back(incoming);
    }

    /// The next parked request, once the connection unblocks.
    pub fn next_deferred(&mut self) -> Option<Incoming> {
        self.pending.pop_front()
    }

    /// Whether an earlier request is still awaiting its response (later
    /// requests must park to keep responses FIFO).
    pub fn blocked(&self) -> bool {
        self.awaiting.is_some()
    }

    /// Whether parked requests are waiting to be handled.
    pub fn has_deferred(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Blocks the connection on a deferred response; `close` is its
    /// request's close flag.
    pub fn block(&mut self, close: bool) {
        self.awaiting = Some(close);
    }

    /// Unblocks the connection as its deferred response arrives; returns
    /// that request's close flag.
    pub fn unblock(&mut self) -> bool {
        self.awaiting.take().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(i: Ingest) -> Vec<String> {
        match i {
            Ingest::Lines(l) => l,
            Ingest::Oversized(_) => panic!("unexpected oversized"),
        }
    }

    #[test]
    fn reassembles_one_line_across_split_reads() {
        let mut c = ConnBuf::new();
        // Byte-at-a-time (slow-loris shape): nothing completes until the
        // newline arrives.
        for b in br#"{"op": "ping"}"# {
            assert_eq!(lines(c.ingest(&[*b])), Vec::<String>::new());
        }
        assert_eq!(lines(c.ingest(b"\n")), vec![r#"{"op": "ping"}"#.to_string()]);
        // A CRLF client gets its carriage return stripped.
        assert_eq!(lines(c.ingest(b"abc\r\n")), vec!["abc".to_string()]);
    }

    #[test]
    fn pipelined_requests_interleave_with_partial_tails() {
        let mut c = ConnBuf::new();
        // Two complete lines plus the head of a third in one read...
        let got = lines(c.ingest(b"{\"op\": \"ping\"}\n{\"op\": \"metrics\"}\n{\"op\""));
        assert_eq!(got, vec![r#"{"op": "ping"}"#, r#"{"op": "metrics"}"#]);
        // ...and the third completes over two more fragments.
        assert_eq!(lines(c.ingest(b": \"drain\"}")), Vec::<String>::new());
        assert_eq!(lines(c.ingest(b"\n")), vec![r#"{"op": "drain"}"#]);
    }

    #[test]
    fn oversized_lines_reject_but_keep_completed_work() {
        let mut c = ConnBuf::new();
        let mut payload = vec![b'x'; MAX_LINE + 1];
        payload.splice(0..0, b"{\"op\": \"ping\"}\n".iter().copied());
        match c.ingest(&payload) {
            Ingest::Oversized(done) => assert_eq!(done, vec![r#"{"op": "ping"}"#]),
            Ingest::Lines(_) => panic!("oversized line must be rejected"),
        }

        // The limit also trips on an unterminated line fed in fragments —
        // memory stays bounded even when no newline ever arrives.
        let mut c = ConnBuf::new();
        let chunk = vec![b'y'; 64 * 1024];
        let mut tripped = false;
        for _ in 0..=(MAX_LINE / chunk.len()) + 1 {
            if let Ingest::Oversized(done) = c.ingest(&chunk) {
                assert!(done.is_empty());
                tripped = true;
                break;
            }
        }
        assert!(tripped, "unterminated line must trip the cap");
    }

    /// A sink accepting at most `cap` bytes per call, then `WouldBlock` —
    /// a socket under backpressure.
    struct Throttled {
        accepted: Vec<u8>,
        cap: usize,
        calls_until_block: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.calls_until_block == 0 {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "busy"));
            }
            self.calls_until_block -= 1;
            let n = buf.len().min(self.cap);
            self.accepted.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn backpressure_queues_partial_writes_and_drains_in_order() {
        let mut c = ConnBuf::new();
        c.queue(b"first response\n");
        c.queue(b"second response\n");

        // The socket takes 7 bytes, then blocks.
        let mut sink = Throttled { accepted: Vec::new(), cap: 7, calls_until_block: 1 };
        assert!(!c.flush_into(&mut sink).expect("partial flush"), "backpressure reported");
        assert!(c.wants_write(), "remainder stays queued");

        // Next readiness: everything drains, bytes in order, no
        // duplication or loss across the partial-write boundary.
        sink.calls_until_block = usize::MAX;
        sink.cap = usize::MAX;
        assert!(c.flush_into(&mut sink).expect("drain"), "fully drained");
        assert!(!c.wants_write());
        assert_eq!(sink.accepted, b"first response\nsecond response\n");
    }

    #[test]
    fn close_waits_for_the_flush() {
        let mut c = ConnBuf::new();
        c.queue(b"bye\n");
        c.close_after_flush();
        assert!(!c.done(), "queued bytes must go out first");
        let mut sink = Throttled { accepted: Vec::new(), cap: 64, calls_until_block: usize::MAX };
        c.flush_into(&mut sink).expect("flush");
        assert!(c.done());
    }

    #[test]
    fn deferred_requests_keep_fifo_order_and_the_close_flag() {
        use crate::protocol::{Request, ServeError};
        let mut c = ConnBuf::new();
        assert!(!c.blocked());
        c.block(true);
        let a = Incoming { request: Ok(Request::Ping), close: false };
        let b = Incoming { request: Err(ServeError::unknown_job(7)), close: true };
        c.defer(a.clone());
        c.defer(b.clone());
        assert!(c.blocked());
        assert!(c.unblock(), "the deferred request's close flag comes back");
        assert!(!c.blocked());
        assert_eq!(c.next_deferred(), Some(a));
        assert_eq!(c.next_deferred(), Some(b));
        assert_eq!(c.next_deferred(), None);
    }

    #[test]
    fn read_pause_reflects_output_backlog() {
        let mut c = ConnBuf::new();
        assert!(!c.read_paused());
        c.queue(&vec![0u8; OUTBUF_HIGH_WATER + 1]);
        assert!(c.read_paused());
    }
}
