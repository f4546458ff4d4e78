//! A small synchronous client for the serving protocol.
//!
//! Wraps a TCP or Unix-socket connection and the one-line-request /
//! one-line-response exchange. Used by the `serve_smoke` example, the
//! `serve_study` benchmark, and the integration tests; external tooling
//! can equally well speak the protocol with `nc` (see `docs/serving.md`).

use crate::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;

/// A connected socket of either family: a client's connection, and each
/// connection the server accepts.
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

impl Stream {
    fn try_clone(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        })
    }

    /// The socket's file descriptor.
    #[cfg(unix)]
    pub(crate) fn fd(&self) -> std::os::unix::io::RawFd {
        use std::os::unix::io::AsRawFd;
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// A connected protocol client.
pub struct Client {
    reader: BufReader<Stream>,
    writer: Stream,
}

impl Client {
    /// Connects over TCP (`addr` like `"127.0.0.1:4850"`).
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect_tcp(addr: &str) -> std::io::Result<Client> {
        Client::new(Stream::Tcp(TcpStream::connect(addr)?))
    }

    /// Connects over a Unix-domain socket.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<Path>) -> std::io::Result<Client> {
        Client::new(Stream::Unix(UnixStream::connect(path)?))
    }

    fn new(stream: Stream) -> std::io::Result<Client> {
        Ok(Client { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    /// Sends one request object and reads the one-line response.
    ///
    /// # Errors
    ///
    /// I/O failures, a closed connection, or an unparseable response, as a
    /// message.
    pub fn request(&mut self, request: &Json) -> Result<Json, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Json::parse(line.trim()).map_err(|e| format!("bad response: {e}")),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }

    /// Sends a request and fails unless the response has `"ok": true`.
    ///
    /// # Errors
    ///
    /// Transport errors ([`request`](Client::request)) or the server's
    /// `error` message.
    pub fn expect_ok(&mut self, request: &Json) -> Result<Json, String> {
        let resp = self.request(request)?;
        if resp.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(resp)
        } else {
            Err(resp
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("server reported failure")
                .to_string())
        }
    }

    /// `{"op": "ping"}` round trip.
    ///
    /// # Errors
    ///
    /// See [`expect_ok`](Client::expect_ok).
    pub fn ping(&mut self) -> Result<(), String> {
        self.expect_ok(&Json::obj([("op", Json::from("ping"))])).map(|_| ())
    }

    /// `{"op": "metrics"}`; returns the registry dump.
    ///
    /// # Errors
    ///
    /// See [`expect_ok`](Client::expect_ok).
    pub fn metrics(&mut self) -> Result<Json, String> {
        let resp = self.expect_ok(&Json::obj([("op", Json::from("metrics"))]))?;
        resp.get("metrics").cloned().ok_or_else(|| "response missing `metrics`".to_string())
    }

    /// `{"op": "drain"}`; blocks until the server settles every admitted
    /// job.
    ///
    /// # Errors
    ///
    /// See [`expect_ok`](Client::expect_ok).
    pub fn drain(&mut self) -> Result<Json, String> {
        self.expect_ok(&Json::obj([("op", Json::from("drain"))]))
    }

    /// `{"op": "shutdown"}`; drains and stops the server.
    ///
    /// # Errors
    ///
    /// See [`expect_ok`](Client::expect_ok).
    pub fn shutdown(&mut self) -> Result<Json, String> {
        self.expect_ok(&Json::obj([("op", Json::from("shutdown"))]))
    }
}
