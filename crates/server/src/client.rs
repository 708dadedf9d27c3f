//! Blocking TCP client for nodb-server — the REPL's network mode, the CI
//! smoke check and the integration tests all speak through this.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{read_frame, write_frame};

/// One response: the status line and the body frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// `OK …` or `ERR …`.
    pub status: String,
    /// Rendered payload (result rows, panel text, …); may be empty.
    pub body: String,
}

impl Response {
    /// True when the status frame starts with `OK`.
    pub fn is_ok(&self) -> bool {
        self.status.starts_with("OK")
    }
}

/// Base backoff before the first overload retry, doubling per attempt —
/// the same bounded-exponential pattern the engine's transient-I/O retry
/// uses (`io_retry_backoff_ms`).
const OVERLOAD_BACKOFF_MS: u64 = 2;

/// A connected nodb-server client. One request in flight at a time
/// (requests and responses strictly alternate on the wire).
pub struct NoDbClient {
    stream: TcpStream,
    /// How many times [`Self::query`] re-sends after an `ERR overloaded`
    /// rejection (`0` = surface the rejection immediately, the default).
    overload_retries: u32,
}

impl NoDbClient {
    /// Connect to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NoDbClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(NoDbClient {
            stream,
            overload_retries: 0,
        })
    }

    /// Like [`Self::connect`] with a connect timeout (tests / impatient
    /// tooling). Needs a resolved address.
    pub fn connect_timeout(
        addr: &std::net::SocketAddr,
        timeout: Duration,
    ) -> io::Result<NoDbClient> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_nodelay(true).ok();
        Ok(NoDbClient {
            stream,
            overload_retries: 0,
        })
    }

    /// Opt in to retrying `ERR overloaded` rejections: [`Self::query`]
    /// re-sends up to `attempts` times with bounded exponential backoff
    /// (base `OVERLOAD_BACKOFF_MS`, doubling per attempt, exponent capped
    /// so the sleep never overflows). The server rejects *before* touching
    /// any table state, so a retried query is side-effect free until
    /// admitted. Off by default — a load generator or batch tool opts in;
    /// an interactive caller usually wants to see the back-pressure.
    pub fn retry_overloaded(mut self, attempts: u32) -> Self {
        self.overload_retries = attempts;
        self
    }

    /// Send one raw command line and read the two-frame response.
    pub fn command(&mut self, line: &str) -> io::Result<Response> {
        write_frame(&mut self.stream, line)?;
        let status = read_frame(&mut self.stream)?.ok_or_else(closed)?;
        let body = read_frame(&mut self.stream)?.ok_or_else(closed)?;
        Ok(Response { status, body })
    }

    /// Run one SQL statement (`QUERY <sql>`). With
    /// [`Self::retry_overloaded`] set, `ERR overloaded` rejections are
    /// retried with exponential backoff; every other response (including
    /// other errors) is returned as-is.
    pub fn query(&mut self, sql: &str) -> io::Result<Response> {
        let line = format!("QUERY {sql}");
        let mut attempt = 0u32;
        loop {
            let resp = self.command(&line)?;
            if attempt < self.overload_retries && resp.status.starts_with("ERR overloaded") {
                attempt += 1;
                let backoff = OVERLOAD_BACKOFF_MS.saturating_mul(1u64 << (attempt - 1).min(6));
                std::thread::sleep(Duration::from_millis(backoff));
                continue;
            }
            return Ok(resp);
        }
    }

    /// Liveness check.
    pub fn ping(&mut self) -> io::Result<bool> {
        Ok(self.command("PING")?.is_ok())
    }

    /// Tell the server this connection is done (the server closes after
    /// acknowledging).
    pub fn quit(mut self) -> io::Result<()> {
        let _ = self.command("QUIT")?;
        Ok(())
    }

    /// The underlying stream (tests use this to simulate abrupt
    /// disconnects via `shutdown`).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Send a request frame WITHOUT reading the response — only useful for
    /// tests that drop the connection mid-query to exercise the server's
    /// disconnect watchdog.
    pub fn send_only(&mut self, line: &str) -> io::Result<()> {
        write_frame(&mut self.stream, line)
    }
}

fn closed() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "server closed the connection mid-response",
    )
}
