//! A minimal blocking HTTP/1.1 keep-alive client for `lip-serve`, and the
//! child-process handle that runs the shipped server binary.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// One keep-alive connection; reconnects after a transport error.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(1 << 16),
        }
    }

    fn stream(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// `POST path` with `body`; returns the status and the response body.
    /// A transport error drops the connection so the next call reconnects.
    pub fn post(&mut self, path: &str, body: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        let out = self.exchange("POST", path, body);
        if out.is_err() {
            self.stream = None;
        }
        out
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, Vec<u8>)> {
        // head and body in one write: two small packets would meet
        // Nagle/delayed-ACK stalls
        let mut req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\
             Connection: keep-alive\r\n\r\n",
            body.len()
        )
        .into_bytes();
        req.extend_from_slice(body);
        self.stream()?.write_all(&req)?;

        let mut buf = std::mem::take(&mut self.buf);
        buf.clear();
        let out = self.read_response(&mut buf);
        self.buf = buf;
        out
    }

    fn read_response(&mut self, buf: &mut Vec<u8>) -> std::io::Result<(u16, Vec<u8>)> {
        let stream = self.stream()?;
        let mut chunk = [0u8; 16 * 1024];
        let mut scanned = 0;
        let head_end = loop {
            if let Some(i) = buf[scanned..].windows(4).position(|w| w == b"\r\n\r\n") {
                break scanned + i;
            }
            scanned = buf.len().saturating_sub(3);
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..head_end]);
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .unwrap_or(0);
        let closes = head.lines().any(|l| {
            l.split_once(':').is_some_and(|(k, v)| {
                k.eq_ignore_ascii_case("connection") && v.trim().eq_ignore_ascii_case("close")
            })
        });
        let mut body = buf.split_off(head_end + 4);
        body.reserve(length.saturating_sub(body.len()));
        while body.len() < length {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(length);
        if closes {
            self.stream = None;
        }
        Ok((status, body))
    }
}

/// The shipped `lip-serve` binary running as a child process. Dropping the
/// handle kills the child and waits for it.
pub struct ServerProc {
    child: Child,
    /// Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// The server's start-up line, which states the flags in effect.
    pub banner: String,
}

impl ServerProc {
    /// Start `bin` with its default flags on an ephemeral loopback port and
    /// wait until it listens.
    pub fn spawn(bin: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .strip_prefix("lip-serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse::<SocketAddr>().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
                banner: banner.trim().to_string(),
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "lip-serve did not report its address (got {banner:?})"
                ))
            }
        }
    }

    /// The child's pid as a `/proc` path component.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
