//! The `msocd` child process and raw protocol connections to it.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use msoc_net::{read_response, write_request, Request, Response, WireError};

use crate::trace::SHARDS;

/// How long a shut-down daemon may take to flush and exit.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(60);

/// One request/response connection. Unlike `msoc_net::Client` it never
/// reconnects, so a transport error reaches the failure count.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    /// Connects to a daemon.
    pub fn open(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer: BufWriter::new(stream) })
    }

    /// Sends one request and waits for its reply.
    pub fn call(&mut self, request: &Request) -> Result<Response, WireError> {
        write_request(&mut self.writer, request)?;
        self.writer.flush()?;
        read_response(&mut self.reader)
    }
}

/// A running `msocd`, killed on drop unless shut down.
pub struct Daemon {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    /// The loopback address it listens on.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `msocd` on an ephemeral loopback port (persisting under
    /// `store` when given) and waits for its `listening on` line.
    pub fn spawn(msocd: &Path, store: Option<&Path>) -> Result<Self, String> {
        let mut command = Command::new(msocd);
        command.args(["--addr", "127.0.0.1:0", "--shards", &SHARDS.to_string()]);
        if let Some(store) = store {
            command.arg("--store").arg(store);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", msocd.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child: Some(child),
            stdout: BufReader::new(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        daemon.stdout.read_line(&mut line).map_err(|e| e.to_string())?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("msocd did not report its address: {line:?}"))?;
        Ok(daemon)
    }

    /// The daemon's peak resident set in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().expect("running").id();
        let status =
            std::fs::read_to_string(format!("/proc/{pid}/status")).map_err(|e| e.to_string())?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| String::from("no VmHWM in /proc status"))
    }

    /// Shuts the daemon down through the protocol (flushing snapshots
    /// when it has a store) and waits for a clean exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::open(self.addr)?;
        match conn.call(&Request::Shutdown) {
            Ok(Response::ShuttingDown) => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        drop(conn);
        // msocd drains every open connection before it exits; one left
        // open would hang it, so give up (and kill it on drop) instead.
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        let child = self.child.as_mut().expect("running");
        let status = loop {
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                break status;
            }
            if Instant::now() > deadline {
                return Err(String::from("msocd did not exit after Shutdown"));
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        self.child = None;
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).map_err(|e| e.to_string())?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("msocd exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
