//! Shared plumbing for the `ccomp-o serve` test batteries: spawn the real
//! binary, speak the newline-framed protocol over its pipes, and compare
//! responses modulo the intentionally-variable members (the per-unit
//! `cache` tag and the per-request hit/miss stats).

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};

/// A fresh, empty cache directory unique to `tag` within this test binary.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ccomp-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cache dir");
    dir
}

/// A running `ccomp-o serve` child on stdin/stdout pipes.
pub struct Serve {
    /// The server process (the restart tests kill it to simulate a crash).
    pub child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Serve {
    /// Spawn `ccomp-o serve --cache-dir <dir> <extra...>`.
    pub fn spawn(cache_dir: &std::path::Path, extra: &[&str]) -> Serve {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ccomp-o"))
            .arg("serve")
            .arg("--cache-dir")
            .arg(cache_dir)
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn ccomp-o serve");
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        Serve {
            child,
            stdin,
            stdout,
        }
    }

    /// Send one frame and read one response line (trailing newline
    /// stripped). Panics on EOF — callers expect a live server.
    pub fn req(&mut self, frame: &str) -> String {
        self.send_raw(frame.as_bytes());
        self.read_line()
    }

    /// Send raw bytes (a trailing newline is appended) without reading.
    pub fn send_raw(&mut self, bytes: &[u8]) {
        let stdin = self.stdin.as_mut().expect("stdin open");
        stdin.write_all(bytes).expect("write frame");
        stdin.write_all(b"\n").expect("write newline");
        stdin.flush().expect("flush");
    }

    /// Read one response line (trailing newline stripped).
    pub fn read_line(&mut self) -> String {
        let mut line = String::new();
        let n = self.stdout.read_line(&mut line).expect("read response");
        assert!(n > 0, "server closed its stdout unexpectedly");
        line.truncate(line.trim_end().len());
        line
    }

    /// Close stdin (EOF) and wait; the server must exit cleanly.
    pub fn eof_wait(mut self) -> ExitStatus {
        drop(self.stdin.take());
        self.child.wait().expect("wait for server")
    }
}

/// Build a `compile` request frame over inline sources (the sources must
/// not need JSON escaping — keep them single-line and quote-free).
pub fn compile_req(id: u64, sources: &[&str]) -> String {
    let units: Vec<String> = sources
        .iter()
        .map(|s| format!("{{\"source\":\"{s}\"}}"))
        .collect();
    format!(
        "{{\"schema\":\"compcerto-serve/1\",\"op\":\"compile\",\"id\":{id},\"units\":[{}]}}",
        units.join(",")
    )
}

/// A `compile-result` frame with the cache-state members removed: what is
/// left must be byte-identical across cold, warm, partial and
/// post-restart runs (and across every `--jobs` setting).
pub fn artifacts_only(resp: &str) -> String {
    let stripped = resp
        .replace("\"cache\":\"miss\",", "")
        .replace("\"cache\":\"hit\",", "")
        .replace("\"cache\":\"evict-miss\",", "");
    let stats = stripped.rfind(",\"cache\":{").expect("request stats");
    stripped[..stats].to_string()
}

/// The `"cache":{...}` stats object of a `compile-result` frame.
pub fn request_stats(resp: &str) -> String {
    let at = resp.rfind("\"cache\":{").expect("request stats");
    resp[at..].trim_end_matches('}').to_string() + "}"
}
