//! Protocol battery for `ccomp-o serve` (ISSUE 9): the daemon must survive
//! anything its stdin produces — seeded garbage, oversized frames,
//! mid-frame EOF, unknown schemas — answering each with a typed `error`
//! frame and honoring the 0/1/2 exit contract (101 is forbidden by
//! construction). Plus: a kill-and-restart must serve byte-identical
//! responses from the on-disk cache, and the Unix-socket front end speaks
//! the same protocol.

mod serve_util;

use std::io::{BufRead, BufReader, Write};

use serve_util::{artifacts_only, compile_req, fresh_dir, request_stats, Serve};

const UNIT: &str = "int square(int x) { return x * x; }";

/// SplitMix64 — the workspace's seeded generator (no rand dependency).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[test]
fn seeded_garbage_never_kills_the_server() {
    let dir = fresh_dir("fuzz");
    let mut s = Serve::spawn(&dir, &[]);
    let mut rng = SplitMix64(0xc0ffee);
    for i in 0..100 {
        // Random bytes, newline-free and never whitespace-only (a blank
        // line legitimately gets no response). Odd rounds are truncated
        // JSON prefixes — the "mid-frame" shapes a crashed client leaves.
        let frame: Vec<u8> = if i % 2 == 0 {
            let len = 1 + (rng.next() % 200) as usize;
            std::iter::once(b'!')
                .chain((0..len).map(|_| {
                    let b = (rng.next() % 256) as u8;
                    if b == b'\n' || b == b'\r' {
                        b'x'
                    } else {
                        b
                    }
                }))
                .collect()
        } else {
            let full = compile_req(i, &[UNIT]);
            let cut = 1 + (rng.next() as usize % (full.len() - 1));
            full.as_bytes()[..cut].to_vec()
        };
        s.send_raw(&frame);
        let resp = s.read_line();
        assert!(
            resp.contains("\"op\":\"error\""),
            "garbage frame {i} must get a typed error frame, got: {resp}"
        );
    }
    // The server is still fully functional afterwards.
    let pong = s.req("{\"schema\":\"compcerto-serve/1\",\"op\":\"ping\",\"id\":1}");
    assert!(pong.contains("\"op\":\"pong\""), "{pong}");
    let result = s.req(&compile_req(2, &[UNIT]));
    assert!(result.contains("\"status\":\"ok\""), "{result}");
    assert_eq!(s.eof_wait().code(), Some(0), "exit must be 0, never 101");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn typed_errors_for_each_malformed_shape() {
    let dir = fresh_dir("shapes");
    let mut s = Serve::spawn(&dir, &[]);
    for (frame, expect) in [
        ("{not json", "parse-error"),
        (
            "{\"schema\":\"compcerto-serve/9\",\"op\":\"ping\"}",
            "unknown-schema",
        ),
        ("{\"op\":\"ping\"}", "unknown-schema"),
        (
            "{\"schema\":\"compcerto-serve/1\",\"op\":\"frobnicate\"}",
            "unknown-op",
        ),
        ("{\"schema\":\"compcerto-serve/1\"}", "missing-op"),
        (
            "{\"schema\":\"compcerto-serve/1\",\"op\":\"compile\",\"id\":1}",
            "bad-request",
        ),
        (
            "{\"schema\":\"compcerto-serve/1\",\"op\":\"compile\",\"id\":1,\"units\":[]}",
            "bad-request",
        ),
    ] {
        let resp = s.req(frame);
        assert!(
            resp.contains("\"op\":\"error\"") && resp.contains(expect),
            "frame {frame} must yield a `{expect}` error, got: {resp}"
        );
    }
    // Non-UTF-8 bytes are lossily decoded into a parse error.
    s.send_raw(b"\xff\xfe\x80 not utf8");
    let resp = s.read_line();
    assert!(resp.contains("\"op\":\"error\""), "{resp}");
    assert_eq!(s.eof_wait().code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_frame_is_rejected_and_the_connection_survives() {
    let dir = fresh_dir("oversized");
    let mut s = Serve::spawn(&dir, &[]);
    // One byte past the cap: the frame is drained (never buffered whole)
    // and answered with a typed error.
    let big = vec![b'a'; compiler::MAX_FRAME_BYTES + 1];
    s.send_raw(&big);
    let resp = s.read_line();
    assert!(
        resp.contains("\"op\":\"error\"") && resp.contains("oversized-frame"),
        "{resp}"
    );
    // The next frame on the same connection still works.
    let pong = s.req("{\"schema\":\"compcerto-serve/1\",\"op\":\"ping\",\"id\":5}");
    assert!(pong.contains("\"op\":\"pong\""), "{pong}");
    assert_eq!(s.eof_wait().code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_frame_eof_exits_cleanly() {
    let dir = fresh_dir("mideof");
    let mut s = Serve::spawn(&dir, &[]);
    // An unterminated frame followed by EOF: the truncated tail is parsed
    // (and rejected) and the process exits 0.
    let stdin = {
        // Write without the trailing newline, then close.
        s.send_raw(b"{\"schema\":\"compcerto-serve/1\",\"op\":\"pi");
        s.eof_wait()
    };
    assert_eq!(
        stdin.code(),
        Some(0),
        "mid-frame EOF must exit 0, never 101"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_2() {
    let bin = env!("CARGO_BIN_EXE_ccomp-o");
    for args in [
        vec!["serve"],
        vec!["serve", "--cache-dir"],
        vec!["serve", "--cache-dir", "/tmp/x", "--frobnicate"],
        vec!["serve", "--cache-dir", "/tmp/x", "--jobs", "banana"],
    ] {
        let out = std::process::Command::new(bin)
            .args(&args)
            .output()
            .expect("spawn");
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} must be a usage error (exit 2)"
        );
    }
}

#[test]
fn kill_and_restart_serves_identical_bytes() {
    let dir = fresh_dir("kill-restart");
    let batch = compile_req(3, &[UNIT, "int cube(int x) { return x * x * x; }"]);

    let mut s1 = Serve::spawn(&dir, &[]);
    let cold = s1.req(&batch);
    let warm1 = s1.req(&batch);
    // Hard kill — no shutdown handshake, as a crashed or OOM-killed
    // server would leave things. The cache writes were atomic, so the
    // directory holds complete entries or none.
    let _ = s1.child.kill();
    let _ = s1.child.wait();

    let mut s2 = Serve::spawn(&dir, &[]);
    let warm2 = s2.req(&batch);
    assert_eq!(
        warm1, warm2,
        "a restarted server over the same cache dir must serve identical bytes"
    );
    // Served from the on-disk cache, with the cold compile's artifacts.
    assert_eq!(
        request_stats(&warm2),
        "\"cache\":{\"hit\":2,\"miss\":0,\"evict\":0}",
        "{warm2}"
    );
    assert_eq!(artifacts_only(&cold), artifacts_only(&warm2));
    assert_eq!(s2.eof_wait().code(), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unix_socket_speaks_the_same_protocol() {
    let dir = fresh_dir("unix");
    let sock = dir.join("serve.sock");
    let sock_str = sock.to_str().expect("socket path").to_string();
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_ccomp-o"))
        .args(["serve", "--cache-dir"])
        .arg(&dir)
        .args(["--socket", &sock_str])
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn serve --socket");
    // Wait for the listener to come up.
    let mut stream = None;
    for _ in 0..200 {
        match std::os::unix::net::UnixStream::connect(&sock) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    let stream = stream.expect("socket did not come up");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut req = |frame: &str| -> String {
        writer.write_all(frame.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        line.trim_end().to_string()
    };

    let pong = req("{\"schema\":\"compcerto-serve/1\",\"op\":\"ping\",\"id\":1}");
    assert!(pong.contains("\"op\":\"pong\""), "{pong}");
    let cold = req(&compile_req(2, &[UNIT]));
    assert!(cold.contains("\"cache\":\"miss\""), "{cold}");
    let warm = req(&compile_req(2, &[UNIT]));
    assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
    let ack = req("{\"schema\":\"compcerto-serve/1\",\"op\":\"shutdown\",\"id\":3}");
    assert!(ack.contains("\"op\":\"shutdown-ok\""), "{ack}");

    let status = child.wait().expect("wait");
    assert_eq!(status.code(), Some(0));
    assert!(!sock.exists(), "the socket file must be cleaned up");
    let _ = std::fs::remove_dir_all(&dir);
}
