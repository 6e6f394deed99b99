//! The workspace's one JSON string escaper. This crate is the lowest that
//! emits JSON (its trace events); `compiler::json` re-exports [`escape`]
//! next to the reader that inverts it.

/// Minimal JSON string escaping — the exact inverse of what
/// `compiler::json::parse` unescapes. Every emitter in the workspace that
/// embeds untrusted text in a JSON string goes through this.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    // Every byte that needs an escape is ASCII, so runs between them are
    // copied as slices that start and end on char boundaries.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                let _ = std::fmt::Write::write_fmt(&mut out, format_args!("\\u{b:04x}"));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out
}
