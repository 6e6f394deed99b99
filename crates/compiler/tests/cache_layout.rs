//! Regression tests pinning the `compcerto-cache/1` on-disk entry layout.
//!
//! [`Cache::store`] and [`Cache::probe`] live in lockstep: the probe
//! validates the exact fixed layout the store emits (single prefix match,
//! no JSON parse), so any drift between the two — a renamed field, a
//! reordered member, a changed escape — silently turns every warm probe
//! into a miss, or worse, accepts a tampered entry. These tests perturb
//! **every field the store emits** and assert the probe evicts each
//! variant, recompiles, and rewrites a valid entry; and that the pristine
//! layout itself matches the documented schema byte for byte.

use compiler::serve::{cache_key, compiler_fingerprint, fnv_hex, options_fingerprint};
use compiler::{CompilerOptions, Jobs, ServeConfig, Server, CACHE_SCHEMA};

const REQ: &str = r#"{"schema":"compcerto-serve/1","op":"compile","id":1,"units":[{"source":"int f(int x) { return x + 1; }"}]}"#;

fn tmpdir(tag: &str) -> String {
    let d = std::env::temp_dir().join(format!("ccomp-cache-layout-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("tmpdir");
    d.to_string_lossy().into_owned()
}

fn test_server(dir: &str) -> Server {
    Server::new(ServeConfig {
        opts: CompilerOptions::validated().with_metrics(),
        jobs: Jobs::N(1),
        cache_dir: dir.to_string(),
    })
    .expect("server")
}

/// The single cache entry written by a one-unit compile: `(path, bytes)`.
fn sole_entry(dir: &str) -> (String, String) {
    let mut entries: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    assert_eq!(entries.len(), 1, "expected exactly one cache entry");
    let path = entries.remove(0);
    let raw = std::fs::read_to_string(&path).expect("entry bytes");
    (path.to_string_lossy().into_owned(), raw)
}

/// The six values of a pristine entry, in emission order.
#[derive(Clone, Copy)]
struct Fields<'a> {
    schema: &'a str,
    key: &'a str,
    compiler: &'a str,
    options: &'a str,
    payload_fnv: &'a str,
    payload: &'a str,
}

/// Parse an entry by its fixed markers (this *is* the layout under test:
/// if `store` changes its rendering, this parse — and with it every test
/// below — fails loudly).
fn parse_entry(raw: &str) -> Fields<'_> {
    let mut rest = raw.strip_prefix("{\"schema\":\"").expect("schema marker");
    let mut grab = |end: &str| -> &str {
        let at = rest.find(end).expect("field marker");
        let v = &rest[..at];
        rest = &rest[at + end.len()..];
        v
    };
    let schema = grab("\",\"key\":\"");
    let key = grab("\",\"compiler\":\"");
    let compiler = grab("\",\"options\":\"");
    let options = grab("\",\"payload_fnv\":\"");
    let payload_fnv = grab("\",\"payload\":\"");
    let payload = grab("\"}\n");
    assert!(rest.is_empty(), "trailing bytes after entry: {rest:?}");
    Fields {
        schema,
        key,
        compiler,
        options,
        payload_fnv,
        payload,
    }
}

fn render_entry(f: &Fields) -> String {
    format!(
        "{{\"schema\":\"{}\",\"key\":\"{}\",\"compiler\":\"{}\",\"options\":\"{}\",\
         \"payload_fnv\":\"{}\",\"payload\":\"{}\"}}\n",
        f.schema, f.key, f.compiler, f.options, f.payload_fnv, f.payload
    )
}

/// The artifact member of a compile response, independent of the per-unit
/// cache tag and the request-level stats.
fn strip_tags(r: &str) -> String {
    let r = r
        .replace("\"cache\":\"miss\"", "")
        .replace("\"cache\":\"hit\"", "")
        .replace("\"cache\":\"evict-miss\"", "");
    r[..r.rfind(",\"cache\":{").expect("stats member")].to_string()
}

#[test]
fn pristine_entry_matches_documented_layout() {
    let dir = tmpdir("pristine");
    let mut s = test_server(&dir);
    let cold = s.handle_line(REQ).expect("cold compile");
    assert!(cold.contains("\"cache\":\"miss\""), "{cold}");

    let (_, raw) = sole_entry(&dir);
    let f = parse_entry(&raw);
    // Re-rendering the parsed fields reproduces the file byte for byte —
    // the parse above covered every byte `store` wrote.
    assert_eq!(render_entry(&f), raw);
    assert_eq!(f.schema, CACHE_SCHEMA);
    // The filename is the content-addressed key.
    assert_eq!(f.key.len(), 16, "key is a 16-hex fingerprint");
    assert_eq!(f.compiler, compiler_fingerprint());
    assert_eq!(
        f.options,
        options_fingerprint(CompilerOptions::validated().with_metrics())
    );
    // The checksum is over the *unescaped* payload; for this artifact the
    // escaped form contains `\n` sequences, so re-deriving over the raw
    // escaped bytes must NOT match (pinning which form is checksummed).
    assert!(f.payload.contains("\\n"), "artifact payload spans lines");
    assert_ne!(fnv_hex(f.payload.as_bytes()), f.payload_fnv);
    // And the key includes the fingerprints (content-addressing contract).
    let fp_key_a = cache_key("int f;", "o1", "c1", "s1");
    let fp_key_b = cache_key("int f;", "o1", "c2", "s1");
    assert_ne!(fp_key_a, fp_key_b);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_perturbed_field_is_evicted_and_recompiled() {
    let dir = tmpdir("perturb");
    let mut s = test_server(&dir);
    let cold = s.handle_line(REQ).expect("cold compile");
    let want_artifact = strip_tags(&cold);
    let (path, pristine) = sole_entry(&dir);

    // Each perturbation edits exactly one field (or the framing) of the
    // pristine entry, labeled for the failure message.
    type Perturb = (&'static str, Box<dyn Fn(&Fields) -> String>);
    let hexflip = |v: &str| -> String {
        let mut s = v.to_string();
        let last = if s.ends_with('0') { "1" } else { "0" };
        s.replace_range(s.len() - 1.., last);
        s
    };
    let cases: Vec<Perturb> = vec![
        (
            "schema version bumped",
            Box::new(|f: &Fields| {
                render_entry(&Fields {
                    schema: "compcerto-cache/2",
                    ..*f
                })
            }),
        ),
        (
            "key field flipped",
            Box::new(move |f: &Fields| {
                render_entry(&Fields {
                    key: &hexflip(f.key),
                    ..*f
                })
            }),
        ),
        (
            "compiler fingerprint flipped",
            Box::new(move |f: &Fields| {
                render_entry(&Fields {
                    compiler: &hexflip(f.compiler),
                    ..*f
                })
            }),
        ),
        (
            "options fingerprint flipped",
            Box::new(move |f: &Fields| {
                render_entry(&Fields {
                    options: &hexflip(f.options),
                    ..*f
                })
            }),
        ),
        (
            "payload checksum flipped",
            Box::new(move |f: &Fields| {
                render_entry(&Fields {
                    payload_fnv: &hexflip(f.payload_fnv),
                    ..*f
                })
            }),
        ),
        (
            "payload byte flipped",
            Box::new(|f: &Fields| {
                let mutated = f.payload.replacen('i', "j", 1);
                assert_ne!(mutated, f.payload, "payload has a byte to flip");
                render_entry(&Fields {
                    payload: &mutated,
                    ..*f
                })
            }),
        ),
        (
            "payload escape invalid",
            Box::new(|f: &Fields| {
                render_entry(&Fields {
                    payload: &f.payload.replacen("\\n", "\\x", 1),
                    ..*f
                })
            }),
        ),
        // Truncation works on the raw bytes, not the parsed fields — the
        // loop below substitutes the halved pristine entry for this label.
        ("entry truncated mid-payload", Box::new(|_| String::new())),
        (
            "closing brace lost",
            Box::new(|f: &Fields| {
                let full = render_entry(f);
                full[..full.len() - 3].to_string()
            }),
        ),
    ];

    for (label, perturb) in cases {
        // Re-parse the pristine bytes each round (the previous round's
        // recompile rewrote the entry; it must be back to pristine).
        let raw = std::fs::read_to_string(&path).expect("entry re-read");
        assert_eq!(raw, pristine, "recompile restored the entry ({label})");
        let f = parse_entry(&raw);
        let mutated = if label == "entry truncated mid-payload" {
            pristine[..pristine.len() / 2].to_string()
        } else {
            perturb(&f)
        };
        assert_ne!(mutated, pristine, "perturbation is a no-op: {label}");
        std::fs::write(&path, &mutated).expect("write perturbed entry");

        let resp = s.handle_line(REQ).expect("probe after perturbation");
        assert!(
            resp.contains("\"cache\":\"evict-miss\""),
            "{label}: probe accepted a corrupt entry: {resp}"
        );
        assert!(
            resp.contains("\"evict\":1"),
            "{label}: eviction not tallied: {resp}"
        );
        // The recompiled artifact is byte-identical to the cold compile —
        // corruption degrades to a recompute, never to a wrong answer.
        assert_eq!(strip_tags(&resp), want_artifact, "{label}");
    }

    // After the last eviction cycle the entry is valid again: warm hit.
    let warm = s.handle_line(REQ).expect("warm probe");
    assert!(warm.contains("\"cache\":\"hit\""), "{warm}");
    assert_eq!(strip_tags(&warm), want_artifact);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_entry_is_a_plain_miss_not_an_eviction() {
    let dir = tmpdir("miss");
    let mut s = test_server(&dir);
    let cold = s.handle_line(REQ).expect("cold");
    assert!(cold.contains("\"evict\":0"), "{cold}");
    let (path, _) = sole_entry(&dir);
    std::fs::remove_file(&path).expect("drop entry");
    let again = s.handle_line(REQ).expect("recompile");
    assert!(
        again.contains("\"cache\":\"miss\"") && again.contains("\"evict\":0"),
        "a vanished entry is a miss, not an eviction: {again}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
