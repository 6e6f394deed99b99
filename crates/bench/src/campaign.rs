//! Campaign kernel (DESIGN.md §11.3): what every campaign bin shares.
//!
//! A campaign supplies its configuration (a [`Campaign`]: its own flags,
//! its presets and the flags its report echoes), a pure verdict per item
//! and a fold. The kernel supplies the rest:
//!
//! * **Shared flags.** `--jobs` for every campaign; `--out` and `--check`
//!   for one that writes a report file; `--block`, `--ckpt`, `--resume` and
//!   `--max-blocks` for a resumable one. A bad flag or value exits 2 with
//!   the bin's usage line.
//! * **One config header.** [`Campaign::header`] lists the flags the
//!   report echoes. The `--check` preflight compares them with the
//!   baseline before any item runs, a mismatch prints the command that
//!   regenerates the baseline, and the checkpoint fingerprint is built from
//!   the same list plus [`Campaign::unechoed`].
//! * **Checkpointed fold.** [`Kernel::fold`] runs the items block by block,
//!   in order. With `--ckpt PATH` it writes a `compcerto-ckpt/1` envelope
//!   after every block, atomically (temp file + rename), around the body
//!   the aggregate's [`Checkpoint`] codec supplies. Because a block's
//!   verdicts are pure and the fold runs in item order, a run resumed with
//!   `--resume` lands a report byte-identical to an uninterrupted one.
//!   `--max-blocks N` pauses after N blocks. No checkpoint is ever written
//!   without `--ckpt`.
//! * **Finish.** [`Kernel::finish`] writes `--out`, compares with the
//!   `--check` baseline byte for byte or prints the report, then removes
//!   the checkpoint.
//! * **Exit contract.** 0: clean, or paused at `--max-blocks`. 1:
//!   findings, check drift, or a report or checkpoint that cannot be
//!   written. 2: usage — bad flags, a preflight mismatch, an unreadable,
//!   unparsable or wrong-schema baseline, a missing or mismatched
//!   checkpoint. Progress notes go to stderr, so they never enter a
//!   printed report. What a bin prints while folding (difftest's and
//!   sched's finding lines) appears only in the run that folds that item;
//!   the report itself lists every finding either way.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::io::Write as _;
use std::ops::Range;
use std::process::ExitCode;
use std::str::FromStr;

use compiler::json::{self, escape, Json};
use compiler::Jobs;

/// Schema stamped on every campaign checkpoint.
const CKPT_SCHEMA: &str = "compcerto-ckpt/1";

/// What a campaign bin declares about itself.
#[derive(Clone, Copy)]
pub struct Spec {
    /// The bin's name, as in `cargo run --bin`.
    pub bin: &'static str,
    /// The bin's own flags, for the usage line.
    pub usage: &'static str,
    /// The default `--out` path; `None` for a campaign that prints its
    /// report on stdout (and so takes no `--out` or `--check`).
    pub out: Option<&'static str>,
    /// The report's schema tag, which a `--check` baseline must carry.
    pub schema: &'static str,
    /// Items per block (`--block`'s default) for a resumable campaign.
    pub block: Option<u64>,
}

/// One flag a report echoes: what a mismatch calls it, its dotted key path
/// in the report, the flag, and its effective value as the report renders
/// it.
pub type Echo = (&'static str, &'static str, &'static str, String);

/// A campaign's configuration.
pub trait Campaign: Default {
    /// What the bin declares about itself.
    const SPEC: Spec;

    /// Read one of the campaign's own flags; `Ok(false)` when `flag` is
    /// not one of them.
    ///
    /// # Errors
    /// A missing or malformed value.
    fn flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, String>;

    /// Apply presets (`--quick`) once every flag is read.
    fn settle(&mut self) {}

    /// The flags the report echoes, in header order.
    fn header(&self) -> Vec<Echo> {
        Vec::new()
    }

    /// Result-affecting settings no report echoes; the checkpoint
    /// fingerprint covers them too.
    fn unechoed(&self) -> String {
        String::new()
    }
}

/// A resumable campaign's aggregate, as the body of its checkpoint.
pub trait Checkpoint: Sized {
    /// The aggregate as one JSON value.
    fn encode(&self) -> String;

    /// The inverse of [`Checkpoint::encode`].
    ///
    /// # Errors
    /// A missing or malformed member.
    fn decode(body: &Json) -> Result<Self, String>;
}

/// The flag values still to be read.
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The value following `flag`.
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value following `flag`, parsed.
    ///
    /// # Errors
    /// When there is none or it does not parse.
    pub fn num<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        self.value(flag)?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    }
}

/// The shared flags, the checked baseline and the checkpoint fingerprint.
pub struct Kernel {
    spec: Spec,
    /// The worker-pool width (`--jobs`).
    pub jobs: Jobs,
    out: Option<String>,
    check: Option<String>,
    /// The `--check` baseline.
    baseline: Option<String>,
    block: u64,
    ckpt: Option<String>,
    resume: bool,
    max_blocks: Option<u64>,
    fingerprint: String,
}

/// Read this process's flags and run the `--check` preflight, before any
/// item runs. Exits 2 on a usage error.
pub fn start<C: Campaign>() -> (Kernel, C) {
    let spec = C::SPEC;
    let (mut k, cfg) = parse::<C>(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        let mut shared = String::from("[--jobs N|auto]");
        if spec.out.is_some() {
            shared.push_str(" [--out PATH | --check PATH]");
        }
        if spec.block.is_some() {
            shared.push_str(" [--block N] [--ckpt PATH] [--resume] [--max-blocks N]");
        }
        eprintln!("usage: {} {} {shared}", spec.bin, spec.usage);
        exit(2)
    });
    if let Some(path) = &k.check {
        match preflight::<C>(path, &cfg) {
            Ok(baseline) => k.baseline = Some(baseline),
            Err(e) => {
                eprintln!("error: {e}");
                exit(2)
            }
        }
    }
    (k, cfg)
}

fn parse<C: Campaign>(args: Vec<String>) -> Result<(Kernel, C), String> {
    let spec = C::SPEC;
    let (report, resumable) = (spec.out.is_some(), spec.block.is_some());
    let mut k = Kernel {
        spec,
        jobs: Jobs::Auto,
        out: None,
        check: None,
        baseline: None,
        block: spec.block.unwrap_or(1),
        ckpt: None,
        resume: false,
        max_blocks: None,
        fingerprint: String::new(),
    };
    let mut cfg = C::default();
    let mut args = Args(args.into_iter());
    while let Some(flag) = args.0.next() {
        match flag.as_str() {
            "--jobs" => k.jobs = Jobs::parse(&args.value(&flag)?)?,
            "--out" if report => k.out = Some(args.value(&flag)?),
            "--check" if report => k.check = Some(args.value(&flag)?),
            "--block" if resumable => k.block = args.num::<u64>(&flag)?.max(1),
            "--ckpt" if resumable => k.ckpt = Some(args.value(&flag)?),
            "--resume" if resumable => k.resume = true,
            "--max-blocks" if resumable => k.max_blocks = Some(args.num(&flag)?),
            _ => {
                if !cfg.flag(&flag, &mut args)? {
                    return Err(format!("unknown flag `{flag}`"));
                }
            }
        }
    }
    cfg.settle();
    if k.out.is_some() && k.check.is_some() {
        return Err("--out and --check exclude each other".into());
    }
    if k.ckpt.is_none() && (k.resume || k.max_blocks.is_some()) {
        return Err("--resume and --max-blocks need --ckpt PATH".into());
    }
    let mut fingerprint = vec![spec.bin.to_string()];
    fingerprint.extend(
        cfg.header()
            .into_iter()
            .map(|(_, key, _, value)| format!("{key}={value}")),
    );
    fingerprint.push(cfg.unechoed());
    k.fingerprint = fingerprint.join(" ").trim_end().to_string();
    Ok((k, cfg))
}

/// The baseline's value at a dotted key path, rendered as the report
/// renders it.
fn lookup(baseline: &Json, key: &str) -> String {
    match key.split('.').try_fold(baseline, |j, k| j.get(k)) {
        Some(Json::Num(raw)) => raw.clone(),
        Some(Json::Bool(b)) => b.to_string(),
        Some(Json::Str(s)) => s.clone(),
        _ => "(missing)".to_string(),
    }
}

/// Load the `--check` baseline and compare its header with this
/// invocation's. Returns the baseline.
fn preflight<C: Campaign>(path: &str, cfg: &C) -> Result<String, String> {
    let spec = C::SPEC;
    let raw = std::fs::read_to_string(path)
        .map_err(|e| format!("--check: cannot read baseline `{path}`: {e}"))?;
    let j = json::parse(&raw).map_err(|e| format!("--check: baseline `{path}`: {e}"))?;
    let schema = lookup(&j, "schema");
    if schema != spec.schema {
        return Err(format!(
            "--check: baseline `{path}` has schema `{schema}`, not `{}`",
            spec.schema
        ));
    }
    for (what, key, _, value) in cfg.header() {
        let base = lookup(&j, key);
        if base != value {
            return Err(format!(
                "--check: baseline `{path}` was generated with {what} {base}, but this \
                 invocation requests {value};\n  \
                 comparing them would be meaningless — align the flags, or regenerate the \
                 baseline with:\n  {}",
                regen::<C>(&j, path)
            ));
        }
    }
    Ok(raw)
}

/// The command that regenerates `baseline` at `path`. A flag appears
/// exactly when the baseline's value differs from what the command would
/// produce without it. Switches (`--quick`) come first, since they move
/// the other defaults; then the first valued flag, `--jobs auto --out
/// PATH`, and the remaining flags in header order.
fn regen<C: Campaign>(baseline: &Json, path: &str) -> String {
    let keys = C::default().header();
    let switch = |i: &usize| matches!(keys[*i].3.as_str(), "true" | "false");
    let order: Vec<usize> = (0..keys.len())
        .filter(switch)
        .chain((0..keys.len()).filter(|i| !switch(i)))
        .collect();
    let mut args: Vec<String> = Vec::new();
    let mut lead = None;
    for i in order {
        let (_, key, flag, _) = &keys[i];
        let now = parse::<C>(args.clone())
            .map(|(_, c)| c.header().swap_remove(i).3)
            .unwrap_or_default();
        let want = lookup(baseline, key);
        if want != now {
            args.push((*flag).to_string());
            if !switch(&i) {
                args.push(want);
            }
        }
        if !switch(&i) && lead.is_none() {
            lead = Some(args.len());
        }
    }
    let (head, tail) = args.split_at(lead.unwrap_or(args.len()));
    format!(
        "cargo run --release -p bench --bin {} -- {}--jobs auto --out {path}{}",
        C::SPEC.bin,
        head.iter().map(|a| format!("{a} ")).collect::<String>(),
        tail.iter().map(|a| format!(" {a}")).collect::<String>()
    )
}

impl Kernel {
    /// Fold `items` items into `fresh`, `run_block` taking one block of
    /// item indices at a time, in order. Resumes from the checkpoint with
    /// `--resume`, writes it after every block with `--ckpt`, and pauses
    /// (exit 0) after `--max-blocks` blocks.
    pub fn fold<A: Checkpoint>(
        &self,
        items: u64,
        fresh: A,
        mut run_block: impl FnMut(&mut A, Range<u64>),
    ) -> A {
        let path = self.ckpt.as_deref().unwrap_or_default();
        let (mut agg, mut done) = if self.resume {
            self.load(path, items).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                exit(2)
            })
        } else {
            (fresh, 0)
        };
        let mut blocks = 0;
        while done < items {
            if self.max_blocks == Some(blocks) {
                eprintln!(
                    "pausing after {blocks} blocks ({done} of {items} items folded; \
                     checkpoint at {path})"
                );
                exit(0)
            }
            let end = items.min(done + self.block);
            run_block(&mut agg, done..end);
            done = end;
            blocks += 1;
            if self.ckpt.is_some() {
                let envelope = format!(
                    "{{\n  \"schema\": \"{CKPT_SCHEMA}\",\n  \"bin\": \"{}\",\n  \
                     \"cfg\": \"{}\",\n  \"completed\": {done},\n  \"body\": {}\n}}\n",
                    self.spec.bin,
                    escape(&self.fingerprint),
                    agg.encode()
                );
                let tmp = format!("{path}.tmp");
                if let Err(e) =
                    std::fs::write(&tmp, envelope).and_then(|()| std::fs::rename(&tmp, path))
                {
                    eprintln!("error: cannot write checkpoint `{path}`: {e}");
                    exit(1)
                }
            }
        }
        agg
    }

    /// Load and validate the checkpoint: its schema, bin and fingerprint
    /// must be this invocation's.
    fn load<A: Checkpoint>(&self, path: &str, items: u64) -> Result<(A, u64), String> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read checkpoint `{path}`: {e}"))?;
        let j = json::parse(&src).map_err(|e| format!("checkpoint `{path}`: {e}"))?;
        let schema = lookup(&j, "schema");
        if schema != CKPT_SCHEMA {
            return Err(format!(
                "checkpoint `{path}`: schema `{schema}` != `{CKPT_SCHEMA}`"
            ));
        }
        let bin = lookup(&j, "bin");
        if bin != self.spec.bin {
            return Err(format!(
                "checkpoint `{path}` belongs to `{bin}`, not `{}`",
                self.spec.bin
            ));
        }
        let cfg = lookup(&j, "cfg");
        if cfg != self.fingerprint {
            return Err(format!(
                "checkpoint `{path}` was taken under a different configuration\n  \
                 checkpoint: {cfg}\n  requested:  {}",
                self.fingerprint
            ));
        }
        let done = num(&j, "completed")?;
        if done > items {
            return Err(format!(
                "checkpoint `{path}` has {done} items folded, of {items}"
            ));
        }
        let agg = A::decode(j.get("body").ok_or("checkpoint: missing `body`")?)
            .map_err(|e| format!("checkpoint `{path}`: {e}"))?;
        eprintln!("resumed from {path}: {done} of {items} items already folded");
        Ok((agg, done))
    }

    /// Land the report: compare it with the `--check` baseline, write it to
    /// `--out`, or print it; then remove the checkpoint. Exits 1 on
    /// `findings`, drift, or a report that cannot be written.
    pub fn finish(&self, report: &str, findings: bool) -> ExitCode {
        let landed = match (&self.baseline, self.spec.out) {
            (Some(want), _) => self.compare(want, report),
            (None, Some(default)) => {
                let out = self.out.as_deref().unwrap_or(default);
                match std::fs::write(out, report) {
                    Ok(()) => {
                        println!("wrote {out}");
                        true
                    }
                    Err(e) => {
                        eprintln!("error: cannot write `{out}`: {e}");
                        return ExitCode::from(1);
                    }
                }
            }
            (None, None) => {
                print!("{report}");
                true
            }
        };
        if let Some(path) = &self.ckpt {
            if let Err(e) = std::fs::remove_file(path) {
                if e.kind() != std::io::ErrorKind::NotFound {
                    eprintln!("warning: cannot remove checkpoint `{path}`: {e}");
                }
            }
        }
        if landed && !findings {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        }
    }

    /// Compare `report` with the baseline; on drift print the first
    /// differing line pairs.
    fn compare(&self, want: &str, report: &str) -> bool {
        let path = self.check.as_deref().unwrap_or_default();
        if report == want {
            println!("check: report matches {path}");
            return true;
        }
        eprintln!(
            "error: regenerated report differs from baseline `{path}` ({} vs {} bytes)",
            report.len(),
            want.len()
        );
        for (b, c) in want
            .lines()
            .zip(report.lines())
            .filter(|(b, c)| b != c)
            .take(8)
        {
            eprintln!("  baseline: {b}");
            eprintln!("  current:  {c}");
        }
        false
    }
}

/// Exit with `code`, stdout flushed.
fn exit(code: i32) -> ! {
    let _ = std::io::stdout().flush();
    std::process::exit(code)
}

// --- Checkpoint body codecs ---------------------------------------------

/// A map as a one-line JSON object, in key order.
pub fn map_json<K: Display, V: Display>(map: &BTreeMap<K, V>) -> String {
    let members: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("\"{}\": {v}", escape(&k.to_string())))
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// Strings as a one-line JSON array.
pub fn strings_json<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> String {
    let items: Vec<String> = items
        .into_iter()
        .map(|s| format!("\"{}\"", escape(s.as_ref())))
        .collect();
    format!("[{}]", items.join(", "))
}

/// Member `key` as an unsigned integer.
///
/// # Errors
/// When it is missing or not one.
pub fn num(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing `{key}`"))
}

/// Member `key` as an array of strings.
///
/// # Errors
/// When it is missing or holds a non-string.
pub fn strings(j: &Json, key: &str) -> Result<Vec<String>, String> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing `{key}`"))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}`: not a string"))
        })
        .collect()
}

/// Member `key`, an object of unsigned integers, with its keys interned.
///
/// # Errors
/// When it is missing, holds a non-integer or a key `intern` rejects.
pub fn interned_map(
    j: &Json,
    key: &str,
    intern: impl Fn(&str) -> Option<&'static str>,
) -> Result<BTreeMap<&'static str, u64>, String> {
    j.get(key)
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("missing `{key}`"))?
        .iter()
        .map(|(k, v)| {
            let name = intern(k).ok_or_else(|| format!("`{key}`: unknown key `{k}`"))?;
            let n = v
                .as_u64()
                .ok_or_else(|| format!("`{key}.{k}`: not a u64"))?;
            Ok((name, n))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;

    #[derive(Default)]
    struct Toy {
        n: u64,
        quick: bool,
    }

    impl Campaign for Toy {
        const SPEC: Spec = Spec {
            bin: "toy",
            usage: "[--n N] [--quick]",
            out: Some("TOY.json"),
            schema: "toy/1",
            block: Some(2),
        };

        fn flag(&mut self, flag: &str, args: &mut Args) -> Result<bool, String> {
            match flag {
                "--n" => self.n = args.num(flag)?,
                "--quick" => self.quick = true,
                _ => return Ok(false),
            }
            Ok(true)
        }

        fn settle(&mut self) {
            if self.quick && self.n == 0 {
                self.n = 3;
            }
        }

        fn header(&self) -> Vec<Echo> {
            vec![
                ("n", "n", "--n", self.n.to_string()),
                ("quick", "quick", "--quick", self.quick.to_string()),
            ]
        }
    }

    /// Toy's aggregate: the items folded, in order.
    #[derive(Debug, Default, PartialEq)]
    struct Seen(Vec<u64>);

    impl Checkpoint for Seen {
        fn encode(&self) -> String {
            format!(
                "{{\"seen\": {}}}",
                strings_json(self.0.iter().map(u64::to_string))
            )
        }

        fn decode(body: &Json) -> Result<Seen, String> {
            strings(body, "seen")?
                .iter()
                .map(|s| s.parse().map_err(|e| format!("`seen`: {e}")))
                .collect::<Result<_, _>>()
                .map(Seen)
        }
    }

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn shared_and_own_flags_parse_and_bad_ones_are_rejected() {
        let (k, toy) =
            parse::<Toy>(args(&["--n", "5", "--jobs", "2", "--block", "0"])).expect("parses");
        assert_eq!((toy.n, k.block), (5, 1));
        assert_eq!(k.fingerprint, "toy n=5 quick=false");
        assert!(parse::<Toy>(args(&["--bogus"])).is_err());
        assert!(parse::<Toy>(args(&["--n", "x"])).is_err());
        assert!(parse::<Toy>(args(&["--max-blocks", "1"])).is_err());
        assert!(parse::<Toy>(args(&["--out", "a", "--check", "b"])).is_err());
    }

    #[test]
    fn regen_names_exactly_the_flags_the_baseline_needs() {
        let quick_default = json::parse("{\"n\": 3, \"quick\": true}").expect("json");
        assert_eq!(
            regen::<Toy>(&quick_default, "B"),
            "cargo run --release -p bench --bin toy -- --quick --jobs auto --out B"
        );
        let both = json::parse("{\"n\": 7, \"quick\": true}").expect("json");
        assert_eq!(
            regen::<Toy>(&both, "B"),
            "cargo run --release -p bench --bin toy -- --quick --n 7 --jobs auto --out B"
        );
    }

    #[test]
    fn checkpoint_loads_back_only_under_its_own_bin_and_flags() {
        let dir = std::env::temp_dir().join(format!("campaign-ckpt-unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create dir");
        let path = dir.join("toy.ckpt").to_string_lossy().into_owned();
        let at = |flags: &[&str]| {
            parse::<Toy>(args(&[flags, &["--ckpt", path.as_str()]].concat()))
                .expect("parses")
                .0
        };

        // Two items are one block (Toy's `block` is 2): the fold writes one
        // checkpoint, which stays until `finish` removes it.
        let k = at(&["--n", "5"]);
        let seen = k.fold(2, Seen::default(), |s, block| s.0.extend(block));
        assert_eq!(seen, Seen(vec![0, 1]));
        assert!(!Path::new(&format!("{path}.tmp")).exists());

        let same = at(&["--n", "5", "--jobs", "1", "--resume"]);
        assert_eq!(same.load::<Seen>(&path, 4), Ok((seen, 2)));
        let err = |k: &Kernel, items| k.load::<Seen>(&path, items).expect_err("rejected");
        assert!(err(&at(&["--n", "6"]), 4).contains("different configuration"));
        assert!(err(&same, 1).contains("2 items folded, of 1"));
        let mut foreign = at(&["--n", "5"]);
        foreign.spec.bin = "other";
        assert!(err(&foreign, 4).contains("belongs to `toy`"));

        std::fs::remove_file(&path).expect("remove checkpoint");
        assert!(err(&same, 4).contains("cannot read checkpoint"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn codecs_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("lts.runs", u64::MAX - 1);
        m.insert("mem.allocs", 0);
        let body = format!(
            "{{\"m\": {}, \"s\": {}}}",
            map_json(&m),
            strings_json(["a\"b", "c\nd"])
        );
        let j = json::parse(&body).expect("parses");
        let intern = |k: &str| ["lts.runs", "mem.allocs"].into_iter().find(|x| *x == k);
        assert_eq!(interned_map(&j, "m", intern).expect("map"), m);
        assert_eq!(strings(&j, "s").expect("strings"), ["a\"b", "c\nd"]);
        assert!(interned_map(&j, "m", |_| None).is_err());
    }
}
