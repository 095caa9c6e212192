//! A custom hot-path lint for `crates/core/src` and `crates/legacy/src`.
//!
//! Cargo's clippy wall is generic; these rules are ours. The lint is a
//! token-level scanner (no `syn`, the workspace builds offline) that
//! walks the non-test portion of each core source file with comments
//! and string literals stripped — line structure preserved so every
//! diagnostic lands on a real `file:line`.
//!
//! Rules:
//!
//! * **forbidden-panic** — in hot-path modules ([`HOT_FILES`]), no
//!   `.unwrap()`, `.expect(`, `panic!(`, `unreachable!(`, `todo!(` or
//!   `unimplemented!(`. The parser and query/serve paths face
//!   adversarial bytes; every failure must flow through `Error`.
//! * **unjustified-index** — in hot-path modules, `x[...]` indexing is
//!   only allowed when a `bounds:` comment on the same line or one of
//!   the three preceding lines states why the index is in range.
//! * **lock-across-cache-insert** — outside `cache.rs`, no live lock
//!   guard may be in scope at a call into the decode-cache memoizers
//!   (`*_or_decode`, `when_miss_hit`, `note_when_miss`). The cache
//!   takes its own shard locks; holding a store lock across that is a
//!   lock-order hazard.
//! * **cache-key-epoch** — every `Key { .. }` literal in `cache.rs`
//!   must carry an `epoch` and a `partition` field, so no cache entry can
//!   ever outlive the snapshot generation that minted it, and no
//!   partition of a store can read another's entry through the store's
//!   one cache.
//!
//! Findings can be waived through a checked-in allowlist file (one
//! justified entry per line — see [`Allowlist`]); entries that no
//! longer match anything are themselves errors, so the list can only
//! shrink honestly.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Files of `crates/core/src` whose non-test code faces adversarial
/// input or sits on the query hot path; `forbidden-panic` and
/// `unjustified-index` apply. Every file of `crates/legacy/src` is hot
/// too: it parses the bytes of older files ([`TREES`]).
pub const HOT_FILES: &[&str] = &[
    "storage.rs",
    "wire.rs",
    "query.rs",
    "serve.rs",
    "poll.rs",
    "conn.rs",
    "snapshot.rs",
    "shard.rs",
    "store.rs",
    "live.rs",
    "wal.rs",
    "chunk.rs",
    "segment.rs",
    "stiu.rs",
];

const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

const CACHE_CALLS: &[&str] = &[
    ".ref_or_decode(",
    ".instance_or_decode(",
    ".window_or_decode(",
    ".times_or_decode(",
    ".when_miss_hit(",
    ".note_when_miss(",
    ".range_result(",
    ".note_range_result(",
];

/// One lint finding, pointing at a real source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// File name relative to the scanned directory (e.g. `wire.rs`).
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule name (used by allowlist entries).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed allowlist: one entry per non-comment line, formatted as
///
/// ```text
/// rule-name  file.rs  code-substring  -- justification
/// ```
///
/// A diagnostic is waived when its rule and file match and the
/// diagnosed line of code contains the substring. Every entry must
/// both match at least one diagnostic and carry a justification.
pub struct Allowlist {
    entries: Vec<AllowEntry>,
}

struct AllowEntry {
    rule: String,
    file: String,
    needle: String,
    line_no: usize,
    used: std::cell::Cell<bool>,
}

impl Allowlist {
    /// Parses the allowlist file; a missing file is an empty list.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        Self::parse(&text)
    }

    /// Parses allowlist text (see type-level docs for the format).
    pub fn parse(text: &str) -> io::Result<Self> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (spec, _justification) = match line.split_once("--") {
                Some((s, j)) if !j.trim().is_empty() => (s, j),
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("allowlist line {}: missing `-- justification`", i + 1),
                    ))
                }
            };
            let mut parts = spec.split_whitespace();
            match (parts.next(), parts.next(), parts.next()) {
                (Some(rule), Some(file), Some(first)) => {
                    // The needle may contain spaces; rejoin the tail.
                    let mut needle = first.to_string();
                    for p in parts {
                        needle.push(' ');
                        needle.push_str(p);
                    }
                    entries.push(AllowEntry {
                        rule: rule.to_string(),
                        file: file.to_string(),
                        needle,
                        line_no: i + 1,
                        used: std::cell::Cell::new(false),
                    });
                }
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "allowlist line {}: expected `rule file substring -- why`",
                            i + 1
                        ),
                    ))
                }
            }
        }
        Ok(Self { entries })
    }

    fn waives(&self, d: &Diag, code_line: &str) -> bool {
        for e in &self.entries {
            if e.rule == d.rule && e.file == d.file && code_line.contains(&e.needle) {
                e.used.set(true);
                return true;
            }
        }
        false
    }

    fn unused(&self) -> Vec<&AllowEntry> {
        self.entries.iter().filter(|e| !e.used.get()).collect()
    }
}

/// One source line split into the code part and the comment part,
/// with string/char literal contents blanked out of the code part.
struct ScrubbedLine {
    code: String,
    comment: String,
}

/// Strips comments and string literals while preserving line
/// structure. Stops at the first `#[cfg(test)]` — everything after it
/// is test scaffolding where panics are the assertion mechanism.
fn scrub(source: &str) -> Vec<ScrubbedLine> {
    #[derive(PartialEq)]
    enum St {
        Code,
        Block(usize), // nesting depth of /* */
        Str,
        RawStr(usize), // number of # in the delimiter
        Char,
    }
    let mut st = St::Code;
    let mut out = Vec::new();
    for raw in source.lines() {
        if st == St::Code && raw.trim_start().starts_with("#[cfg(test)]") {
            break;
        }
        let b = raw.as_bytes();
        let mut code = String::with_capacity(raw.len());
        let mut comment = String::new();
        let mut i = 0;
        while i < b.len() {
            match st {
                St::Code => {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'/') {
                        comment.push_str(&raw[i..]);
                        break;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        st = St::Block(1);
                        i += 2;
                    } else if b[i] == b'"' {
                        st = St::Str;
                        code.push('"');
                        i += 1;
                    } else if b[i] == b'r'
                        && matches!(b.get(i + 1), Some(b'"' | b'#'))
                        && !matches!(i.checked_sub(1).map(|p| b[p]), Some(c) if c.is_ascii_alphanumeric() || c == b'_')
                    {
                        let mut hashes = 0;
                        let mut j = i + 1;
                        while b.get(j) == Some(&b'#') {
                            hashes += 1;
                            j += 1;
                        }
                        if b.get(j) == Some(&b'"') {
                            st = St::RawStr(hashes);
                            code.push('"');
                            i = j + 1;
                        } else {
                            code.push(b[i] as char);
                            i += 1;
                        }
                    } else if b[i] == b'\''
                        && !matches!(i.checked_sub(1).map(|p| b[p]), Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b'>')
                    {
                        // A quote not preceded by an identifier/`>` opens a
                        // char literal *unless* it is a lifetime (`'a`,
                        // `'static`): lifetimes are letters followed by a
                        // non-quote.
                        let is_lifetime = matches!(b.get(i + 1), Some(c) if c.is_ascii_alphabetic() || *c == b'_')
                            && b.get(i + 2) != Some(&b'\'');
                        if is_lifetime {
                            code.push('\'');
                            i += 1;
                        } else {
                            st = St::Char;
                            code.push('\'');
                            i += 1;
                        }
                    } else {
                        code.push(b[i] as char);
                        i += 1;
                    }
                }
                St::Block(depth) => {
                    if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        st = if depth == 1 {
                            St::Code
                        } else {
                            St::Block(depth - 1)
                        };
                        i += 2;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        st = St::Block(depth + 1);
                        i += 2;
                    } else {
                        comment.push(b[i] as char);
                        i += 1;
                    }
                }
                St::Str => {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == b'"' {
                        st = St::Code;
                        code.push('"');
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                St::RawStr(hashes) => {
                    if b[i] == b'"'
                        && b[i + 1..].iter().take_while(|&&c| c == b'#').count() >= hashes
                    {
                        st = St::Code;
                        code.push('"');
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                }
                St::Char => {
                    if b[i] == b'\\' {
                        i += 2;
                    } else if b[i] == b'\'' {
                        st = St::Code;
                        code.push('\'');
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        out.push(ScrubbedLine { code, comment });
    }
    out
}

/// Is `code[at]` an indexing bracket? True when the previous
/// non-space character can end an indexable expression.
fn is_index_bracket(code: &str, at: usize) -> bool {
    let prev = code[..at].bytes().next_back();
    matches!(prev, Some(c) if c.is_ascii_alphanumeric() || c == b'_' || c == b')' || c == b']')
}

/// Lints one file, `name` as diagnostics and the allowlist name it;
/// `hot` says whether the hot-path rules apply.
fn lint_file(
    name: &str,
    hot: bool,
    source: &str,
    diags: &mut Vec<Diag>,
    lines_out: &mut Vec<String>,
) {
    let scrubbed = scrub(source);
    let is_cache = name == "cache.rs";

    // Live lock guards for the lock-across-cache-insert rule:
    // (identifier, brace depth at binding).
    let mut depth: i32 = 0;
    let mut guards: Vec<(String, i32)> = Vec::new();

    for (idx, line) in scrubbed.iter().enumerate() {
        let lno = idx + 1;
        let code = &line.code;
        lines_out.push(code.clone());

        if hot {
            for tok in PANIC_TOKENS {
                if code.contains(tok) {
                    diags.push(Diag {
                        file: name.to_string(),
                        line: lno,
                        rule: "forbidden-panic",
                        message: format!("`{tok}` in a hot-path module; return an `Error` instead"),
                    });
                }
            }
            let justified =
                (idx.saturating_sub(3)..=idx).any(|k| scrubbed[k].comment.contains("bounds:"));
            for (at, _) in code.match_indices('[') {
                if is_index_bracket(code, at) && !justified {
                    diags.push(Diag {
                        file: name.to_string(),
                        line: lno,
                        rule: "unjustified-index",
                        message: "indexing without a `bounds:` comment; \
                                  use `.get()` or justify the bound"
                            .to_string(),
                    });
                    break; // one diagnostic per line is enough
                }
            }
        }

        // Lock-guard tracking (all files except cache.rs, which owns
        // its own sharded locks by design).
        if !is_cache {
            if let Some(g) = guard_binding(code) {
                guards.push((g, depth));
            }
            for (at, _) in code.match_indices("drop(") {
                let inner = &code[at + 5..];
                if let Some(end) = inner.find(')') {
                    let name_dropped = inner[..end].trim();
                    guards.retain(|(g, _)| g != name_dropped);
                }
            }
            for call in CACHE_CALLS {
                if code.contains(call) {
                    if let Some((g, _)) = guards.first() {
                        diags.push(Diag {
                            file: name.to_string(),
                            line: lno,
                            rule: "lock-across-cache-insert",
                            message: format!(
                                "decode-cache call while lock guard `{g}` is live; \
                                 drop the guard first"
                            ),
                        });
                    }
                }
            }
        }

        // cache-key-epoch: every `Key {` literal must name `epoch` and
        // `partition` before its matching closing brace (a nested
        // `Kind::Ref { .. }` does not end it). Key literals in this
        // codebase are short; scan forward a bounded window.
        if is_cache {
            for (at, _) in code.match_indices("Key {") {
                let mut literal = String::new();
                let mut depth = 0usize;
                let lines = std::iter::once(&code[at..])
                    .chain(scrubbed.iter().skip(idx + 1).map(|l| l.code.as_str()));
                'scan: for text in lines.take(12) {
                    for ch in text.chars() {
                        literal.push(ch);
                        match ch {
                            '{' => depth += 1,
                            '}' if depth <= 1 => break 'scan,
                            '}' => depth -= 1,
                            _ => {}
                        }
                    }
                    literal.push('\n');
                }
                let missing: Vec<&str> = ["epoch", "partition"]
                    .into_iter()
                    .filter(|field| !literal.contains(field))
                    .collect();
                if !missing.is_empty() {
                    diags.push(Diag {
                        file: name.to_string(),
                        line: lno,
                        rule: "cache-key-epoch",
                        message: format!(
                            "`Key {{ .. }}` without {}: cache entries must be keyed to \
                             a snapshot generation and to a partition of the store",
                            missing.join(" and ")
                        ),
                    });
                }
            }
        }

        for ch in code.chars() {
            match ch {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    guards.retain(|&(_, d)| d <= depth);
                }
                _ => {}
            }
        }
    }
}

/// Recognizes `let [mut] name = ....lock()/read()/write()` bindings.
/// Temporaries (`x.lock().y` without a binding) die within their own
/// statement and are not tracked.
fn guard_binding(code: &str) -> Option<String> {
    let t = code.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let (name, tail) = rest.split_once('=')?;
    let name = name.trim();
    if !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') || name.is_empty() {
        return None;
    }
    let locks = [".lock()", ".read()", ".write()", ".lock();", "_lock()"];
    if locks.iter().any(|l| tail.contains(l)) {
        Some(name.to_string())
    } else {
        None
    }
}

/// Report of one lint run.
pub struct LintReport {
    /// Diagnostics that survived the allowlist.
    pub diags: Vec<Diag>,
    /// Allowlist entries that waived nothing (themselves errors).
    pub unused_allows: Vec<String>,
    /// Files scanned.
    pub files: Vec<String>,
    /// How many of them the hot-path rules applied to.
    pub hot: usize,
}

impl LintReport {
    /// True when the codebase is clean under the given allowlist.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty() && self.unused_allows.is_empty()
    }
}

/// The source trees the lint walks, relative to the repository root:
/// the directory, the prefix its files are named with (in diagnostics
/// and the allowlist), and whether every file of it is hot (else those
/// of [`HOT_FILES`]).
pub const TREES: &[(&str, &str, bool)] = &[
    ("crates/core/src", "", false),
    ("crates/legacy/src", "legacy/", true),
];

/// Runs every rule over the [`TREES`] under `root`, waiving findings
/// through the allowlist at `allow_path`.
pub fn run(root: &Path, allow_path: &Path) -> io::Result<LintReport> {
    let allow = Allowlist::load(allow_path)?;
    let mut diags = Vec::new();
    let (mut files, mut hot) = (Vec::new(), 0);
    for &(dir, prefix, all_hot) in TREES {
        let src_dir = root.join(dir);
        let mut names: Vec<PathBuf> = fs::read_dir(&src_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        names.sort();
        if names.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no .rs files under {}", src_dir.display()),
            ));
        }
        for path in &names {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default();
            let is_hot = all_hot || HOT_FILES.contains(&name);
            let name = format!("{prefix}{name}");
            let source = fs::read_to_string(path)?;
            let mut file_diags = Vec::new();
            let mut code_lines = Vec::new();
            lint_file(&name, is_hot, &source, &mut file_diags, &mut code_lines);
            for d in file_diags {
                let line_code = code_lines.get(d.line - 1).map(String::as_str).unwrap_or("");
                if !allow.waives(&d, line_code) {
                    diags.push(d);
                }
            }
            files.push(name);
            hot += usize::from(is_hot);
        }
    }

    let unused_allows = allow
        .unused()
        .iter()
        .map(|e| {
            format!(
                "allowlist line {}: `{} {} {}` waives nothing — remove it",
                e.line_no, e.rule, e.file, e.needle
            )
        })
        .collect();

    Ok(LintReport {
        diags,
        unused_allows,
        files,
        hot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diags_for(name: &str, src: &str) -> Vec<Diag> {
        let mut d = Vec::new();
        let mut lines = Vec::new();
        lint_file(name, HOT_FILES.contains(&name), src, &mut d, &mut lines);
        d
    }

    #[test]
    fn flags_unwrap_in_hot_file() {
        let d = diags_for("wire.rs", "fn f() { x.unwrap(); }\n");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "forbidden-panic");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn ignores_unwrap_or_variants_and_cold_files() {
        assert!(diags_for("wire.rs", "let v = x.unwrap_or(0);\n").is_empty());
        assert!(diags_for("pivot.rs", "x.unwrap();\n").is_empty());
    }

    #[test]
    fn ignores_tokens_in_strings_comments_and_tests() {
        let src = "// x.unwrap()\nlet s = \".unwrap()\";\n#[cfg(test)]\nfn t() { x.unwrap(); }\n";
        assert!(diags_for("wire.rs", src).is_empty());
    }

    #[test]
    fn index_requires_bounds_comment() {
        assert_eq!(diags_for("query.rs", "let v = xs[i];\n").len(), 1);
        assert!(diags_for("query.rs", "let v = xs[i]; // bounds: i < n\n").is_empty());
        assert!(diags_for(
            "query.rs",
            "// bounds: i < n by loop guard\nlet v = xs[i];\n"
        )
        .is_empty());
        // Attributes and slice types are not indexing.
        assert!(diags_for("query.rs", "#[derive(Debug)]\nfn f(x: &[u8]) {}\n").is_empty());
    }

    #[test]
    fn lock_across_cache_insert() {
        let src = "fn f() {\n    let g = self.writer.lock();\n    cache.ref_or_decode(k);\n}\n";
        let d = diags_for("store.rs", src);
        assert!(
            d.iter().any(|d| d.rule == "lock-across-cache-insert"),
            "{d:?}"
        );
        // Dropping the guard first is fine.
        let src = "fn f() {\n    let g = self.writer.lock();\n    drop(g);\n    cache.ref_or_decode(k);\n}\n";
        assert!(diags_for("store.rs", src)
            .iter()
            .all(|d| d.rule != "lock-across-cache-insert"));
        // Guard scope ends at the closing brace.
        let src = "fn f() {\n    {\n        let g = self.writer.lock();\n    }\n    cache.ref_or_decode(k);\n}\n";
        assert!(diags_for("store.rs", src)
            .iter()
            .all(|d| d.rule != "lock-across-cache-insert"));
    }

    #[test]
    fn cache_key_literals_need_epoch() {
        let bad = "fn f() { let k = Key { partition, kind: Kind::Ref(j) }; }\n";
        assert!(diags_for("cache.rs", bad)
            .iter()
            .any(|d| d.rule == "cache-key-epoch"));
        let good = "fn f() { let k = Key { epoch, partition, kind: Kind::Ref(j) }; }\n";
        assert!(diags_for("cache.rs", good).is_empty());
        let multiline =
            "let k = Key {\n    epoch: e,\n    partition: p,\n    kind: Kind::Ref(j),\n};\n";
        assert!(diags_for("cache.rs", multiline).is_empty());
    }

    #[test]
    fn cache_key_literals_need_partition() {
        let bad = "fn f() { let k = Key { epoch, kind: Kind::Ref(j) }; }\n";
        let d = diags_for("cache.rs", bad);
        assert!(
            d.iter()
                .any(|d| d.rule == "cache-key-epoch" && d.message.contains("partition")),
            "{d:?}"
        );
        // A field after a nested literal's closing brace still counts.
        let nested = "let k = Key {\n    epoch,\n    kind: Kind::Ref { traj, ref_idx },\n    partition,\n};\n";
        assert!(diags_for("cache.rs", nested).is_empty());
        // A later literal's fields do not cover an earlier one's.
        let split = "let a = Key { epoch, kind };\nlet b = Key { epoch, partition, kind };\n";
        let d = diags_for("cache.rs", split);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn allowlist_waives_and_reports_unused() {
        let allow =
            Allowlist::parse("forbidden-panic wire.rs x.unwrap() -- invariant: x is checked\n")
                .unwrap();
        let d = Diag {
            file: "wire.rs".into(),
            line: 1,
            rule: "forbidden-panic",
            message: String::new(),
        };
        assert!(allow.waives(&d, "fn f() { x.unwrap(); }"));
        assert!(allow.unused().is_empty());

        let stale = Allowlist::parse("forbidden-panic wire.rs y.unwrap() -- gone\n").unwrap();
        assert!(!stale.waives(&d, "fn f() { x.unwrap(); }"));
        assert_eq!(stale.unused().len(), 1);
    }

    #[test]
    fn allowlist_rejects_missing_justification() {
        assert!(Allowlist::parse("forbidden-panic wire.rs x.unwrap()\n").is_err());
    }

    #[test]
    fn real_core_sources_are_clean() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let allow = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("lint.allow");
        let report = run(&root, &allow).unwrap();
        for d in &report.diags {
            eprintln!("{d}");
        }
        for u in &report.unused_allows {
            eprintln!("{u}");
        }
        assert!(report.is_clean());
        assert!(report.files.iter().any(|f| f == "wire.rs"));
        // Every file of the legacy readers is hot.
        let legacy = report.files.iter().filter(|f| f.starts_with("legacy/"));
        assert!(legacy.count() >= 3);
        let core_hot = report
            .files
            .iter()
            .filter(|f| HOT_FILES.contains(&f.as_str()));
        assert_eq!(report.hot, core_hot.count() + 3);
    }
}
