//! Rule passes over the token stream.
//!
//! Every per-file rule is a determinism or panic-safety contract from ROADMAP /
//! docs/chaos.md: seeded fault campaigns replay only while nothing in a
//! replay-affecting path consults wall-clock time, ambient randomness, or
//! unordered map iteration, and a panic in fallible library code takes out
//! a whole simulated controller blade instead of failing one request.
//! `dead-pub` is the one cross-file rule: a `pub fn` nothing but tests
//! calls is surface to delete, not to maintain. Its callers come from the
//! compiler, which resolves every path and method call: [`mark_pub_fns`]
//! deprecates each definition in a copy of the tree, and the warnings a
//! non-test build of that copy prints name each call site.
//!
//! | rule                  | scope                                   |
//! |-----------------------|-----------------------------------------|
//! | `panic-path`          | library code of the typed-error crates  |
//! | `wall-clock`          | everywhere except designated binaries   |
//! | `ambient-entropy`     | all simulation crates                   |
//! | `unordered-iteration` | replay-affecting crates                 |
//! | `dead-pub`            | library code of every crate             |
//! | `allow-syntax`        | everywhere (marker hygiene)             |
//!
//! Suppression is per line: `// lint: allow(rule)` next to the finding (or
//! on an adjacent comment-only line directly above it). Unscoped or
//! unknown-rule markers are themselves findings, so stale suppressions
//! cannot accumulate silently.

use crate::lexer::{lex, LexOutput, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose library code must fail with typed errors, never panics.
pub const PANIC_CRATES: &[&str] = &[
    "cache", "virt", "simcore", "qos", "chaos", "scrub", "security", "heal", "core", "simnet", "simdisk", "proto",
    "raid", "geo", "pfs",
];

/// Crates whose state feeds seeded replay: iterating a hashed container
/// there lets the process-random hasher seed reorder events between runs.
pub const REPLAY_CRATES: &[&str] =
    &["cache", "chaos", "core", "geo", "heal", "qos", "raid", "scrub", "security", "simcore"];

/// Tooling crates allowed to touch ambient entropy (thread pools, etc.).
pub const ENTROPY_EXEMPT_CRATES: &[&str] = &["check", "lint", "sweep", "xtask"];

/// The only files allowed to read the wall clock: binary entry points that
/// inject elapsed-time closures into otherwise clock-free libraries.
pub const WALL_CLOCK_EXEMPT: &[&str] = &["crates/bench/src/bin/report.rs", "crates/check/src/main.rs"];

/// All suppressible rule names, in catalog order.
pub const RULES: &[&str] =
    &["panic-path", "wall-clock", "ambient-entropy", "unordered-iteration", "dead-pub"];

/// Marker hygiene diagnostics; not suppressible by design.
pub const ALLOW_SYNTAX: &str = "allow-syntax";

/// One diagnostic.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct Finding {
    /// Repo-relative path, `/`-separated.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule identifier from [`RULES`] or [`ALLOW_SYNTAX`].
    pub rule: &'static str,
    pub message: String,
    /// The trimmed source line, for human output.
    pub snippet: String,
}

fn crate_of(rel: &str) -> &str {
    rel.strip_prefix("crates/").and_then(|r| r.split('/').next()).unwrap_or("")
}

fn in_scope(rel: &str, crates: &[&str]) -> bool {
    crates.contains(&crate_of(rel))
}

/// Resolve a file's allow markers to the lines they guard (a marker on a
/// comment-only line guards the next code line), reporting malformed ones
/// through `push`.
fn allowed_lines(
    out: &LexOutput,
    push: &mut impl FnMut(u32, &'static str, String),
) -> BTreeMap<u32, BTreeSet<String>> {
    let code_lines: BTreeSet<u32> = out.tokens.iter().map(|t| t.line).collect();
    let mut allowed: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for marker in &out.allows {
        if marker.rules.is_empty() {
            push(
                marker.line,
                ALLOW_SYNTAX,
                "unscoped `lint: allow` marker: name the rule, e.g. \
                 `// lint: allow(panic-path) — why it is safe`"
                    .to_string(),
            );
            continue;
        }
        for r in &marker.rules {
            if !RULES.contains(&r.as_str()) {
                push(marker.line, ALLOW_SYNTAX, format!("unknown rule `{r}` in allow marker"));
            }
        }
        let effective = if code_lines.contains(&marker.line) {
            marker.line
        } else {
            match code_lines.range(marker.line + 1..).next() {
                Some(&l) => l,
                None => continue,
            }
        };
        allowed.entry(effective).or_default().extend(marker.rules.iter().cloned());
    }
    allowed
}

/// Run the per-file rules over one lexed file, add the cross-file findings
/// `extra` (line, rule, message), and filter all of them through the
/// file's allow markers.
fn check_file(
    rel: &str,
    src: &str,
    out: &LexOutput,
    skip: &[bool],
    extra: Vec<(u32, &'static str, String)>,
) -> Vec<Finding> {
    let toks = &out.tokens;
    // Indices of tokens outside #[cfg(test)] / #[test] items.
    let live: Vec<usize> = (0..toks.len()).filter(|&i| !skip[i]).collect();
    let lines: Vec<&str> = src.lines().collect();
    let snippet = |line: u32| -> String {
        lines.get(line as usize - 1).map(|l| l.trim().to_string()).unwrap_or_default()
    };

    let mut findings: Vec<Finding> = Vec::new();
    let mut push = |line: u32, rule: &'static str, message: String| {
        findings.push(Finding {
            file: rel.to_string(),
            line,
            rule,
            message,
            snippet: snippet(line),
        });
    };

    let allowed = allowed_lines(out, &mut push);
    if in_scope(rel, PANIC_CRATES) {
        panic_path(toks, &live, &mut push);
    }
    if !WALL_CLOCK_EXEMPT.contains(&rel) {
        wall_clock(toks, &live, &mut push);
    }
    if !in_scope(rel, ENTROPY_EXEMPT_CRATES) {
        ambient_entropy(toks, &live, &mut push);
    }
    if in_scope(rel, REPLAY_CRATES) {
        unordered_iteration(toks, &live, &mut push);
    }
    for (line, rule, message) in extra {
        push(line, rule, message);
    }

    findings.retain(|f| {
        f.rule == ALLOW_SYNTAX
            || !allowed.get(&f.line).is_some_and(|rules| rules.contains(f.rule))
    });
    findings.sort();
    findings.dedup();
    findings
}

/// Analyze a set of files: every per-file rule on each `crates/` file, and
/// `dead-pub` from `warnings`, the compiler's output for the tree
/// [`mark_pub_fns`] marked. `benchmark/src` files are read as callers only;
/// no rule reports in them. A call from outside `crates/` and
/// `benchmark/src` (a root example, say) keeps nothing alive.
pub fn analyze_files(files: &[(&str, &str)], warnings: &str) -> Vec<Finding> {
    let lexed: Vec<(LexOutput, Vec<bool>)> = files
        .iter()
        .map(|&(_, src)| {
            let out = lex(src);
            let skip = test_regions(&out.tokens);
            (out, skip)
        })
        .collect();
    let called = cross_file_calls(files, &lexed, warnings);
    let mut findings = Vec::new();
    for (&(rel, src), (out, skip)) in files.iter().zip(&lexed) {
        if !rel.starts_with("crates/") {
            continue;
        }
        // `dead-pub`: a bare `pub fn` that no file but its own calls.
        let dead = if is_library(rel) { pub_fns(out, skip) } else { Vec::new() }
            .into_iter()
            .filter(|&(tok, _)| !called.contains(&(rel, tok.line)))
            .map(|(tok, name)| {
                let msg = format!("pub fn {name} is named by no other file outside test code: delete it, or narrow it");
                (tok.line, "dead-pub", msg)
            })
            .collect();
        findings.extend(check_file(rel, src, out, skip, dead));
    }
    findings.sort();
    findings
}

/// Library code, whose bare `pub fn`s need a caller: `crates/*/src`
/// without binaries.
fn is_library(rel: &str) -> bool {
    rel.starts_with("crates/") && rel.contains("/src/") && !rel.contains("/src/bin/") && !rel.ends_with("/main.rs")
}

/// The `pub` token and name of each bare `pub fn` outside test code: `pub
/// fn`, `pub const fn`, `pub unsafe fn`, … but not `pub(crate) fn`.
fn pub_fns<'a>(out: &'a LexOutput, skip: &[bool]) -> Vec<(&'a Tok, &'a str)> {
    let live: Vec<&Tok> = out.tokens.iter().zip(skip).filter(|(_, &s)| !s).map(|(t, _)| t).collect();
    let qualifier = |q: &&&Tok| ["const", "async", "unsafe"].iter().any(|&w| q.is_ident(w));
    let mut defs = Vec::new();
    for (k, &t) in live.iter().enumerate().filter(|(_, t)| t.is_ident("pub")) {
        let mut rest = live[k + 1..].iter().skip_while(qualifier);
        if let (Some(f), Some(name)) = (rest.next(), rest.next()) {
            if f.is_ident("fn") && name.kind == TokKind::Ident {
                defs.push((t, name.text.as_str()));
            }
        }
    }
    defs
}

/// What a marked definition's deprecation note starts with; the rest is
/// its `file:line`, so every warning names the definition it resolved to.
const DEF_NOTE: &str = "dead-pub ";

/// Where a call site counts for `dead-pub`: the crates, and the benchmark
/// that builds against their public surface.
const CALLER_TREES: &[&str] = &["crates/", "benchmark/src/"];

/// `src` with `#[deprecated(note = "dead-pub <rel>:<line>")]` inserted
/// before each bare `pub fn` that `dead-pub` judges and no marker keeps,
/// on the `pub`'s own line so that no line number moves. `None` when
/// `rel` is not library code or has nothing to mark.
pub fn mark_pub_fns(rel: &str, src: &str) -> Option<String> {
    if !is_library(rel) {
        return None;
    }
    let out = lex(src);
    let skip = test_regions(&out.tokens);
    let allowed = allowed_lines(&out, &mut |_, _, _| {});
    let defs: Vec<&Tok> = pub_fns(&out, &skip)
        .into_iter()
        .map(|(tok, _)| tok)
        .filter(|tok| !allowed.get(&tok.line).is_some_and(|rules| rules.contains("dead-pub")))
        .collect();
    if defs.is_empty() {
        return None;
    }
    let mut lines: Vec<String> = src.split('\n').map(str::to_string).collect();
    // Right to left, so an insertion never shifts a column still to come.
    for tok in defs.into_iter().rev() {
        let line = &mut lines[tok.line as usize - 1];
        let at = line.char_indices().nth(tok.col as usize - 1).map_or(line.len(), |(i, _)| i);
        line.insert_str(at, &format!("#[deprecated(note = \"{DEF_NOTE}{rel}:{}\")] ", tok.line));
    }
    Some(lines.join("\n"))
}

/// The definitions, as `(file, line)`, that some file other than their
/// own calls: one deprecation warning in `warnings` per call site, read
/// from rustc's short format (`<site>:<line>:<col>: warning: use of
/// deprecated … : dead-pub <def>:<line>`). A site inside a `use` item is
/// a re-export or an import, not a call. A site in a file outside `files`
/// counts.
fn cross_file_calls<'a>(
    files: &[(&str, &str)],
    lexed: &[(LexOutput, Vec<bool>)],
    warnings: &'a str,
) -> BTreeSet<(&'a str, u32)> {
    let uses: BTreeMap<&str, Vec<(Pos, Pos)>> =
        files.iter().zip(lexed).map(|(&(rel, _), (out, skip))| (rel, use_items(out, skip))).collect();
    let mut called = BTreeSet::new();
    for w in warnings.lines().filter(|w| w.contains("use of deprecated")) {
        let Some((site, note)) = w.split_once(": ") else { continue };
        let Some((_, def)) = note.rsplit_once(DEF_NOTE) else { continue };
        let mut site = site.rsplitn(3, ':');
        let (Some(col), Some(line), Some(file)) = (site.next(), site.next(), site.next()) else { continue };
        if !CALLER_TREES.iter().any(|tree| file.starts_with(tree)) {
            continue;
        }
        let (Some((def_file, def_line)), Ok(line), Ok(col)) = (def.rsplit_once(':'), line.parse(), col.parse())
        else {
            continue;
        };
        let Ok(def_line) = def_line.trim().parse() else { continue };
        let in_use = uses.get(file).is_some_and(|spans| spans.iter().any(|&(a, b)| a <= (line, col) && (line, col) <= b));
        if file != def_file && !in_use {
            called.insert((def_file, def_line));
        }
    }
    called
}

/// A source position: 1-based line and column.
type Pos = (u32, u32);

/// The spans of the `use` items outside test code, from the `use` to its
/// `;`.
fn use_items(out: &LexOutput, skip: &[bool]) -> Vec<(Pos, Pos)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (t, _) in out.tokens.iter().zip(skip).filter(|(_, &s)| !s) {
        match start {
            None if t.is_ident("use") => start = Some((t.line, t.col)),
            Some(s) if t.is_punct(';') => {
                spans.push((s, (t.line, t.col)));
                start = None;
            }
            _ => {}
        }
    }
    spans
}

/// Mark tokens belonging to `#[cfg(test)]` / `#[test]` items (the attribute
/// through the end of the item it gates; an inner `#![cfg(test)]` gates the
/// rest of its enclosing block — the whole file of an out-of-line
/// `mod tests;`). By workspace convention unit tests live in such modules;
/// integration-test *files* are excluded at the walker level instead.
fn test_regions(toks: &[Tok]) -> Vec<bool> {
    let mut skip = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_punct('#') {
            i += 1;
            continue;
        }
        // `#[` or `#![`.
        let inner = toks.get(i + 1).is_some_and(|t| t.is_punct('!'));
        let open = i + 1 + usize::from(inner);
        if !toks.get(open).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        // Find the matching `]`.
        let mut depth = 0i32;
        let mut close = open;
        for (j, t) in toks.iter().enumerate().skip(open) {
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    close = j;
                    break;
                }
            }
        }
        if close == open {
            break; // unterminated attribute; nothing more to do
        }
        let content = &toks[open + 1..close];
        let is_test_attr = matches!(content, [t] if t.is_ident("test"))
            || (matches!(content.first(), Some(t) if t.is_ident("cfg"))
                && content.len() == 4
                && content[1].is_punct('(')
                && content[2].is_ident("test")
                && content[3].is_punct(')'));
        if !is_test_attr {
            i = close + 1;
            continue;
        }
        // Skip from the attribute through the gated item: either to a `;`
        // at depth zero (e.g. `#[cfg(test)] mod tests;`) or to the `}` that
        // closes the item's top-level brace block. Intervening attributes'
        // brackets balance out on their own.
        // An inner attribute instead gates through the `}` that closes its
        // enclosing block, or to the end of the file.
        let closing_depth = if inner { -1 } else { 0 };
        let mut depth = 0i32;
        let mut end = toks.len() - 1;
        for (j, t) in toks.iter().enumerate().skip(close + 1) {
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "}" => {
                        depth -= 1;
                        if depth == closing_depth {
                            end = j;
                            break;
                        }
                    }
                    ";" if depth == 0 && !inner => {
                        end = j;
                        break;
                    }
                    _ => {}
                }
            }
        }
        for s in skip.iter_mut().take(end + 1).skip(i) {
            *s = true;
        }
        i = end + 1;
    }
    skip
}

const PANIC_MACROS: &[&str] = &["panic", "todo", "unreachable", "unimplemented"];

fn panic_path(toks: &[Tok], live: &[usize], push: &mut impl FnMut(u32, &'static str, String)) {
    let at = |k: isize| -> Option<&Tok> {
        if k < 0 {
            None
        } else {
            live.get(k as usize).map(|&i| &toks[i])
        }
    };
    for k in 0..live.len() as isize {
        let t = at(k).expect("k in range");
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = at(k - 1).is_some_and(|p| p.is_punct('.'));
        let next_paren = at(k + 1).is_some_and(|n| n.is_punct('('));
        let next_bang = at(k + 1).is_some_and(|n| n.is_punct('!'));
        if prev_dot && next_paren && (t.text == "unwrap" || t.text == "expect") {
            push(
                t.line,
                "panic-path",
                format!(".{}() in fallible library code: return a typed error", t.text),
            );
        } else if next_bang && PANIC_MACROS.contains(&t.text.as_str()) {
            push(
                t.line,
                "panic-path",
                format!("{}! in fallible library code: return a typed error", t.text),
            );
        }
    }
    // Slice-index inside functions that return Result: those paths already
    // have a typed-error channel, so an indexing panic is a contract break.
    for (start, end) in result_fn_bodies(toks, live) {
        for k in start..=end {
            let t = at(k as isize).expect("k in range");
            if !t.is_punct('[') {
                continue;
            }
            // `[` indexes a value when it follows an expression tail; after
            // a keyword it is a slice pattern or array literal instead.
            const KEYWORDS: &[&str] = &[
                "as", "async", "await", "box", "break", "const", "continue", "dyn", "else",
                "fn", "for", "if", "impl", "in", "let", "loop", "match", "move", "mut",
                "pub", "ref", "return", "static", "unsafe", "use", "where", "while", "yield",
            ];
            let indexes_value = at(k as isize - 1).is_some_and(|p| {
                (p.kind == TokKind::Ident && !KEYWORDS.contains(&p.text.as_str()))
                    || p.is_punct(')')
                    || p.is_punct(']')
            });
            if !indexes_value {
                continue;
            }
            // Collect the index expression (to the matching `]`).
            let mut close = k + 1;
            let mut depth = 1i32;
            while close <= end {
                let c = at(close as isize).expect("close in range");
                if c.is_punct('[') {
                    depth += 1;
                } else if c.is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                close += 1;
            }
            let index = &live[k + 1..close.min(end + 1)];
            // Only *computed* indexes are findings: arithmetic, calls, and
            // partial ranges are where off-by-ones live. A bare identifier,
            // literal, field chain, or deref (`xs[blade]`, `xs[0]`,
            // `xs[*h]`, `xs[e.idx]`) indexes a structure sized by
            // construction and reviewed at the assignment site; flagging
            // every one would bury the signal. `xs[..]` cannot panic.
            let computed = index.iter().enumerate().any(|(n, &i)| {
                let t = &toks[i];
                t.kind == TokKind::Punct
                    && matches!(t.text.as_str(), "+" | "-" | "/" | "%" | "(")
                    || (t.is_punct('*') && n > 0)
                    || (t.is_punct('.')
                        && index.get(n + 1).is_some_and(|&j| toks[j].is_punct('.'))
                        && !(n == 0 && index.len() == 2))
            });
            if !computed {
                continue;
            }
            push(
                t.line,
                "panic-path",
                "computed slice-index in a Result-returning function: use \
                 .get() or prove bounds and allow"
                    .to_string(),
            );
        }
    }
}

/// Ranges (in `live` indices) of bodies of functions whose return type
/// names `Result`.
fn result_fn_bodies(toks: &[Tok], live: &[usize]) -> Vec<(usize, usize)> {
    let tok = |k: usize| -> Option<&Tok> { live.get(k).map(|&i| &toks[i]) };
    let mut bodies = Vec::new();
    let mut k = 0;
    while k < live.len() {
        if !tok(k).is_some_and(|t| t.is_ident("fn"))
            || !tok(k + 1).is_some_and(|t| t.kind == TokKind::Ident)
        {
            k += 1;
            continue;
        }
        let mut j = k + 2;
        // Optional generic parameter list.
        if tok(j).is_some_and(|t| t.is_punct('<')) {
            let mut angle = 0i32;
            while j < live.len() {
                let t = tok(j).expect("j in range");
                if t.is_punct('<') {
                    angle += 1;
                } else if t.is_punct('>') {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Argument list.
        if !tok(j).is_some_and(|t| t.is_punct('(')) {
            k += 1; // `fn` pointer type or malformed; move on
            continue;
        }
        let mut paren = 0i32;
        while j < live.len() {
            let t = tok(j).expect("j in range");
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren -= 1;
                if paren == 0 {
                    j += 1;
                    break;
                }
            }
            j += 1;
        }
        // Return type, if any.
        let mut returns_result = false;
        if tok(j).is_some_and(|t| t.is_punct('-')) && tok(j + 1).is_some_and(|t| t.is_punct('>')) {
            j += 2;
            let mut depth = 0i32;
            while j < live.len() {
                let t = tok(j).expect("j in range");
                if t.kind == TokKind::Punct {
                    match t.text.as_str() {
                        "(" | "[" => depth += 1,
                        ")" | "]" => depth -= 1,
                        "{" if depth == 0 => break,
                        ";" if depth == 0 => break,
                        _ => {}
                    }
                } else if depth == 0 && t.is_ident("where") {
                    break;
                } else if t.is_ident("Result") {
                    returns_result = true;
                }
                j += 1;
            }
            // Skip a where clause to the body brace.
            while j < live.len()
                && !tok(j).is_some_and(|t| t.is_punct('{') || t.is_punct(';'))
            {
                j += 1;
            }
        }
        if returns_result && tok(j).is_some_and(|t| t.is_punct('{')) {
            let start = j;
            let mut brace = 0i32;
            while j < live.len() {
                let t = tok(j).expect("j in range");
                if t.is_punct('{') {
                    brace += 1;
                } else if t.is_punct('}') {
                    brace -= 1;
                    if brace == 0 {
                        break;
                    }
                }
                j += 1;
            }
            bodies.push((start, j.min(live.len() - 1)));
        }
        // Resume just past `fn <name>` so nested functions are still found.
        k += 2;
    }
    bodies
}

fn wall_clock(toks: &[Tok], live: &[usize], push: &mut impl FnMut(u32, &'static str, String)) {
    for &i in live {
        let t = &toks[i];
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            push(
                t.line,
                "wall-clock",
                format!(
                    "{} reads the host clock: all simulation time must flow \
                     from the simcore clock (inject an elapsed-time closure \
                     from a binary for reporting)",
                    t.text
                ),
            );
        }
    }
}

const ENTROPY_IDENTS: &[&str] = &["RandomState", "OsRng", "getrandom", "from_entropy"];

fn ambient_entropy(toks: &[Tok], live: &[usize], push: &mut impl FnMut(u32, &'static str, String)) {
    let at = |k: isize| -> Option<&Tok> {
        if k < 0 {
            None
        } else {
            live.get(k as usize).map(|&i| &toks[i])
        }
    };
    for k in 0..live.len() as isize {
        let t = at(k).expect("k in range");
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_colon = at(k + 1).is_some_and(|n| n.is_punct(':'));
        if ENTROPY_IDENTS.contains(&t.text.as_str()) {
            push(t.line, "ambient-entropy", format!("{} is ambient entropy", t.text));
        } else if t.text == "rand"
            && (next_colon || at(k - 1).is_some_and(|p| p.is_ident("use")))
        {
            push(
                t.line,
                "ambient-entropy",
                "rand:: in a sim crate: derive randomness from the seeded \
                 campaign PRNG"
                    .to_string(),
            );
        } else if t.text == "thread"
            && next_colon
            && at(k + 2).is_some_and(|c| c.is_punct(':'))
            && at(k + 3).is_some_and(|s| s.is_ident("spawn") || s.is_ident("scope"))
        {
            push(
                t.line,
                "ambient-entropy",
                format!(
                    "thread::{} in a sim crate: scheduling order is \
                     nondeterministic",
                    at(k + 3).expect("checked above").text
                ),
            );
        } else if t.text == "spawn"
            && at(k - 1).is_some_and(|p| p.is_punct('.'))
            && at(k + 1).is_some_and(|n| n.is_punct('('))
        {
            push(
                t.line,
                "ambient-entropy",
                ".spawn() in a sim crate: scheduling order is nondeterministic".to_string(),
            );
        } else if t.text == "available_parallelism" {
            push(
                t.line,
                "ambient-entropy",
                "available_parallelism varies by host: results must not \
                 depend on worker count"
                    .to_string(),
            );
        }
    }
}

const UNORDERED_TYPES: &[&str] =
    &["HashMap", "HashSet", "FxHashMap", "FxHashSet", "AHashMap", "AHashSet"];
const UNORDERED_MODS: &[&str] = &["hash_map", "hash_set"];

fn unordered_iteration(
    toks: &[Tok],
    live: &[usize],
    push: &mut impl FnMut(u32, &'static str, String),
) {
    for &i in live {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        if UNORDERED_TYPES.contains(&t.text.as_str()) || UNORDERED_MODS.contains(&t.text.as_str())
        {
            push(
                t.line,
                "unordered-iteration",
                format!(
                    "{} in a replay-affecting crate: iteration order follows \
                     the process-random hasher seed; use BTreeMap/BTreeSet \
                     or sort explicitly",
                    t.text
                ),
            );
        }
    }
}
