//! Rule passes over the token stream.
//!
//! Every rule is a determinism or panic-safety contract from ROADMAP /
//! docs/chaos.md: seeded fault campaigns replay only while nothing in a
//! replay-affecting path consults wall-clock time, ambient randomness, or
//! unordered map iteration, and a panic in fallible library code takes out
//! a whole simulated controller blade instead of failing one request.
//!
//! | rule                  | scope                                   |
//! |-----------------------|-----------------------------------------|
//! | `panic-path`          | library code of the typed-error crates  |
//! | `wall-clock`          | everywhere except designated binaries   |
//! | `ambient-entropy`     | all simulation crates                   |
//! | `unordered-iteration` | replay-affecting crates                 |
//! | `allow-syntax`        | everywhere (marker hygiene)             |
//!
//! Suppression is per line: `// lint: allow(rule)` next to the finding (or
//! on an adjacent comment-only line directly above it). Unscoped or
//! unknown-rule markers are themselves findings, so stale suppressions
//! cannot accumulate silently.

use crate::lexer::{lex, Tok, TokKind};
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose library code must fail with typed errors, never panics.
pub const PANIC_CRATES: &[&str] = &[
    "cache", "virt", "simcore", "qos", "chaos", "scrub", "security", "heal", "core", "simnet", "simdisk", "proto",
    "raid",
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
    &["panic-path", "wall-clock", "ambient-entropy", "unordered-iteration"];

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

/// Analyze one file's source. `rel` decides which rule scopes apply; the
/// analysis itself is pure, so tests can feed fixture text under any path.
pub fn analyze_source(rel: &str, src: &str) -> Vec<Finding> {
    let out = lex(src);
    let toks = &out.tokens;
    let skip = test_regions(toks);
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

    // Resolve allow markers to the line they guard and validate them.
    let code_lines: BTreeSet<u32> = toks.iter().map(|t| t.line).collect();
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
        // A marker on a comment-only line guards the next code line.
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

    findings.retain(|f| {
        f.rule == ALLOW_SYNTAX
            || !allowed.get(&f.line).is_some_and(|rules| rules.contains(f.rule))
    });
    findings.sort();
    findings.dedup();
    findings
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
