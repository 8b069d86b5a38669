//! A hand-rolled Rust lexer, just deep enough for lint rules.
//!
//! The substring matcher this crate supersedes tripped on `unwrap` inside
//! doc comments and string literals; the fix is to tokenize for real. The
//! lexer handles the parts of Rust's lexical grammar that make naive
//! scanners lie:
//!
//! * nested block comments (`/* /* */ */`),
//! * raw strings with arbitrary hash fences (`r#".."#`, `br##".."##`),
//! * byte strings and byte chars (`b".."`, `b'x'`),
//! * the `'a` lifetime vs `'a'` char-literal ambiguity,
//! * raw identifiers (`r#type`).
//!
//! It does **not** build a syntax tree; rules pattern-match over the token
//! stream. Comments are not tokens, but `lint: allow(...)` markers inside
//! them are collected into [`LexOutput::allows`] so suppression stays
//! line-scoped.

/// Token category. `text` is kept for identifiers and punctuation (what the
/// rules match on); literals keep their raw text for diagnostics and tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `HashMap`, `r#type` → `type`).
    Ident,
    /// Lifetime such as `'a` or `'static` (without the quote).
    Lifetime,
    /// Character or byte-character literal (`'a'`, `b'\n'`).
    Char,
    /// String literal of any flavour (`".."`, `r#".."#`, `b".."`).
    Str,
    /// Numeric literal (`0x1f`, `1.5e3`, `42u64`).
    Num,
    /// One punctuation character (`.`; `::` arrives as two `:` tokens).
    Punct,
}

/// One lexed token with its 1-based source line and the 1-based column (in
/// chars, as rustc counts them) where it starts.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Tok {
    /// Is this an identifier with exactly this text?
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// Is this a punctuation token with exactly this character?
    pub fn is_punct(&self, ch: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == ch.len_utf8() && self.text.starts_with(ch)
    }
}

/// A `lint: allow(...)` marker found in a comment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AllowMarker {
    /// Line the marker text appears on.
    pub line: u32,
    /// Rule names inside the parentheses; empty means the marker was
    /// unscoped (`// lint: allow` with no rule list) — a diagnostic itself.
    pub rules: Vec<String>,
}

/// Lexer output: the token stream plus suppression markers.
#[derive(Clone, Debug, Default)]
pub struct LexOutput {
    pub tokens: Vec<Tok>,
    pub allows: Vec<AllowMarker>,
}

/// Tokenize `src`. Never fails: unterminated constructs consume to EOF,
/// which is the forgiving behaviour a linter wants on mid-edit files.
pub fn lex(src: &str) -> LexOutput {
    Lexer::new(src).run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    /// `pos` of the current line's first char.
    line_start: usize,
    /// Column of the token being lexed: each dispatch in `run` pushes at
    /// most one token.
    col: u32,
    out: LexOutput,
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

impl Lexer {
    fn new(src: &str) -> Lexer {
        Lexer { chars: src.chars().collect(), pos: 0, line: 1, line_start: 0, col: 1, out: LexOutput::default() }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
                self.line_start = self.pos;
            }
        }
        c
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.tokens.push(Tok { kind, text, line, col: self.col });
    }

    fn run(mut self) -> LexOutput {
        while let Some(c) = self.peek(0) {
            let line = self.line;
            self.col = (self.pos - self.line_start + 1) as u32;
            match c {
                _ if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                'r' | 'b' => self.raw_or_byte_prefix(),
                '"' => self.string_literal(line),
                '\'' => self.quote(line),
                _ if is_ident_start(c) => self.ident(line),
                _ if c.is_ascii_digit() => self.number(line),
                _ => {
                    self.bump();
                    self.push(TokKind::Punct, c.to_string(), line);
                }
            }
        }
        self.out
    }

    /// Handle tokens starting with `r` or `b`: raw strings, byte strings,
    /// byte chars, raw identifiers — or a plain identifier.
    fn raw_or_byte_prefix(&mut self) {
        let line = self.line;
        let c0 = self.peek(0).unwrap_or(' ');
        match (c0, self.peek(1), self.peek(2)) {
            // b'x' byte char.
            ('b', Some('\''), _) => {
                self.bump();
                self.bump();
                self.char_body(line, "b'".to_string());
            }
            // b"..." byte string.
            ('b', Some('"'), _) => {
                self.bump();
                self.string_literal(line);
            }
            // br"..." / br#"..."# raw byte string.
            ('b', Some('r'), Some(n)) if n == '"' || n == '#' => {
                self.bump();
                self.bump();
                self.raw_string(line, "br");
            }
            // r"..." / r#"..."# raw string, or r#ident raw identifier.
            ('r', Some(n), _) if n == '"' || n == '#' => {
                self.bump();
                self.raw_string(line, "r");
            }
            // Plain identifier starting with r/b.
            _ => self.ident(line),
        }
    }

    /// At a position just past the consumed `r`/`br` prefix: either a raw
    /// string fence or (for `r#`) a raw identifier.
    fn raw_string(&mut self, line: u32, prefix: &str) {
        let mut hashes = 0usize;
        while self.peek(hashes) == Some('#') {
            hashes += 1;
        }
        match self.peek(hashes) {
            Some('"') => {
                for _ in 0..=hashes {
                    self.bump();
                }
                // Consume until `"` followed by `hashes` `#`s.
                let mut text = String::new();
                while let Some(c) = self.bump() {
                    if c == '"' && (0..hashes).all(|i| self.peek(i) == Some('#')) {
                        for _ in 0..hashes {
                            self.bump();
                        }
                        break;
                    }
                    text.push(c);
                }
                self.push(TokKind::Str, text, line);
            }
            Some(c) if prefix == "r" && hashes == 1 && is_ident_start(c) => {
                // r#type — a raw identifier; emit without the r# so rules
                // see the name itself.
                self.bump();
                self.ident(line);
            }
            _ => {
                // Degenerate input like a lone `r#`: emit the prefix as an
                // identifier and let the `#` lex as punctuation.
                self.push(TokKind::Ident, prefix.to_string(), line);
            }
        }
    }

    fn string_literal(&mut self, line: u32) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    if let Some(esc) = self.bump() {
                        text.push('\\');
                        text.push(esc);
                    }
                }
                '"' => break,
                _ => text.push(c),
            }
        }
        self.push(TokKind::Str, text, line);
    }

    /// Disambiguate `'a'` (char) from `'a` (lifetime) from `'\n'` (escaped
    /// char). Called at the opening quote.
    fn quote(&mut self, line: u32) {
        self.bump(); // the quote
        match (self.peek(0), self.peek(1)) {
            // Escaped char literal: '\n', '\'', '\u{1F4A9}'.
            (Some('\\'), _) => self.char_body(line, "'".to_string()),
            // 'a' — ident-start char immediately closed: char literal.
            (Some(c), Some('\'')) if is_ident_start(c) => {
                self.bump();
                self.bump();
                self.push(TokKind::Char, c.to_string(), line);
            }
            // 'abc / 'static — a lifetime: ident chars, no closing quote.
            (Some(c), _) if is_ident_start(c) => {
                let mut name = String::new();
                while let Some(c) = self.peek(0) {
                    if is_ident_continue(c) {
                        name.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push(TokKind::Lifetime, name, line);
            }
            // Non-ident char literal: '0', '[', even '🦀'.
            (Some(_), _) => self.char_body(line, "'".to_string()),
            (None, _) => self.push(TokKind::Punct, "'".to_string(), line),
        }
    }

    /// Consume a (possibly escaped) char literal body up to the closing
    /// quote, starting just inside it.
    fn char_body(&mut self, line: u32, mut text: String) {
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    text.push('\\');
                    if let Some(esc) = self.bump() {
                        text.push(esc);
                    }
                }
                '\'' => break,
                _ => text.push(c),
            }
        }
        self.push(TokKind::Char, text, line);
    }

    fn ident(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident, text, line);
    }

    fn number(&mut self, line: u32) {
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if is_ident_continue(c) {
                text.push(c);
                self.bump();
            } else if c == '.' {
                // `1..4` is a range, `1.5` is a float continuation.
                if self.peek(1) == Some('.') {
                    break;
                }
                match self.peek(1) {
                    Some(d) if d.is_ascii_digit() => {
                        text.push(c);
                        self.bump();
                    }
                    _ => break,
                }
            } else if (c == '+' || c == '-') && (text.ends_with('e') || text.ends_with('E')) {
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Num, text, line);
    }

    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        // Doc comments (`///`, `//!`) describe the marker syntax; only plain
        // comments can carry live suppressions.
        if !text.starts_with("///") && !text.starts_with("//!") {
            self.scan_marker(&text, line);
        }
    }

    fn block_comment(&mut self) {
        let start = self.line;
        self.bump(); // '/'
        self.bump(); // '*'
        let mut depth = 1usize;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.bump();
                self.bump();
                text.push_str("/*");
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.bump();
                self.bump();
                if depth == 0 {
                    break;
                }
                text.push_str("*/");
            } else {
                text.push(c);
                self.bump();
            }
        }
        // `/** .. */` and `/*! .. */` are doc comments, as above.
        if !text.starts_with('*') && !text.starts_with('!') {
            self.scan_marker(&text, start);
        }
    }

    /// Record `lint: allow(...)` markers found in comment text. An unscoped
    /// marker (no parenthesized rule list) is recorded with empty `rules`
    /// so the analyzer can reject it.
    fn scan_marker(&mut self, text: &str, line: u32) {
        let Some(at) = text.find("lint: allow") else { return };
        let rest = &text[at + "lint: allow".len()..];
        let rules = match rest.trim_start().strip_prefix('(') {
            Some(inner) => match inner.split_once(')') {
                Some((list, _)) => list
                    .split(',')
                    .map(|r| r.trim().to_string())
                    .filter(|r| !r.is_empty())
                    .collect(),
                None => Vec::new(),
            },
            None => Vec::new(),
        };
        self.out.allows.push(AllowMarker { line, rules });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn unwrap_in_string_is_not_an_ident() {
        let out = lex(r#"let s = "please .unwrap() me"; s.len();"#);
        assert!(!out.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(out.tokens.iter().any(|t| t.is_ident("len")));
    }

    #[test]
    fn raw_strings_swallow_quotes_and_hashes() {
        let out = lex(r###"let s = r#"He said "unwrap()" loudly"#; x.y();"###);
        assert!(!out.tokens.iter().any(|t| t.is_ident("unwrap")));
        let strs: Vec<&Tok> = out.tokens.iter().filter(|t| t.kind == TokKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("\"unwrap()\""));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let out = lex(r#"let a = b"panic!"; let c = b'\n'; let d = b'x';"#);
        assert!(!out.tokens.iter().any(|t| t.is_ident("panic")));
        assert_eq!(out.tokens.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
        assert_eq!(out.tokens.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let out = lex("/* outer /* inner .unwrap() */ still comment */ real.code()");
        assert!(!out.tokens.iter().any(|t| t.is_ident("unwrap")));
        assert!(out.tokens.iter().any(|t| t.is_ident("code")));
        // `still comment` must not leak out as idents.
        assert!(!out.tokens.iter().any(|t| t.is_ident("still")));
    }

    #[test]
    fn lifetime_vs_char_literal() {
        let out = lex("fn f<'a>(x: &'a str) -> char { 'a' }");
        let lifetimes: Vec<&Tok> =
            out.tokens.iter().filter(|t| t.kind == TokKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2, "{:?}", out.tokens);
        assert!(lifetimes.iter().all(|t| t.text == "a"));
        let chars: Vec<&Tok> = out.tokens.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(chars.len(), 1);
        assert_eq!(chars[0].text, "a");
    }

    #[test]
    fn static_lifetime_and_escaped_char() {
        let out = lex(r"const S: &'static str = X; let nl = '\n'; let q = '\'';");
        assert!(out.tokens.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "static"));
        assert_eq!(out.tokens.iter().filter(|t| t.kind == TokKind::Char).count(), 2);
    }

    #[test]
    fn raw_identifier_yields_bare_name() {
        assert_eq!(idents("let r#type = 1;"), vec!["let", "type"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges() {
        let out = lex("for i in 0..10 { a[i] = 1.5e3; }");
        let nums: Vec<String> =
            out.tokens.iter().filter(|t| t.kind == TokKind::Num).map(|t| t.text.clone()).collect();
        assert_eq!(nums, vec!["0", "10", "1.5e3"]);
    }

    #[test]
    fn line_numbers_track_newlines_including_multiline_strings() {
        let src = "let a = 1;\nlet s = \"two\nlines\";\nlet b = 2;";
        let out = lex(src);
        let b = out.tokens.iter().find(|t| t.is_ident("b")).unwrap();
        assert_eq!((b.line, b.col), (4, 5));
    }

    #[test]
    fn allow_markers_scoped_and_unscoped() {
        let src = "x(); // lint: allow(panic-path, wall-clock) — reason\ny(); // lint: allow\n";
        let out = lex(src);
        assert_eq!(out.allows.len(), 2);
        assert_eq!(out.allows[0].line, 1);
        assert_eq!(out.allows[0].rules, vec!["panic-path", "wall-clock"]);
        assert_eq!(out.allows[1].line, 2);
        assert!(out.allows[1].rules.is_empty());
    }
}
