//! A minimal comment- and string-aware Rust lexer.
//!
//! The audit matches *token* patterns, not text: `unwrap_or` must not count
//! as `unwrap`, `".unwrap()"` inside a string literal is data, and
//! `// audit:allow(...)` suppressions live in comments.
//! A grep cannot make those distinctions; a full parser is overkill. This
//! lexer sits in between: it understands Rust's comment forms (line, nested
//! block), string forms (plain, raw, byte, raw-byte), char literals versus
//! lifetimes, and hands back just two token kinds — identifiers and
//! punctuation — each tagged with its 1-based source line.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `fn`, `unwrap`, ...).
    Ident,
    /// A single punctuation character (`.`, `{`, `!`, ...).
    Punct,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Identifier or punctuation.
    pub kind: TokenKind,
    /// The token's text (a single char for punctuation).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: u32,
}

impl Token {
    /// Whether this is the punctuation character `p`.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == p
    }
}

/// One `//` line comment (block comments are skipped, not captured: the
/// `audit:allow` convention is line-comment only so a suppression is always
/// attached to a definite line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based source line of the comment.
    pub line: u32,
    /// Comment text with the `//` marker and surrounding whitespace removed.
    pub text: String,
}

/// The result of lexing one source file.
#[derive(Debug, Clone, Default)]
pub struct Lexed {
    /// Identifier and punctuation tokens in source order.
    pub tokens: Vec<Token>,
    /// Line comments in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `src`, skipping comments, strings, chars, lifetimes, and numbers.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
        } else if c.is_whitespace() {
            i += 1;
        } else if c == '/' && peek(&chars, i + 1) == Some('/') {
            let start = i + 2;
            let mut j = start;
            while j < chars.len() && chars[j] != '\n' {
                j += 1;
            }
            let text: String = chars[start..j].iter().collect();
            // `///` and `//!` doc comments are prose, not suppressions, but
            // capturing them uniformly is harmless: they simply never parse
            // as `audit:allow`.
            out.comments.push(Comment {
                line,
                text: text.trim_matches(['/', '!']).trim().to_string(),
            });
            i = j;
        } else if c == '/' && peek(&chars, i + 1) == Some('*') {
            i = skip_block_comment(&chars, i + 2, &mut line);
        } else if c == '"' {
            i = skip_string(&chars, i + 1, &mut line);
        } else if c == '\'' {
            i = skip_char_or_lifetime(&chars, i, &mut line);
        } else if c.is_alphabetic() || c == '_' {
            if let Some(next) = try_skip_prefixed_literal(&chars, i, &mut line) {
                i = next;
            } else {
                let start = i;
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Ident,
                    text: chars[start..i].iter().collect(),
                    line,
                });
            }
        } else if c.is_ascii_digit() {
            // Numbers are never matched by a lint; consume and drop. The dot
            // is deliberately excluded so `1.max(x)` still yields `.` `max`.
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
        } else {
            out.tokens.push(Token {
                kind: TokenKind::Punct,
                text: c.to_string(),
                line,
            });
            i += 1;
        }
    }
    out
}

fn peek(chars: &[char], i: usize) -> Option<char> {
    chars.get(i).copied()
}

/// Skips a (possibly nested) block comment body; `i` points past the `/*`.
fn skip_block_comment(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    let mut depth = 1u32;
    while i < chars.len() && depth > 0 {
        if chars[i] == '\n' {
            *line += 1;
            i += 1;
        } else if chars[i] == '/' && peek(chars, i + 1) == Some('*') {
            depth += 1;
            i += 2;
        } else if chars[i] == '*' && peek(chars, i + 1) == Some('/') {
            depth -= 1;
            i += 2;
        } else {
            i += 1;
        }
    }
    i
}

/// Skips a plain string body; `i` points past the opening quote.
fn skip_string(chars: &[char], mut i: usize, line: &mut u32) -> usize {
    while i < chars.len() {
        match chars[i] {
            '\\' => i += 2,
            '"' => return i + 1,
            '\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a char literal or a lifetime starting at the `'` at `i`.
fn skip_char_or_lifetime(chars: &[char], i: usize, line: &mut u32) -> usize {
    match peek(chars, i + 1) {
        Some('\\') => {
            // Escaped char literal: scan to the closing quote, honouring
            // nested escapes like '\'' and '\u{1F600}'.
            let mut j = i + 1;
            while j < chars.len() {
                match chars[j] {
                    '\\' => j += 2,
                    '\'' => return j + 1,
                    _ => j += 1,
                }
            }
            j
        }
        Some(_) if peek(chars, i + 2) == Some('\'') => i + 3, // 'x'
        Some('\n') => {
            // A stray quote before a newline; treat as punctuation-ish skip.
            *line += 1;
            i + 2
        }
        _ => {
            // Lifetime: skip the quote and the identifier after it.
            let mut j = i + 1;
            while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
                j += 1;
            }
            j
        }
    }
}

/// Handles `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`, and `b'x'` literals,
/// which start with what looks like an identifier. Returns the index past
/// the literal, or `None` if the chars at `i` are a plain identifier.
fn try_skip_prefixed_literal(chars: &[char], i: usize, line: &mut u32) -> Option<usize> {
    let c = chars[i];
    if c == 'b' && peek(chars, i + 1) == Some('\'') {
        return Some(skip_char_or_lifetime(chars, i + 1, line));
    }
    if c == 'b' && peek(chars, i + 1) == Some('"') {
        return Some(skip_string(chars, i + 2, line));
    }
    let raw_start = if c == 'r' {
        Some(i + 1)
    } else if c == 'b' && peek(chars, i + 1) == Some('r') {
        Some(i + 2)
    } else {
        None
    }?;
    let mut hashes = 0usize;
    let mut j = raw_start;
    while peek(chars, j) == Some('#') {
        hashes += 1;
        j += 1;
    }
    if peek(chars, j) != Some('"') {
        return None; // an identifier like `r#match` or just `radius`
    }
    j += 1;
    // Scan for `"` followed by `hashes` hash marks.
    while j < chars.len() {
        if chars[j] == '\n' {
            *line += 1;
            j += 1;
        } else if chars[j] == '"'
            && chars[j + 1..].iter().take_while(|&&h| h == '#').count() >= hashes
        {
            return Some(j + 1 + hashes);
        } else {
            j += 1;
        }
    }
    Some(j)
}

/// Line ranges (inclusive) covered by `#[cfg(test)]`-gated items.
///
/// The scan is token-based: on seeing the exact attribute `#[cfg(test)]` it
/// skips any further attributes, then brace-matches the next `{ ... }` block
/// (a `mod tests { ... }` or a gated fn/impl). An attribute followed by a
/// semicolon before any brace (e.g. a gated `use`) covers only its own lines.
pub fn test_regions(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if is_cfg_test_at(tokens, i) {
            let attr_line = tokens[i].line;
            let mut j = i + 7;
            // Skip any further attributes (e.g. `#[allow(...)]`).
            while j + 1 < tokens.len() && tokens[j].is_punct("#") && tokens[j + 1].is_punct("[") {
                j = matching_close(tokens, j + 1, tokens.len()) + 1;
            }
            // Find the gated item's body, stopping at `;` (no body).
            while j < tokens.len() && !tokens[j].is_punct("{") && !tokens[j].is_punct(";") {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct("{") {
                j = matching_close(tokens, j, tokens.len());
            }
            regions.push((attr_line, tokens[j.min(tokens.len() - 1)].line));
            i = j;
        }
        i += 1;
    }
    regions
}

fn is_cfg_test_at(tokens: &[Token], i: usize) -> bool {
    let expected: [(&str, TokenKind); 7] = [
        ("#", TokenKind::Punct),
        ("[", TokenKind::Punct),
        ("cfg", TokenKind::Ident),
        ("(", TokenKind::Punct),
        ("test", TokenKind::Ident),
        (")", TokenKind::Punct),
        ("]", TokenKind::Punct),
    ];
    tokens.len() >= i + expected.len()
        && expected
            .iter()
            .zip(&tokens[i..])
            .all(|(&(text, kind), t)| t.kind == kind && t.text == text)
}

/// Index of the token closing the `(`, `[` or `{` at `open`, scanning
/// `tokens[open..end)`: `end - 1` when the group is unbalanced, `open`
/// itself when no group opens there.
pub(crate) fn matching_close(tokens: &[Token], open: usize, end: usize) -> usize {
    let (opener, closer) = match tokens.get(open).map(|t| t.text.as_str()) {
        Some("(") => ("(", ")"),
        Some("[") => ("[", "]"),
        Some("{") => ("{", "}"),
        _ => return open,
    };
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().take(end).skip(open) {
        if t.is_punct(opener) {
            depth += 1;
        } else if t.is_punct(closer) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    end.saturating_sub(1)
}

/// Identifier texts in `tokens[lo..hi)`, clamped so a truncated range can
/// never produce an inverted slice.
pub(crate) fn idents_in(tokens: &[Token], lo: usize, hi: usize) -> Vec<&str> {
    let hi = hi.min(tokens.len());
    let range = tokens.get(lo..hi).unwrap_or_default();
    range
        .iter()
        .filter(|t| t.kind == TokenKind::Ident)
        .map(|t| t.text.as_str())
        .collect()
}

/// Whether `line` falls inside any of the given inclusive regions.
pub fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(lo, hi)| lo <= line && line <= hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_and_comments_hide_identifiers() {
        let src = r##"
            // HashMap in a comment
            /* HashMap in /* a nested */ block */
            let s = "HashMap in a string";
            let r = r#"HashMap raw "quoted" string"#;
            let b = b"HashMap bytes";
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert_eq!(ids.iter().filter(|t| *t == "HashMap").count(), 1);
    }

    #[test]
    fn doc_prose_does_not_leak_substrings() {
        // `Instantiates` must lex as one identifier, never `Instant` + tail.
        let ids = idents("/// Instantiates the workload.\nfn Instantiates_x() {}");
        assert!(ids.contains(&"Instantiates_x".to_string()));
        assert!(!ids.contains(&"Instant".to_string()));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let ids = idents(src);
        // The lifetime names vanish; the code still lexes past the 'x' char.
        assert!(ids.contains(&"str".to_string()));
        assert!(!ids.contains(&"a".to_string()));
    }

    #[test]
    fn escaped_char_literals_do_not_derail() {
        let ids = idents(r"let q = '\''; let n = '\n'; let u = '\u{1F600}'; after");
        assert!(ids.contains(&"after".to_string()));
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "line1\n\"multi\nline\nstring\"\ntarget";
        let lexed = lex(src);
        let target = lexed.tokens.iter().find(|t| t.text == "target");
        assert_eq!(target.map(|t| t.line), Some(5));
    }

    #[test]
    fn comments_are_captured_with_lines() {
        let lexed = lex("let x = 1; // audit:allow(x) -- why\n");
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[0].text, "audit:allow(x) -- why");
    }

    #[test]
    fn cfg_test_region_covers_the_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() {}\n}\nfn c() {}";
        let lexed = lex(src);
        let regions = test_regions(&lexed.tokens);
        assert_eq!(regions, vec![(2, 5)]);
        assert!(in_regions(&regions, 4));
        assert!(!in_regions(&regions, 6));
    }

    #[test]
    fn cfg_test_with_extra_attribute_still_matches() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod t {\n fn x() {}\n}";
        let regions = test_regions(&lex(src).tokens);
        assert_eq!(regions, vec![(1, 5)]);
    }

    #[test]
    fn cfg_test_on_braceless_item_covers_only_itself() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn real() { x() }";
        let regions = test_regions(&lex(src).tokens);
        assert!(in_regions(&regions, 2));
        assert!(!in_regions(&regions, 3));
    }
}
