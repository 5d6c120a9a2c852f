//! A lightweight item parser: `mod`/`impl`/`fn`/`struct` structure recovered
//! from the token stream.
//!
//! The panic-site scan in [`crate::lints`] sees one flat stream per file; the
//! interprocedural lints in [`crate::interproc`] need to know *which
//! function* a token belongs to, which `impl` block that function sits in,
//! and which types carry which derives and fields. This module recovers
//! exactly that much structure — no expressions, no types beyond their
//! identifier spellings — by brace-matching a single pass over the lexed
//! tokens. It is deliberately an under-parser: anything it does not
//! recognise it skips, so new syntax degrades to "fewer recorded items",
//! never to a crash or a misattributed body.

use crate::lexer::{idents_in, matching_close, Token, TokenKind};

/// One `fn` item recovered from a file.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's bare name (`advance`, `pad_for`, ...).
    pub name: String,
    /// The `impl` target type, if the fn sits in an `impl` block
    /// (`SecureMemorySystem` for `impl SecureMemorySystem { fn advance }`).
    pub impl_type: Option<String>,
    /// The trait being implemented, for `impl Trait for Type` blocks
    /// (`Debug` for `impl fmt::Debug for Aes128`).
    pub impl_trait: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range `[start, end)` of the signature (after the name,
    /// up to but excluding the body's `{`).
    pub signature: (usize, usize),
    /// Token index range `(open, close)` of the body braces; tokens strictly
    /// inside `open+1..close` are the body. `(0, 0)` for bodiless items
    /// (trait method declarations), which are recorded but never linted.
    pub body: (usize, usize),
}

impl FnItem {
    /// `Type::name` when in an impl block, else the bare name.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Whether this item matches a `Type::name` or bare-`name` pattern from
    /// a configuration list.
    pub fn matches(&self, pattern: &str) -> bool {
        match pattern.split_once("::") {
            Some((ty, name)) => self.impl_type.as_deref() == Some(ty) && self.name == name,
            None => self.impl_type.is_none() && self.name == pattern,
        }
    }
}

/// One `struct`/`enum` item with its derive list and field type spellings.
#[derive(Debug, Clone)]
pub struct TypeItem {
    /// The type's name.
    pub name: String,
    /// Traits named in `#[derive(...)]` attributes on the item.
    pub derives: Vec<String>,
    /// 1-based line of the item (or of its first derive attribute).
    pub line: u32,
    /// `(field_name, type_identifiers)` for named-field structs: every
    /// identifier appearing in the field's declared type (`Option` and
    /// `MajorSecurityUnit` for `masu: Option<MajorSecurityUnit>`). Tuple
    /// structs and enums record their payload type idents under `""`.
    pub fields: Vec<(String, Vec<String>)>,
}

/// Items recovered from one file.
#[derive(Debug, Clone, Default)]
pub struct FileItems {
    /// Function items in source order (nested fns follow their parent).
    pub fns: Vec<FnItem>,
    /// Struct/enum items in source order.
    pub types: Vec<TypeItem>,
}

/// Keywords that may prefix an item and are skipped while looking for the
/// item head proper.
const MODIFIERS: [&str; 6] = ["pub", "const", "unsafe", "async", "extern", "default"];

/// Parses the items of one lexed file.
pub fn parse_items(tokens: &[Token]) -> FileItems {
    let mut out = FileItems::default();
    parse_block(tokens, 0, tokens.len(), None, None, &mut out);
    out
}

/// Parses item heads in `tokens[i..end]`, attributing fns to the given impl
/// context, recursing into `mod`/`impl`/`trait`/`fn` bodies.
fn parse_block(
    tokens: &[Token],
    mut i: usize,
    end: usize,
    impl_type: Option<&str>,
    impl_trait: Option<&str>,
    out: &mut FileItems,
) {
    let mut derives: Vec<String> = Vec::new();
    let mut attr_line: Option<u32> = None;
    while i < end {
        let t = &tokens[i];
        if t.is_punct("#") {
            // Attribute: capture derive lists, remember the first line so a
            // `#[derive(Debug)]` finding points at the derive itself.
            let (next, derived) = parse_attribute(tokens, i, end);
            if !derived.is_empty() {
                attr_line.get_or_insert(t.line);
                derives.extend(derived);
            }
            i = next;
            continue;
        }
        if t.kind != TokenKind::Ident {
            // Stray punctuation between items (e.g. the `;` after a use).
            i += 1;
            continue;
        }
        match t.text.as_str() {
            m if MODIFIERS.contains(&m) => {
                // `pub(crate)` carries a paren group; skip it with the
                // modifier so the item keyword is next.
                if m == "pub" && is_punct(tokens.get(i + 1), "(") {
                    i = matching_close(tokens, i + 1, end) + 1;
                } else {
                    i += 1;
                }
            }
            "fn" => {
                i = parse_fn(tokens, i, end, impl_type, impl_trait, out);
                derives.clear();
                attr_line = None;
            }
            "mod" | "trait" => {
                // `mod name { ... }` and trait default methods: recurse with
                // no impl context; `mod name;` — skip.
                match seek_body_open(tokens, i + 1, end) {
                    Ok(open) => {
                        let close = matching_close(tokens, open, end);
                        parse_block(tokens, open + 1, close, None, None, out);
                        i = close + 1;
                    }
                    Err(semi) => i = semi + 1,
                }
                derives.clear();
                attr_line = None;
            }
            "impl" => {
                let Ok(open) = seek_body_open(tokens, i + 1, end) else {
                    i = end;
                    continue;
                };
                let (ty, tr) = parse_impl_header(tokens, i + 1, open);
                let close = matching_close(tokens, open, end);
                parse_block(tokens, open + 1, close, ty.as_deref(), tr.as_deref(), out);
                i = close + 1;
                derives.clear();
                attr_line = None;
            }
            "struct" | "enum" | "union" => {
                i = parse_type_item(tokens, i, end, &mut derives, attr_line.take(), out);
                derives.clear();
            }
            _ => {
                // `use`, `static`, `type`, `const NAME`, macro invocations,
                // expression statements inside fn bodies, ... — skip one
                // token; brace/paren groups are consumed by the callers that
                // care (fn bodies recurse through parse_block only for item
                // keywords, so expression braces just stream through).
                i += 1;
            }
        }
    }
}

/// Parses `#[...]` at `i`; returns (index past the attribute, derive names).
fn parse_attribute(tokens: &[Token], i: usize, end: usize) -> (usize, Vec<String>) {
    if !is_punct(tokens.get(i + 1), "[") {
        return (i + 1, Vec::new());
    }
    let close = matching_close(tokens, i + 1, end) + 1;
    let mut derived = Vec::new();
    // `#[derive(A, B)]`: idents inside the parens after `derive`.
    if tokens.get(i + 2).is_some_and(|t| t.text == "derive") && is_punct(tokens.get(i + 3), "(") {
        derived = ident_texts(tokens, i + 4, close.saturating_sub(1));
    }
    (close, derived)
}

/// Parses a `fn` at `i` (the `fn` keyword); records it and returns the index
/// just past the item.
fn parse_fn(
    tokens: &[Token],
    i: usize,
    end: usize,
    impl_type: Option<&str>,
    impl_trait: Option<&str>,
    out: &mut FileItems,
) -> usize {
    let Some(name_tok) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
        return i + 1;
    };
    let sig_start = i + 2;
    // Return types never contain a bare `{`; where-clauses end at it.
    let (sig_end, body) = match seek_body_open(tokens, sig_start, end) {
        Ok(open) => (open, (open, matching_close(tokens, open, end))),
        Err(semi) => (semi, (0, 0)), // bodiless decl
    };
    out.fns.push(FnItem {
        name: name_tok.text.clone(),
        impl_type: impl_type.map(str::to_string),
        impl_trait: impl_trait.map(str::to_string),
        line: tokens[i].line,
        signature: (sig_start, sig_end),
        body,
    });
    if body == (0, 0) {
        return sig_end + 1;
    }
    // Recurse for nested fns (they re-enter parse_block through the
    // generic scan: only item keywords are interpreted in there).
    parse_block(tokens, body.0 + 1, body.1, impl_type, impl_trait, out);
    body.1 + 1
}

/// Extracts `(type, trait)` from the tokens of an impl header
/// `tokens[start..open)` — everything between `impl` and the body `{`.
///
/// Grammar handled: `impl<G> TraitPath<A> for TypePath<B> where ...` and
/// `impl<G> TypePath<B> where ...`. The "name" of a path is its last
/// identifier at angle-depth 0 (so `fmt::Debug` → `Debug`,
/// `FlatMap<u64, Line>` → `FlatMap`).
fn parse_impl_header(
    tokens: &[Token],
    start: usize,
    open: usize,
) -> (Option<String>, Option<String>) {
    let mut angle = 0i32;
    let mut split = None; // index of a top-level `for`
    let mut stop = open; // start of a `where` clause, if any
    for (j, t) in tokens.iter().enumerate().take(open).skip(start) {
        match (t.kind, t.text.as_str()) {
            (TokenKind::Punct, "<") => angle += 1,
            (TokenKind::Punct, ">") => angle = (angle - 1).max(0),
            (TokenKind::Ident, "for") if angle == 0 && split.is_none() => split = Some(j),
            (TokenKind::Ident, "where") if angle == 0 => {
                stop = j;
                break;
            }
            _ => {}
        }
    }
    let path_name = |lo: usize, hi: usize| -> Option<String> {
        let mut depth = 0i32;
        let mut name = None;
        for t in &tokens[lo..hi] {
            match (t.kind, t.text.as_str()) {
                (TokenKind::Punct, "<") => depth += 1,
                (TokenKind::Punct, ">") => depth = (depth - 1).max(0),
                (TokenKind::Punct, "&") | (TokenKind::Ident, "mut") => {}
                (TokenKind::Ident, id) if depth == 0 && id != "dyn" => name = Some(id.to_string()),
                _ => {}
            }
        }
        name
    };
    match split {
        Some(f) => (path_name(f + 1, stop), path_name(start, f)),
        None => (path_name(start, stop), None),
    }
}

/// Parses a `struct`/`enum`/`union` at `i`; records name, derives, fields.
fn parse_type_item(
    tokens: &[Token],
    i: usize,
    end: usize,
    derives: &mut Vec<String>,
    attr_line: Option<u32>,
    out: &mut FileItems,
) -> usize {
    let Some(name_tok) = tokens.get(i + 1).filter(|t| t.kind == TokenKind::Ident) else {
        return i + 1;
    };
    let mut item = TypeItem {
        name: name_tok.text.clone(),
        derives: std::mem::take(derives),
        line: attr_line.unwrap_or(tokens[i].line),
        fields: Vec::new(),
    };
    // Find the body: `{ fields }`, `( tuple );`, or unit `;`.
    let mut j = i + 2;
    let mut angle = 0i32;
    while j < end {
        let t = &tokens[j];
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle = (angle - 1).max(0),
                "{" if angle == 0 => {
                    let close = matching_close(tokens, j, end);
                    parse_fields(tokens, j + 1, close, &mut item.fields);
                    out.types.push(item);
                    return close + 1;
                }
                "(" if angle == 0 => {
                    let close = matching_close(tokens, j, end) + 1;
                    let idents = ident_texts(tokens, j + 1, close.saturating_sub(1));
                    item.fields.push((String::new(), idents));
                    out.types.push(item);
                    return seek_past(tokens, close, end, ";");
                }
                ";" if angle == 0 => {
                    out.types.push(item);
                    return j + 1;
                }
                _ => {}
            }
        }
        j += 1;
    }
    out.types.push(item);
    j
}

/// Parses `name: Type, ...` field lists (idents of each field's type). Enum
/// variants parse as fields with payload idents, which is exactly the
/// conservative reading the secret-type scan wants.
fn parse_fields(tokens: &[Token], mut i: usize, end: usize, out: &mut Vec<(String, Vec<String>)>) {
    while i < end {
        // Skip attributes and visibility on the field.
        if is_punct(tokens.get(i), "#") {
            i = matching_close(tokens, i + 1, end) + 1;
            continue;
        }
        if tokens[i].kind == TokenKind::Ident && tokens[i].text == "pub" {
            if is_punct(tokens.get(i + 1), "(") {
                i = matching_close(tokens, i + 1, end) + 1;
            } else {
                i += 1;
            }
            continue;
        }
        let Some(name) = tokens.get(i).filter(|t| t.kind == TokenKind::Ident) else {
            i += 1;
            continue;
        };
        if is_punct(tokens.get(i + 1), ":") {
            // `name : Type ... ,` at depth 0.
            let mut j = i + 2;
            let mut depth = 0i32;
            let mut idents = Vec::new();
            while j < end {
                let t = &tokens[j];
                match (t.kind, t.text.as_str()) {
                    (TokenKind::Punct, "<") | (TokenKind::Punct, "(") | (TokenKind::Punct, "[") => {
                        depth += 1
                    }
                    (TokenKind::Punct, ">") | (TokenKind::Punct, ")") | (TokenKind::Punct, "]") => {
                        depth -= 1
                    }
                    (TokenKind::Punct, ",") if depth <= 0 => break,
                    (TokenKind::Ident, id) => idents.push(id.to_string()),
                    _ => {}
                }
                j += 1;
            }
            out.push((name.text.clone(), idents));
            i = j + 1;
        } else if is_punct(tokens.get(i + 1), "(") {
            // Enum variant with payload: record payload type idents.
            let close = matching_close(tokens, i + 1, end) + 1;
            let idents = ident_texts(tokens, i + 2, close.saturating_sub(1));
            out.push((name.text.clone(), idents));
            i = close;
        } else if is_punct(tokens.get(i + 1), "{") {
            // Struct-variant payload: recurse.
            let close = matching_close(tokens, i + 1, end);
            parse_fields(tokens, i + 2, close, out);
            i = close + 1;
        } else {
            i += 1;
        }
    }
}

/// Parses a fn signature's parameter list into `(name, type_idents)` pairs.
///
/// `self` receivers are not recorded (patterns that are not `name: Type`
/// degrade to nothing); the interprocedural lints only care about named
/// params and the identifiers of their declared types.
pub fn parse_params(tokens: &[Token], sig: (usize, usize)) -> Vec<(String, Vec<String>)> {
    let (lo, hi) = sig;
    let hi = hi.min(tokens.len());
    let Some(open) = (lo..hi).find(|&j| tokens[j].is_punct("(")) else {
        return Vec::new();
    };
    let close = matching_close(tokens, open, hi) + 1;
    let mut out = Vec::new();
    parse_fields(tokens, open + 1, close.saturating_sub(1), &mut out);
    out
}

fn is_punct(t: Option<&Token>, p: &str) -> bool {
    t.is_some_and(|t| t.is_punct(p))
}

/// [`idents_in`] as owned strings.
fn ident_texts(tokens: &[Token], lo: usize, hi: usize) -> Vec<String> {
    idents_in(tokens, lo, hi)
        .into_iter()
        .map(String::from)
        .collect()
}

/// `Ok` with the first `{` at paren depth 0 in `tokens[i..end)`, or `Err`
/// with the index of a `;` at angle/paren depth 0 that arrives first (`end`
/// when neither does).
fn seek_body_open(tokens: &[Token], i: usize, end: usize) -> Result<usize, usize> {
    let mut angle = 0i32;
    let mut paren = 0i32;
    for (j, t) in tokens.iter().enumerate().take(end).skip(i) {
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle = (angle - 1).max(0),
                "(" | "[" => paren += 1,
                ")" | "]" => paren -= 1,
                "{" if paren == 0 => return Ok(j),
                ";" if paren == 0 && angle <= 0 => return Err(j),
                _ => {}
            }
        }
    }
    Err(end)
}

/// Index just past the first `p` at `i..end`, or `end`.
fn seek_past(tokens: &[Token], i: usize, end: usize, p: &str) -> usize {
    for (j, t) in tokens.iter().enumerate().take(end).skip(i) {
        if t.kind == TokenKind::Punct && t.text == p {
            return j + 1;
        }
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn items(src: &str) -> FileItems {
        parse_items(&lex(src).tokens)
    }

    #[test]
    fn free_and_impl_fns_are_recovered() {
        let src = "fn free() { body(); }\n\
                   impl Widget { pub fn method(&self) -> u32 { 7 } }\n\
                   impl fmt::Debug for Widget { fn fmt(&self, f: &mut F) -> R { x } }";
        let it = items(src);
        let names: Vec<String> = it.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["free", "Widget::method", "Widget::fmt"]);
        assert_eq!(it.fns[2].impl_trait.as_deref(), Some("Debug"));
    }

    #[test]
    fn generic_impl_headers_resolve_to_last_path_ident() {
        let src = "impl<K: Ord, V> FlatMap<K, V> { fn len(&self) -> usize { 0 } }\n\
                   impl<'a> core::ops::Drop for Guard<'a> { fn drop(&mut self) {} }";
        let it = items(src);
        assert_eq!(it.fns[0].impl_type.as_deref(), Some("FlatMap"));
        assert_eq!(it.fns[1].impl_type.as_deref(), Some("Guard"));
        assert_eq!(it.fns[1].impl_trait.as_deref(), Some("Drop"));
    }

    #[test]
    fn nested_modules_and_fns_attribute_correctly() {
        let src = "mod outer { impl T { fn a() { fn inner() {} } } }\nfn tail() {}";
        let it = items(src);
        let names: Vec<String> = it.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(names, vec!["T::a", "T::inner", "tail"]);
    }

    #[test]
    fn derives_and_fields_are_captured() {
        let src = "#[derive(Clone, Debug)]\npub struct Holder {\n    pub aes: Aes128,\n    count: u64,\n    opt: Option<MacEngine>,\n}";
        let it = items(src);
        assert_eq!(it.types.len(), 1);
        let t = &it.types[0];
        assert_eq!(t.name, "Holder");
        assert_eq!(t.derives, vec!["Clone", "Debug"]);
        assert_eq!(t.line, 1);
        assert_eq!(t.fields[0], ("aes".into(), vec!["Aes128".into()]));
        assert_eq!(
            t.fields[2],
            ("opt".into(), vec!["Option".into(), "MacEngine".into()])
        );
    }

    #[test]
    fn tuple_structs_enums_and_unit_structs_parse() {
        let src =
            "struct Wrap(Aes128, u8);\nstruct Unit;\nenum E { A(MacEngine), B { mac: Mac64 }, C }";
        let it = items(src);
        assert_eq!(it.types.len(), 3);
        assert_eq!(it.types[0].fields[0].1, vec!["Aes128", "u8"]);
        assert!(it.types[1].fields.is_empty());
        let e = &it.types[2];
        assert!(e
            .fields
            .iter()
            .any(|(n, tys)| n == "A" && tys == &vec!["MacEngine".to_string()]));
        assert!(e.fields.iter().any(|(n, _)| n == "mac"));
    }

    #[test]
    fn bodiless_trait_methods_are_recorded_without_bodies() {
        let src = "trait T { fn required(&self) -> u8; fn provided(&self) { x() } }";
        let it = items(src);
        assert_eq!(it.fns.len(), 2);
        assert_eq!(it.fns[0].body, (0, 0));
        assert_ne!(it.fns[1].body, (0, 0));
    }

    #[test]
    fn where_clauses_and_return_generics_do_not_derail() {
        let src = "fn f<T>(x: T) -> Vec<T> where T: Clone { body() }";
        let it = items(src);
        assert_eq!(it.fns.len(), 1);
        assert_eq!(it.fns[0].name, "f");
    }

    #[test]
    fn qualified_matching() {
        let src = "impl A { fn go() {} }\nfn go() {}";
        let it = items(src);
        assert!(it.fns[0].matches("A::go"));
        assert!(!it.fns[0].matches("go"));
        assert!(it.fns[1].matches("go"));
        assert!(!it.fns[1].matches("A::go"));
    }
}
