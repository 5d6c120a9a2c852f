//! The JSON helpers every hand-rolled report writer shares.
//!
//! The workspace is dependency-free, so each report (`experiments bench`,
//! `dolos-trace`, `dolos-verify`) formats its own JSON.
//! Free text goes through [`escape`], and the reports' tests check their
//! output with [`validate`].
//!
//! # Examples
//!
//! ```
//! use dolos_sim::json;
//!
//! let doc = format!("{{\"msg\": \"{}\"}}", json::escape("say \"hi\"\n"));
//! assert_eq!(doc, r#"{"msg": "say \"hi\"\n"}"#);
//! assert!(json::validate(&doc).is_ok());
//! assert!(json::validate("{\"msg\": [}").is_err());
//! ```

use core::fmt;
use std::fmt::Write as _;

/// Escapes `s` for embedding between the quotes of a JSON string.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Why [`validate`] rejected a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the first offending character.
    pub offset: usize,
    /// What is wrong there.
    pub reason: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Scans `text` for the faults a hand-rolled JSON writer can make: a bad
/// escape or raw control character inside a string, an unterminated
/// string, or a bracket that is unbalanced or closes the wrong kind.
/// Numbers and literals between strings are not parsed. Never panics.
///
/// # Errors
///
/// Returns the first fault found.
pub fn validate(text: &str) -> Result<(), JsonError> {
    let fault = |offset, reason| Err(JsonError { offset, reason });
    // Closing brackets of the open containers, innermost last.
    let mut open = Vec::new();
    let mut string_start = None;
    let mut chars = text.char_indices();
    while let Some((at, c)) = chars.next() {
        if string_start.is_some() {
            match c {
                '"' => string_start = None,
                '\\' => match chars.next().map(|(_, e)| e) {
                    Some('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') => {}
                    Some('u')
                        if (0..4)
                            .all(|_| chars.next().is_some_and(|(_, h)| h.is_ascii_hexdigit())) => {}
                    _ => return fault(at, "invalid escape"),
                },
                c if c < ' ' => return fault(at, "raw control character in a string"),
                _ => {}
            }
        } else {
            match c {
                '"' => string_start = Some(at),
                '{' => open.push('}'),
                '[' => open.push(']'),
                '}' | ']' if open.pop() != Some(c) => return fault(at, "unbalanced bracket"),
                _ => {}
            }
        }
    }
    match string_start {
        Some(at) => fault(at, "unterminated string"),
        None if !open.is_empty() => fault(text.len(), "unclosed bracket"),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_what_a_writer_can_break() {
        let nested = "{\"a\": [1, {\"b\": \"}]\\\"\\u00e9\"}], \"c\": [[]]}\n";
        assert_eq!(validate(nested), Ok(()));
        for (doc, offset) in [
            ("[1, 2", 5),
            ("[1}", 2),
            ("{]", 1),
            ("]", 0),
            ("{\"open: 1}", 1),
            ("[\"bad \\x\"]", 6),
            ("[\"\\u12g4\"]", 2),
            ("[\"raw \n\"]", 6),
        ] {
            assert_eq!(validate(doc).map_err(|e| e.offset), Err(offset), "{doc:?}");
        }
    }

    #[test]
    fn escaped_text_always_forms_a_valid_string() {
        let mut hostile: String = (0u8..0x20).map(char::from).collect();
        hostile.push_str("quote \" backslash \\ \u{e9} \u{6f22}");
        let doc = format!("[\"{}\"]", escape(&hostile));
        assert_eq!(validate(&doc), Ok(()));
        assert!(doc.contains("\\u0007") && doc.contains("\\n") && doc.contains("\\\""));
        assert_eq!(escape("plain"), "plain");
    }
}
