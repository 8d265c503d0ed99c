//! Minimal JSON emission and validation.
//!
//! The workspace has no serde (offline build), so metrics snapshots and
//! events serialize through this hand-rolled writer, and the tests
//! check what the engine and the server emit with the validator here
//! (`observability.rs` in `lsm-core`, `harness.rs` in `lsm-server`). Only the
//! subset of JSON the emitters produce is supported on the write side;
//! the validator accepts any RFC 8259 document.

/// Escapes a string for inclusion in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Incremental JSON object writer; field order is caller-controlled and
/// therefore deterministic.
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl JsonObj {
    /// Starts an object (`{`).
    pub fn new() -> Self {
        JsonObj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, name: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(&escape(name));
        self.buf.push_str("\":");
    }

    /// Adds an unsigned integer field.
    pub fn u64(mut self, name: &str, v: u64) -> Self {
        self.key(name);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a signed integer field.
    pub fn i64(mut self, name: &str, v: i64) -> Self {
        self.key(name);
        self.buf.push_str(&v.to_string());
        self
    }

    /// Adds a string field.
    pub fn str(mut self, name: &str, v: &str) -> Self {
        self.key(name);
        self.buf.push('"');
        self.buf.push_str(&escape(v));
        self.buf.push('"');
        self
    }

    /// Adds a pre-serialized JSON value verbatim.
    pub fn raw(mut self, name: &str, v: &str) -> Self {
        self.key(name);
        self.buf.push_str(v);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for JsonObj {
    fn default() -> Self {
        Self::new()
    }
}

/// Validates one JSON value; returns the error position on failure.
pub fn validate_json(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(())
}

/// Validates newline-delimited JSON; returns the number of non-empty
/// lines, or the first offending line.
pub fn validate_json_lines(text: &str) -> Result<usize, String> {
    let mut n = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_json(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        n += 1;
    }
    Ok(n)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<(), String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => string(b, pos),
        Some(b't') => literal(b, pos, "true"),
        Some(b'f') => literal(b, pos, "false"),
        Some(b'n') => literal(b, pos, "null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        _ => Err(format!("expected a value at byte {}", *pos)),
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'{')?;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, pos);
        string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'[')?;
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        value(b, pos)?;
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<(), String> {
    expect(b, pos, b'"')?;
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !b.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {}", *pos));
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte at {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".into())
}

fn number(b: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let digits = |b: &[u8], pos: &mut usize| {
        let s = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > s
    };
    if !digits(b, pos) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(b, pos) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(b, pos) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

fn literal(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_validates() {
        let line = JsonObj::new()
            .str("type", "flush_end")
            .u64("bytes", 4096)
            .i64("delta", -3)
            .str("note", "quotes \" and\nnewlines")
            .raw("nested", "[1,2,3]")
            .finish();
        validate_json(&line).unwrap();
        assert!(line.starts_with("{\"type\":\"flush_end\""));
    }

    #[test]
    fn validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "{\"a\":[true,false,null],\"b\":{\"c\":\"\\u00e9\"}}",
            " { \"x\" : 1 } ",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in ["{", "{]", "{'a':1}", "{\"a\":}", "01x", "\"\\q\"", "{} {}"] {
            assert!(validate_json(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn jsonl_counts_lines() {
        let text = "{\"a\":1}\n\n{\"b\":2}\n";
        assert_eq!(validate_json_lines(text).unwrap(), 2);
        assert!(validate_json_lines("{\"a\":1}\nnope\n").is_err());
    }

    #[test]
    fn escape_round_trip_is_valid() {
        let s = escape("tab\there \"quoted\" \\ back \u{1} end");
        validate_json(&format!("\"{s}\"")).unwrap();
    }
}
