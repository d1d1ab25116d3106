//! Minimal JSON support: an RFC 8259 string escaper, a small recursive-
//! descent parser, and a subset JSON-Schema validator — hand-rolled
//! because the workspace is fully offline (no serde).
//!
//! The validator understands the keywords this repository's schemas use:
//! `type` (string or array of strings; `"integer"` accepted), `required`,
//! `properties`, `additionalProperties: false`, `items`, `enum`,
//! `minItems`/`maxItems`. Unknown keywords are ignored, like real JSON
//! Schema.

use std::fmt::Write as _;

/// Escapes a string as a JSON string literal, including the quotes.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// A parsed JSON document. Objects keep their key order (parse order), so
/// re-rendering would be stable; duplicate keys keep the last value on
/// lookup, as most parsers do.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in parse order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up a key in an object; `None` for non-objects or absent keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, when it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The JSON type name used in schema `type` keywords.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so the bound keeps a hostile line (a serve request, a
/// checkpoint record) from overflowing the stack of the thread parsing it;
/// every document this repository writes nests a handful of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a human-readable message with a byte offset when the input is
/// not valid JSON, has trailing content, or nests arrays and objects
/// deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "invalid \\u escape".to_owned())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape '{hex}'"))?;
                            // Surrogate pairs are not needed by our own
                            // output; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar from the source slice.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "invalid utf-8 in string".to_owned())?;
                    let c = rest.chars().next().ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Validates `doc` against the schema subset described in the module docs.
///
/// # Errors
///
/// Returns the first violation found, with a JSON-pointer-style path.
pub fn validate(schema: &Json, doc: &Json) -> Result<(), String> {
    validate_at(schema, doc, "$")
}

fn type_matches(name: &str, doc: &Json) -> bool {
    match name {
        "integer" => matches!(doc, Json::Num(n) if n.fract() == 0.0),
        other => doc.type_name() == other,
    }
}

fn validate_at(schema: &Json, doc: &Json, path: &str) -> Result<(), String> {
    if let Some(ty) = schema.get("type") {
        let ok = match ty {
            Json::Str(name) => type_matches(name, doc),
            Json::Arr(names) => names
                .iter()
                .filter_map(Json::as_str)
                .any(|name| type_matches(name, doc)),
            _ => return Err(format!("{path}: schema 'type' must be a string or array")),
        };
        if !ok {
            return Err(format!(
                "{path}: expected type {ty:?}, found {}",
                doc.type_name()
            ));
        }
    }
    if let Some(Json::Arr(allowed)) = schema.get("enum") {
        if !allowed.contains(doc) {
            return Err(format!("{path}: value not in enum"));
        }
    }
    if let Some(Json::Arr(required)) = schema.get("required") {
        for key in required.iter().filter_map(Json::as_str) {
            if doc.get(key).is_none() {
                return Err(format!("{path}: missing required property '{key}'"));
            }
        }
    }
    if let (Some(Json::Obj(props)), Json::Obj(pairs)) = (schema.get("properties"), doc) {
        for (key, sub) in props {
            if let Some(value) = doc.get(key) {
                validate_at(sub, value, &format!("{path}.{key}"))?;
            }
        }
        if schema.get("additionalProperties") == Some(&Json::Bool(false)) {
            for (key, _) in pairs {
                if !props.iter().any(|(k, _)| k == key) {
                    return Err(format!("{path}: unexpected property '{key}'"));
                }
            }
        }
    }
    if let Json::Arr(items) = doc {
        if let Some(min) = schema.get("minItems").and_then(Json::as_num) {
            if (items.len() as f64) < min {
                return Err(format!("{path}: fewer than {min} items"));
            }
        }
        if let Some(max) = schema.get("maxItems").and_then(Json::as_num) {
            if (items.len() as f64) > max {
                return Err(format!("{path}: more than {max} items"));
            }
        }
        if let Some(item_schema) = schema.get("items") {
            for (i, item) in items.iter().enumerate() {
                validate_at(item_schema, item, &format!("{path}[{i}]"))?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn round_trips_escaped_strings() {
        let doc = parse(&format!("{{\"k\":{}}}", json_str("a\"\\\n\tb"))).unwrap();
        assert_eq!(doc.get("k").unwrap().as_str().unwrap(), "a\"\\\n\tb");
    }

    #[test]
    fn parses_nested_document() {
        let doc = parse("{\"a\":[1,2.5,-3e2],\"b\":{\"c\":null,\"d\":true}}").unwrap();
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(2.5),
                Json::Num(-300.0),
            ]))
        );
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&Json::Null));
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = "[".repeat(1_000_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let over = format!(
            "{}{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&over).is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn validates_types_required_and_items() {
        let schema = parse(
            "{\"type\":\"object\",\"required\":[\"n\",\"xs\"],\"properties\":{\
             \"n\":{\"type\":\"integer\"},\
             \"xs\":{\"type\":\"array\",\"items\":{\"type\":\"number\"}}}}",
        )
        .unwrap();
        let good = parse("{\"n\":3,\"xs\":[1,2]}").unwrap();
        assert!(validate(&schema, &good).is_ok());
        let non_integer = parse("{\"n\":3.5,\"xs\":[]}").unwrap();
        assert!(validate(&schema, &non_integer).is_err());
        let missing = parse("{\"n\":3}").unwrap();
        assert!(validate(&schema, &missing).is_err());
        let bad_item = parse("{\"n\":3,\"xs\":[\"no\"]}").unwrap();
        assert!(validate(&schema, &bad_item).is_err());
    }

    #[test]
    fn validates_additional_properties() {
        let schema = parse(
            "{\"type\":\"object\",\"properties\":{\"a\":{}},\
             \"additionalProperties\":false}",
        )
        .unwrap();
        assert!(validate(&schema, &parse("{\"a\":1}").unwrap()).is_ok());
        assert!(validate(&schema, &parse("{\"a\":1,\"b\":2}").unwrap()).is_err());
    }
}
