//! The workspace's one JSON reader.
//!
//! The workspace *emits* JSON through hand-rolled formatting (the
//! [`crate::registry`] documents, the trace exporters, serve responses);
//! it reads JSON in two places: the request lines `nda-serve` clients
//! send, and the exporter golden tests that check a trace is well
//! formed. This is a strict recursive-descent parser over the standard
//! grammar — no extensions, no trailing garbage — kept deliberately tiny
//! so the vendored-deps-only constraint holds.
//!
//! Every request byte comes from a client, so the parser is total and
//! linear: nesting deeper than [`MAX_DEPTH`] is an error rather than a
//! stack overflow (which would abort the whole server), and strings are
//! decoded one character at a time from the current position.

/// Deepest array/object nesting a document may have. Requests nest two
/// levels; the cap keeps the recursion far inside a thread's stack.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Object keys keep their textual order (requests
/// are tiny; linear lookup beats pulling in a map).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers up to 2^53 round-trip exactly.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON document; trailing non-whitespace is an
    /// error (a request line is exactly one object).
    pub fn parse(src: &str) -> Result<Json, String> {
        let mut p = Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly
    /// (rejects fractions, negatives and anything above 2^53 where f64
    /// stops being exact).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
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
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
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
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte {} in value", self.pos)),
        }
    }

    /// Parse one array or object with `f`, one level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .ok_or("bad \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by the
                            // protocol; reject rather than mis-decode.
                            out.push(char::from_u32(cp).ok_or(format!("invalid \\u{hex} escape"))?);
                        }
                        other => return Err(format!("invalid escape '\\{}'", other as char)),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `pos` only ever advances
                    // by whole characters, so it is a char boundary of
                    // `src` and the slice is O(1).
                    let c = self.src[self.pos..].chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err("raw control character in string".into());
                    }
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// `-? digits (. digits)? ([eE] [+-]? digits)?`.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits("digits")?;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("fraction digits")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("exponent digits")?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number {text:?}"))
    }

    /// Consume one or more ASCII digits.
    fn digits(&mut self, what: &str) -> Result<(), String> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected {what} at byte {}", self.pos));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_request_shaped_object() {
        let v = Json::parse(
            r#"{"id":3,"op":"run","workload":"mcf","variants":["OoO","Strict"],"iters":200,"deep":{"x":null,"y":true}}"#,
        )
        .unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("op").unwrap().as_str(), Some("run"));
        assert_eq!(v.get("variants").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            v.get("deep").unwrap().get("y").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(v.get("deep").unwrap().get("x"), Some(&Json::Null));
    }

    #[test]
    fn unescapes_strings() {
        let v = Json::parse(r#"{"s":"a\nb\t\"c\" A"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\nb\t\"c\" A"));
    }

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "2E+10",
            r#"{"a":[1,2,{"b":"c\n"}],"d":true}"#,
            "  [ 1 , \"x\\u00ff\" ]  ",
        ] {
            assert!(Json::parse(ok).is_ok(), "{ok}");
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "{",
            "{} trailing",
            r#"{"a":01x}"#,
            "01x",
            "[1,]",
            "[1 2]",
            "{\"a\" 1}",
            "\"\u{1}\"",
            "\"unterminated",
            "\"bad\\q\"",
            "\"\\u+0ff\"",
            "\"\\u12\"",
            "1.",
            "-",
            "1e",
            "1e+",
            "-.5",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // On a fresh thread with the default stack: an overflow there
        // would abort the whole test process, not fail one test.
        let deep = "[".repeat(100_000);
        let r = std::thread::spawn(move || Json::parse(&deep))
            .join()
            .unwrap();
        assert!(r.unwrap_err().contains("nesting"));
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&over).is_err());
    }

    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        // Decoding is one pass over the input, so a megabyte takes
        // milliseconds; the budget leaves room for a slow debug build.
        let body: String = "aé\\\\".repeat(1 << 18);
        let doc = format!("{{\"s\":\"{body}\"}}");
        assert!(doc.len() > 1_000_000);
        let t = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        let took = t.elapsed();
        assert_eq!(v.get("s").unwrap().as_str().unwrap().len(), 4 << 18);
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    }

    #[test]
    fn u64_guards_exactness() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(
            Json::parse("2000000000").unwrap().as_u64(),
            Some(2_000_000_000)
        );
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }
}
