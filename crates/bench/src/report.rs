//! The strict JSON parser behind perfbench's contract check.
//!
//! Serde is unavailable offline, so this is a tiny hand-rolled JSON value
//! tree and a strict parser for it. The `perfbench` self-test reads
//! `BENCHMARK.json` through [`Json::parse`] and [`Json::get`], so a
//! malformed contract fails loudly instead of being half-read.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Bool(bool),
    /// A number written with `.`, `e` or `E`.
    Num(f64),
    Int(i64),
    Str(String),
    Arr(Vec<Json>),
    /// Fields in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Look up a field of a [`Json::Obj`] by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Parse one complete JSON document. Strict: trailing input (other
    /// than whitespace), trailing commas, `null` and bare tokens are
    /// errors. A number without `.`/`e` parses as [`Json::Int`], otherwise
    /// [`Json::Num`].
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing input at byte {pos}"));
        }
        Ok(value)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Json::Str(s) => s,
                    _ => return Err(format!("object key must be a string at byte {pos}")),
                };
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            Err(format!("null at byte {pos}: reports never contain null"))
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte '{}' at {pos}", *c as char)),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut s = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(s);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(b'r') => s.push('\r'),
                    Some(b'b') => s.push('\u{8}'),
                    Some(b'f') => s.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| format!("bad \\u escape: {e}"))?;
                        // Reports only ever escape control characters
                        // (BMP, non-surrogate); reject the rest.
                        s.push(
                            char::from_u32(code)
                                .ok_or(format!("\\u{code:04x} is not a scalar value"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is
                // always on a boundary).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty");
                if (c as u32) < 0x20 {
                    return Err(format!("unescaped control character at byte {pos}"));
                }
                s.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(&c) = b.get(*pos) {
        match c {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if float {
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number '{text}': {e}"))
    } else {
        text.parse::<i64>()
            .map(Json::Int)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(text: &str) -> Json {
        Json::Str(text.to_string())
    }

    #[test]
    fn parse_distinguishes_int_from_float() {
        assert_eq!(Json::parse("42").unwrap(), Json::Int(42));
        assert_eq!(Json::parse("-3").unwrap(), Json::Int(-3));
        assert_eq!(Json::parse("42.0").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("6.5").unwrap(), Json::Num(6.5));
        assert_eq!(Json::parse("-1e2").unwrap(), Json::Num(-100.0));
        assert_eq!(Json::parse("2E1").unwrap(), Json::Num(20.0));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "tru",
            "null",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"raw \n newline\"",
            "{\"a\":1} trailing",
            "{1:2}",
            "1 2",
            "99999999999999999999",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Whitespace is the only trailing input allowed.
        assert_eq!(Json::parse(" 1 \n\t").unwrap(), Json::Int(1));
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(
            Json::parse(r#""a\"b\\c\/d\n\t\r\b\f\u0001é""#).unwrap(),
            s("a\"b\\c/d\n\t\r\u{8}\u{c}\u{1}é")
        );
    }

    #[test]
    fn empty_collections() {
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(vec![]));
        assert_eq!(Json::parse("{ }").unwrap(), Json::Obj(vec![]));
        assert_eq!(
            Json::parse("[[], {}]").unwrap(),
            Json::Arr(vec![Json::Arr(vec![]), Json::Obj(vec![])])
        );
    }

    #[test]
    fn parses_nested_structures() {
        let j = Json::parse(
            r#" {"sha": "abc", "sizes": [200, 1000], "ok": true,
                 "nested": {"tab": "a\tb", "list": [{"x": false}, 6.5]}} "#,
        )
        .unwrap();
        assert_eq!(
            j,
            Json::Obj(vec![
                ("sha".into(), s("abc")),
                (
                    "sizes".into(),
                    Json::Arr(vec![Json::Int(200), Json::Int(1000)])
                ),
                ("ok".into(), Json::Bool(true)),
                (
                    "nested".into(),
                    Json::Obj(vec![
                        ("tab".into(), s("a\tb")),
                        (
                            "list".into(),
                            Json::Arr(vec![
                                Json::Obj(vec![("x".into(), Json::Bool(false))]),
                                Json::Num(6.5),
                            ]),
                        ),
                    ]),
                ),
            ])
        );
    }

    #[test]
    fn get_accessor() {
        let j = Json::parse(r#"{"a":1,"b":2.5,"c":"x"}"#).unwrap();
        assert_eq!(j.get("a"), Some(&Json::Int(1)));
        assert_eq!(j.get("b"), Some(&Json::Num(2.5)));
        assert_eq!(j.get("c"), Some(&s("x")));
        assert_eq!(j.get("missing"), None);
        assert_eq!(Json::Int(1).get("a"), None, "only objects have fields");
    }
}
