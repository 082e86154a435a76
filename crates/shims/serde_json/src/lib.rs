//! Minimal in-tree stand-in for `serde_json`.
//!
//! [`to_string`] is the serde shim's streaming writer and nothing more:
//! it hands an empty `String` to `Serialize::write_json`, which appends
//! compact JSON with no intermediate tree. Parsing goes the other way,
//! from JSON text into the shim's [`Value`] tree, which [`from_str`] then
//! deserializes.
//!
//! [`to_value`] and [`to_string_pretty`] are for cold callers that want a
//! tree: they parse the writer's own bytes, so the tree holds exactly
//! what `to_string` would write, and printing it compactly gives those
//! bytes back. Output is deterministic: object keys keep declaration
//! order and floats print via Rust's shortest round-trip formatting.

pub use serde::Value;
use serde::{Deserialize, Serialize};

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.0)
    }
}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

pub type Result<T> = std::result::Result<T, Error>;

/// Serialize a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    value.write_json(&mut out)?;
    Ok(out)
}

/// The [`Value`] tree of a value's JSON, parsed back from [`to_string`].
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value> {
    parse_value(&to_string(value)?)
}

/// Serialize to pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_pretty(&to_value(value)?, &mut out, 0)?;
    Ok(out)
}

/// Parse a JSON string into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let value = parse_value(s)?;
    Ok(T::from_value(&value)?)
}

fn write_pretty(v: &Value, out: &mut String, indent: usize) -> Result<()> {
    let pad = |out: &mut String, n: usize| out.push_str(&"  ".repeat(n));
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                write_pretty(item, out, indent + 1)?;
            }
            out.push('\n');
            pad(out, indent);
            out.push(']');
            Ok(())
        }
        Value::Object(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                serde::write_str(k, out);
                out.push_str(": ");
                write_pretty(val, out, indent + 1)?;
            }
            out.push('\n');
            pad(out, indent);
            out.push('}');
            Ok(())
        }
        other => Ok(other.write_json(out)?),
    }
}

// -------------------------------------------------------------------- parse

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            other => Err(self.err(&format!("unexpected byte `{}`", other as char))),
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad hex"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad hex"))?;
                            self.pos += 4;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    let hex2 = self
                                        .bytes
                                        .get(self.pos + 2..self.pos + 6)
                                        .ok_or_else(|| self.err("bad surrogate"))?;
                                    let low = u32::from_str_radix(
                                        std::str::from_utf8(hex2)
                                            .map_err(|_| self.err("bad hex"))?,
                                        16,
                                    )
                                    .map_err(|_| self.err("bad hex"))?;
                                    self.pos += 6;
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid codepoint"))?);
                        }
                        other => return Err(self.err(&format!("bad escape `\\{}`", other as char))),
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    fn number(&mut self) -> Result<Value> {
        let start = self.pos;
        let mut is_float = false;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        // Integers parse over their whole text, sign included, as `i64`
        // when negative and `u64` otherwise. `-0` and integers outside
        // that type's range read as floats, as real serde_json reads
        // them: the writer prints floats of 2^64 and more without a `.`.
        let integer = match text {
            _ if is_float => None,
            "-0" => Some(Value::Float(-0.0)),
            _ if text.starts_with('-') => text.parse::<i64>().ok().map(Value::Int),
            _ => text.parse::<u64>().ok().map(Value::UInt),
        };
        match integer {
            Some(v) => Ok(v),
            None => text.parse::<f64>().map(Value::Float).map_err(|_| {
                self.err(if is_float {
                    "invalid float"
                } else {
                    "invalid integer"
                })
            }),
        }
    }

    fn array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

fn parse_value(s: &str) -> Result<Value> {
    let mut p = Parser::new(s);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse `json` and write it back compactly.
    fn reprint(json: &str) -> String {
        to_string(&parse_value(json).unwrap()).unwrap()
    }

    #[test]
    fn scalars_round_trip() {
        for json in [
            "null",
            "true",
            "false",
            "0",
            "-5",
            "123456789012345678",
            "1.5",
            "\"hi\"",
        ] {
            assert_eq!(reprint(json), json);
        }
    }

    #[test]
    fn nested_round_trip() {
        let json = r#"{"a":[1,2,{"b":null}],"c":"x\ny","d":-2.5}"#;
        assert_eq!(reprint(json), json);
    }

    #[test]
    fn unicode_escapes() {
        let v = parse_value(r#""ক😀""#).unwrap();
        assert_eq!(v, Value::Str("ক😀".to_string()));
    }

    #[test]
    fn typed_round_trip() {
        let data: Vec<(u64, Option<String>)> = vec![(1, None), (2, Some("x".into()))];
        let json = to_string(&data).unwrap();
        let back: Vec<(u64, Option<String>)> = from_str(&json).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn pretty_is_reparseable() {
        let data = vec![1u32, 2, 3];
        let pretty = to_string_pretty(&data).unwrap();
        assert!(pretty.contains('\n'));
        let back: Vec<u32> = from_str(&pretty).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn to_value_writes_back_the_same_bytes() {
        fn check<T: Serialize>(x: T) {
            let bytes = to_string(&x).unwrap();
            let tree = to_value(&x).unwrap();
            assert_eq!(to_string(&tree).unwrap(), bytes);
        }
        for f in [0.1, 1e-7, -0.0, 1e20, f64::MAX, 5e-324] {
            check(f);
        }
        check(i64::MIN);
        check(u64::MAX);
    }

    #[test]
    fn integers_parse_over_their_whole_text() {
        let min = to_string(&i64::MIN).unwrap();
        assert_eq!(from_str::<i64>(&min), Ok(i64::MIN));
        assert_eq!(from_str::<i8>("-128"), Ok(-128));
        // Beyond i64: a float, so no integer type accepts it.
        assert_eq!(
            parse_value("-18446744073709551615"),
            Ok(Value::Float(-18_446_744_073_709_551_615.0))
        );
        assert!(from_str::<u64>("-18446744073709551615").is_err());
        assert!(from_str::<i64>("-9223372036854775809").is_err());
    }

    #[test]
    fn integer_literals_beyond_u64_read_as_floats() {
        assert_eq!(to_string(&1e20).unwrap(), "100000000000000000000");
        assert_eq!(from_str::<f64>("100000000000000000000"), Ok(1e20));
        assert_eq!(from_str::<u64>("18446744073709551615"), Ok(u64::MAX));
        assert!(from_str::<u64>("18446744073709551616").is_err());
    }

    #[test]
    fn minus_zero_reads_as_a_negative_float() {
        let v = from_str::<f64>("-0").unwrap();
        assert!(v == 0.0 && v.is_sign_negative());
        assert_eq!(to_string(&v).unwrap(), "-0");
    }

    #[derive(Serialize)]
    enum Shape {
        Unit,
        Newtype(u8),
        Tuple(u8, String),
        Struct { a: Option<u8>, b: Vec<Vec<u8>> },
    }

    #[derive(Serialize)]
    struct Empty {}

    #[derive(Serialize)]
    struct Newtype(String);

    #[derive(Serialize)]
    struct Pair(u8, bool);

    #[derive(Serialize)]
    struct Record {
        name: String,
        missing: Option<u8>,
        nested: Vec<Vec<i32>>,
        shapes: Vec<Shape>,
    }

    #[test]
    fn derived_enums_are_externally_tagged() {
        assert_eq!(to_string(&Shape::Unit).unwrap(), r#""Unit""#);
        assert_eq!(to_string(&Shape::Newtype(7)).unwrap(), r#"{"Newtype":7}"#);
        assert_eq!(
            to_string(&Shape::Tuple(1, "x".into())).unwrap(),
            r#"{"Tuple":[1,"x"]}"#
        );
        let s = Shape::Struct {
            a: None,
            b: vec![vec![1], vec![]],
        };
        assert_eq!(
            to_string(&s).unwrap(),
            r#"{"Struct":{"a":null,"b":[[1],[]]}}"#
        );
    }

    #[test]
    fn derived_structs_write_fields_in_declaration_order() {
        assert_eq!(to_string(&Empty {}).unwrap(), "{}");
        assert_eq!(to_string(&Newtype("n".into())).unwrap(), r#""n""#);
        assert_eq!(to_string(&Pair(2, true)).unwrap(), "[2,true]");
        let r = Record {
            name: "a\"b".into(),
            missing: None,
            nested: vec![vec![-1, 2], vec![]],
            shapes: vec![Shape::Unit, Shape::Newtype(0)],
        };
        assert_eq!(
            to_string(&r).unwrap(),
            r#"{"name":"a\"b","missing":null,"nested":[[-1,2],[]],"shapes":["Unit",{"Newtype":0}]}"#
        );
    }

    #[test]
    fn non_finite_floats_are_rejected_at_any_depth() {
        #[derive(Serialize)]
        struct Inner {
            x: f64,
        }
        #[derive(Serialize)]
        struct Middle {
            inner: Vec<Inner>,
        }
        #[derive(Serialize)]
        struct Outer {
            middle: Middle,
        }
        let doc = Outer {
            middle: Middle {
                inner: vec![Inner { x: f64::NAN }],
            },
        };
        let err = to_string(&doc).unwrap_err();
        assert_eq!(err.0, "non-finite float NaN is not valid JSON");
        let err = to_string(&f32::INFINITY).unwrap_err();
        assert_eq!(err.0, "non-finite float inf is not valid JSON");
    }

    #[test]
    fn control_characters_use_unicode_escapes() {
        assert_eq!(to_string("\u{1f}").unwrap(), r#""\u001f""#);
        assert_eq!(to_string("\u{0}\t").unwrap(), r#""\u0000\t""#);
    }
}
