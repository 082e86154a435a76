//! Minimal in-tree stand-in for the `serde` crate.
//!
//! The build environment has no access to a crates.io mirror, so this shim
//! provides exactly the surface the workspace uses: the `Serialize` /
//! `Deserialize` traits and their two derive macros.
//!
//! The two directions are deliberately asymmetric:
//!
//! * [`Serialize`] streams. Its one method appends the value's compact
//!   JSON to a `String`, field by field, with no intermediate tree — the
//!   role serde's `Serializer` plays in its data model. The
//!   `serde_json` shim's `to_string` is just a call to it.
//! * [`Deserialize`] reads a parsed [`Value`] tree. `serde_json` also
//!   builds a [`Value`] for the few cold callers that want one (pretty
//!   output, `to_value`) by parsing the writer's own bytes, so a tree and
//!   the bytes cannot disagree.
//!
//! The byte contract: object keys in declaration order, enums externally
//! tagged, integers as `Display`, floats as `{f}` of the `f64` (an `f32` is
//! widened first), non-finite floats rejected, strings escaped by
//! [`write_str`]. The pipeline's determinism tests and the published
//! dataset digests rely on it.

pub use serde_derive::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A JSON-like value tree. Integer and unsigned variants are kept separate
/// from floats so `u64` seeds above 2^53 round-trip exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    /// Insertion-ordered map (field declaration order).
    Object(Vec<(String, Value)>),
}

impl Value {
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Look up a field of an object.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == name).map(|(_, v)| v))
    }

    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// Serialization error: the value has no JSON form.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(pub String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "serialize error: {}", self.0)
    }
}

impl std::error::Error for Error {}

/// Deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deserialize error: {}", self.0)
    }
}

impl std::error::Error for DeError {}

impl DeError {
    pub fn expected(what: &str, got: &Value) -> DeError {
        DeError(format!("expected {what}, got {}", got.kind()))
    }
}

/// Serialize by streaming compact JSON.
pub trait Serialize {
    /// Append this value's compact JSON to `out`. On `Err`, `out` holds a
    /// partial document.
    fn write_json(&self, out: &mut String) -> Result<(), Error>;
}

/// Deserialize from the [`Value`] data model.
pub trait Deserialize: Sized {
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl Serialize for Value {
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => b.write_json(out)?,
            Value::Int(i) => i.write_json(out)?,
            Value::UInt(u) => u.write_json(out)?,
            Value::Float(f) => write_f64(*f, out)?,
            Value::Str(s) => write_str(s, out),
            Value::Array(items) => items.write_json(out)?,
            Value::Object(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(key, out);
                    out.push(':');
                    value.write_json(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

/// Derive-macro helper: fetch + deserialize one field of an object.
pub fn field<T: Deserialize>(obj: &[(String, Value)], name: &str) -> Result<T, DeError> {
    match obj.iter().find(|(k, _)| k == name) {
        Some((_, v)) => T::from_value(v),
        None => Err(DeError(format!("missing field `{name}`"))),
    }
}

// ----------------------------------------------------------------- writers

/// Append `s` as a JSON string literal. `"` and `\` are backslash-escaped,
/// `\n`, `\r` and `\t` get their short escapes, other characters below
/// U+0020 are written as `\u00xx`, and everything else is copied as is.
pub fn write_str(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut clean = 0;
    while let Some(offset) = bytes[clean..].iter().position(|&b| needs_escape(b)) {
        // An ASCII byte is always a char boundary.
        let i = clean + offset;
        out.push_str(&s[clean..i]);
        match bytes[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            byte => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

fn needs_escape(byte: u8) -> bool {
    byte < 0x20 || byte == b'"' || byte == b'\\'
}

/// Append a finite float as `{f}`, Rust's shortest round-trip form. NaN
/// and the infinities have no JSON form and are rejected.
fn write_f64(f: f64, out: &mut String) -> Result<(), Error> {
    if !f.is_finite() {
        return Err(Error(format!("non-finite float {f} is not valid JSON")));
    }
    let _ = write!(out, "{f}");
    Ok(())
}

/// Writes one JSON object field by field: `{"key":value,…}`. The derive
/// and the hand-written impls that omit empty optional fields both use it.
/// Keys are field names and are written without escaping.
pub struct ObjectWriter<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> ObjectWriter<'a> {
    /// Open the object (`{`).
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        ObjectWriter { out, empty: true }
    }

    /// Append `"key":value`, preceded by a comma unless it is the first.
    /// `key` must need no escaping.
    pub fn field<T: Serialize + ?Sized>(&mut self, key: &str, value: &T) -> Result<(), Error> {
        debug_assert!(!key.bytes().any(needs_escape), "key {key:?} needs escaping");
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        value.write_json(self.out)
    }

    /// Close the object (`}`).
    pub fn end(self) {
        self.out.push('}');
    }
}

// ---------------------------------------------------------------- numbers

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn write_json(&self, out: &mut String) -> Result<(), Error> {
                let _ = write!(out, "{self}");
                Ok(())
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| DeError(format!("{i} out of range"))),
                    Value::UInt(u) => <$t>::try_from(*u)
                        .map_err(|_| DeError(format!("{u} out of range"))),
                    other => Err(DeError::expected("integer", other)),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        write_f64(*self, out)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            Value::UInt(u) => Ok(*u as f64),
            other => Err(DeError::expected("number", other)),
        }
    }
}

impl Serialize for f32 {
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        write_f64(f64::from(*self), out)
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|f| f as f32)
    }
}

// ----------------------------------------------------------- other scalars

impl Serialize for bool {
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        out.push_str(if *self { "true" } else { "false" });
        Ok(())
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

impl Serialize for String {
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        write_str(self, out);
        Ok(())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for str {
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        write_str(self, out);
        Ok(())
    }
}

impl Serialize for char {
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        write_str(self.encode_utf8(&mut [0; 4]), out);
        Ok(())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(DeError::expected("single-char string", other)),
        }
    }
}

// ------------------------------------------------------------- containers

impl<T: Serialize> Serialize for Option<T> {
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        match self {
            Some(t) => t.write_json(out),
            None => {
                out.push_str("null");
                Ok(())
            }
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        out.push('[');
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            item.write_json(out)?;
        }
        out.push(']');
        Ok(())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        self.as_slice().write_json(out)
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", other)),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        self.as_slice().write_json(out)
    }
}

impl<T: Deserialize + std::fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let items: Vec<T> = Vec::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| DeError(format!("expected array of {N}, got {len}")))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        (**self).write_json(out)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn write_json(&self, out: &mut String) -> Result<(), Error> {
        (**self).write_json(out)
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn write_json(&self, out: &mut String) -> Result<(), Error> {
                out.push('[');
                $(
                    if $idx > 0 {
                        out.push(',');
                    }
                    self.$idx.write_json(out)?;
                )+
                out.push(']');
                Ok(())
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let items = v.as_array().ok_or_else(|| DeError::expected("array", v))?;
                const LEN: usize = 0 $(+ { let _ = $idx; 1 })+;
                if items.len() != LEN {
                    return Err(DeError(format!("expected tuple of {LEN}, got {}", items.len())));
                }
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json<T: Serialize + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        value.write_json(&mut out).unwrap();
        out
    }

    #[test]
    fn integers_are_written_as_display() {
        assert_eq!(json(&0x4C61_6E67_4372_5558u64), "5503801609415710040");
        assert_eq!(json(&i64::MIN), "-9223372036854775808");
        assert_eq!(json(&-7i8), "-7");
    }

    #[test]
    fn option_none_is_null() {
        let none: Option<String> = None;
        assert_eq!(json(&none), "null");
        assert_eq!(Option::<String>::from_value(&Value::Null), Ok(None));
    }

    #[test]
    fn tuples_and_sequences_are_arrays() {
        assert_eq!(json(&(3usize, "x")), r#"[3,"x"]"#);
        assert_eq!(json(&(1u8,)), "[1]");
        assert_eq!(json(&[1.5f32, 2.0]), "[1.5,2]");
        assert_eq!(json(&Vec::<u8>::new()), "[]");
    }

    #[test]
    fn tuple_deserializes_from_array() {
        let v = Value::Array(vec![Value::UInt(3), Value::Str("x".into())]);
        let back: (usize, String) = Deserialize::from_value(&v).unwrap();
        assert_eq!(back, (3, "x".to_string()));
    }

    #[test]
    fn strings_use_the_escape_table() {
        assert_eq!(json("a\"b\\c\nd\re\tf"), r#""a\"b\\c\nd\re\tf""#);
        assert_eq!(json("\u{1}\u{1f}\u{7f}ক"), "\"\\u0001\\u001f\u{7f}ক\"");
        assert_eq!(json(&'"'), r#""\"""#);
    }

    #[test]
    fn value_tree_writes_compactly() {
        let v = Value::Object(vec![
            ("a".into(), Value::Array(vec![Value::Int(-1), Value::Null])),
            ("b".into(), Value::Float(0.5)),
        ]);
        assert_eq!(json(&v), r#"{"a":[-1,null],"b":0.5}"#);
    }
}
