//! `#[derive(Serialize, Deserialize)]` for the in-tree serde shim.
//!
//! The offline build cannot use `syn`/`quote`, so the input item is parsed
//! directly from the `proc_macro` token stream. Supported shapes — the only
//! ones the workspace derives on:
//!
//! * structs with named fields (including empty `{}`),
//! * enums whose variants are unit, tuple, or struct-like.
//!
//! `Serialize` expands to a streaming writer
//! (`serde::Serialize::write_json`): named fields go out in declaration
//! order through `serde::ObjectWriter`, newtypes transparently, tuples as
//! arrays, and enums in serde's externally tagged form, so the JSON looks
//! like real serde output. `Deserialize` expands to
//! `serde::Deserialize::from_value` over the parsed `serde::Value` tree.

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::str::FromStr;

enum Fields {
    Named(Vec<String>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Skip any number of `#[...]` attribute groups starting at `i`.
fn skip_attrs(tokens: &[TokenTree], mut i: usize) -> usize {
    while i + 1 < tokens.len() {
        match (&tokens[i], &tokens[i + 1]) {
            (TokenTree::Punct(p), TokenTree::Group(g))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                i += 2;
            }
            _ => break,
        }
    }
    i
}

/// Skip a visibility modifier (`pub`, `pub(crate)`, …) starting at `i`.
fn skip_vis(tokens: &[TokenTree], mut i: usize) -> usize {
    if matches!(&tokens[i], TokenTree::Ident(id) if id.to_string() == "pub") {
        i += 1;
        if matches!(&tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            i += 1;
        }
    }
    i
}

/// Count top-level commas (angle-bracket aware) in a token slice; used to
/// derive tuple-variant arity from its parenthesized field list.
fn top_level_commas(tokens: &[TokenTree]) -> usize {
    let mut depth = 0i32;
    let mut commas = 0;
    for t in tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => depth += 1,
                '>' => depth -= 1,
                ',' if depth == 0 => commas += 1,
                _ => {}
            }
        }
    }
    commas
}

/// Parse `name: Type, …` (named fields) from a brace-group body.
fn parse_named_fields(body: &[TokenTree]) -> Vec<String> {
    let mut fields = Vec::new();
    let mut i = 0;
    while i < body.len() {
        i = skip_attrs(body, i);
        if i >= body.len() {
            break;
        }
        i = skip_vis(body, i);
        let TokenTree::Ident(name) = &body[i] else {
            panic!("serde_derive: expected field name, got {:?}", body[i]);
        };
        fields.push(name.to_string());
        i += 1;
        assert!(
            matches!(&body[i], TokenTree::Punct(p) if p.as_char() == ':'),
            "serde_derive: expected `:` after field name"
        );
        i += 1;
        // Skip the type: everything to the next comma at angle depth 0.
        let mut depth = 0i32;
        while i < body.len() {
            if let TokenTree::Punct(p) = &body[i] {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' => depth -= 1,
                    ',' if depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
    }
    fields
}

fn parse_variants(body: &[TokenTree]) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut i = 0;
    while i < body.len() {
        i = skip_attrs(body, i);
        if i >= body.len() {
            break;
        }
        let TokenTree::Ident(name) = &body[i] else {
            panic!("serde_derive: expected variant name, got {:?}", body[i]);
        };
        let name = name.to_string();
        i += 1;
        let fields = match body.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                let trailing =
                    matches!(inner.last(), Some(TokenTree::Punct(p)) if p.as_char() == ',');
                Fields::Tuple(top_level_commas(&inner) + usize::from(!trailing))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let inner: Vec<TokenTree> = g.stream().into_iter().collect();
                i += 1;
                Fields::Named(parse_named_fields(&inner))
            }
            _ => Fields::Unit,
        };
        // Consume the `,` between variants, if present.
        if matches!(body.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, fields });
    }
    variants
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attrs(&tokens, 0);
    i = skip_vis(&tokens, i);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected struct/enum, got {other:?}"),
    };
    i += 1;
    let TokenTree::Ident(name) = &tokens[i] else {
        panic!("serde_derive: expected type name");
    };
    let name = name.to_string();
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive shim: generic types are not supported ({name})");
    }
    let (body, tuple_struct) = loop {
        match &tokens[i] {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                break (g.stream().into_iter().collect::<Vec<_>>(), false);
            }
            TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis => {
                break (g.stream().into_iter().collect::<Vec<_>>(), true);
            }
            _ => i += 1,
        }
    };
    match kind.as_str() {
        "struct" if tuple_struct => {
            let trailing = matches!(body.last(), Some(TokenTree::Punct(p)) if p.as_char() == ',');
            Item::Struct {
                name,
                fields: Fields::Tuple(top_level_commas(&body) + usize::from(!trailing)),
            }
        }
        "struct" => Item::Struct {
            name,
            fields: Fields::Named(parse_named_fields(&body)),
        },
        "enum" => Item::Enum {
            name,
            variants: parse_variants(&body),
        },
        other => panic!("serde_derive: cannot derive for `{other}` items"),
    }
}

/// Statements writing a JSON object of named fields; `access` renders the
/// `&T` expression of each field.
fn write_named(fields: &[String], access: impl Fn(&str) -> String) -> String {
    if fields.is_empty() {
        return "::serde::ObjectWriter::new(out).end();".to_string();
    }
    let writes: String = fields
        .iter()
        .map(|f| format!("obj.field(\"{f}\", {})?;", access(f)))
        .collect();
    format!("let mut obj = ::serde::ObjectWriter::new(out); {writes} obj.end();")
}

/// Statements writing a JSON array of the `&T` expressions `items`.
fn write_seq(items: &[String]) -> String {
    let writes: Vec<String> = items
        .iter()
        .map(|item| format!("::serde::Serialize::write_json({item}, out)?;"))
        .collect();
    format!(
        "out.push('['); {} out.push(']');",
        writes.join(" out.push(',');")
    )
}

/// A statement appending `json` verbatim. Variant names are Rust
/// identifiers, so quoting them needs no escaping.
fn push_json(json: &str) -> String {
    format!("out.push_str({json:?});")
}

/// Statements writing serde's externally tagged form, `{"tag":…}`, around
/// the statements `inner`.
fn write_tagged(tag: &str, inner: &str) -> String {
    format!(
        "{} {inner} out.push('}}');",
        push_json(&format!("{{\"{tag}\":"))
    )
}

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let (name, body) = match &item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(fields) => write_named(fields, |f| format!("&self.{f}")),
                // Newtype structs serialize transparently, wider tuple
                // structs as arrays — serde's representations.
                Fields::Tuple(1) => "::serde::Serialize::write_json(&self.0, out)?;".to_string(),
                Fields::Tuple(n) => {
                    let items: Vec<String> = (0..*n).map(|k| format!("&self.{k}")).collect();
                    write_seq(&items)
                }
                Fields::Unit => unreachable!(),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    match &v.fields {
                        Fields::Unit => {
                            format!("{name}::{vn} => {{ {} }}", push_json(&format!("\"{vn}\"")))
                        }
                        Fields::Tuple(1) => format!(
                            "{name}::{vn}(f0) => {{ {} }}",
                            write_tagged(vn, "::serde::Serialize::write_json(f0, out)?;")
                        ),
                        Fields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
                            format!(
                                "{name}::{vn}({}) => {{ {} }}",
                                binds.join(", "),
                                write_tagged(vn, &write_seq(&binds))
                            )
                        }
                        // Bindings are prefixed so a field named `out` or
                        // `obj` cannot shadow the writer's own variables.
                        Fields::Named(fields) => {
                            let binds: Vec<String> =
                                fields.iter().map(|f| format!("{f}: __{f}")).collect();
                            format!(
                                "{name}::{vn} {{ {} }} => {{ {} }}",
                                binds.join(", "),
                                write_tagged(vn, &write_named(fields, |f| format!("__{f}")))
                            )
                        }
                    }
                })
                .collect();
            (name, format!("match self {{ {} }}", arms.join("\n")))
        }
    };
    let out = format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn write_json(&self, out: &mut ::std::string::String) \
                 -> ::std::result::Result<(), ::serde::Error> {{\n\
                 {body}\n\
                 ::std::result::Result::Ok(())\n\
             }}\n\
         }}"
    );
    TokenStream::from_str(&out).expect("serde_derive: generated impl must parse")
}

#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let out = match &item {
        Item::Struct { name, fields } => match fields {
            Fields::Named(fields) => {
                let inits: Vec<String> = fields
                    .iter()
                    .map(|f| format!("{f}: ::serde::field(obj, \"{f}\")?,"))
                    .collect();
                format!(
                    "impl ::serde::Deserialize for {name} {{\n\
                         fn from_value(v: &::serde::Value) \
                             -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                             let obj = v.as_object()\
                                 .ok_or_else(|| ::serde::DeError::expected(\"object\", v))?;\n\
                             let _ = obj;\n\
                             ::std::result::Result::Ok({name} {{ {} }})\n\
                         }}\n\
                     }}",
                    inits.join("")
                )
            }
            Fields::Tuple(1) => format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) \
                         -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         ::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))\n\
                     }}\n\
                 }}"
            ),
            Fields::Tuple(n) => {
                let gets: Vec<String> = (0..*n)
                    .map(|k| format!("::serde::Deserialize::from_value(&items[{k}])?,"))
                    .collect();
                format!(
                    "impl ::serde::Deserialize for {name} {{\n\
                         fn from_value(v: &::serde::Value) \
                             -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                             let items = v.as_array()\
                                 .ok_or_else(|| ::serde::DeError::expected(\"array\", v))?;\n\
                             if items.len() != {n} {{ return ::std::result::Result::Err(\
                                 ::serde::DeError(format!(\
                                 \"{name} expects {n} fields, got {{}}\", items.len()))); }}\n\
                             ::std::result::Result::Ok({name}({}))\n\
                         }}\n\
                     }}",
                    gets.join("")
                )
            }
            Fields::Unit => unreachable!(),
        },
        Item::Enum { name, variants } => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.fields, Fields::Unit))
                .map(|v| format!("\"{0}\" => ::std::result::Result::Ok({name}::{0}),", v.name))
                .collect();
            let data_arms: Vec<String> = variants
                .iter()
                .filter_map(|v| {
                    let vn = &v.name;
                    match &v.fields {
                        Fields::Unit => None,
                        Fields::Tuple(1) => Some(format!(
                            "\"{vn}\" => ::std::result::Result::Ok(\
                             {name}::{vn}(::serde::Deserialize::from_value(inner)?)),"
                        )),
                        Fields::Tuple(n) => {
                            let gets: Vec<String> = (0..*n)
                                .map(|k| format!("::serde::Deserialize::from_value(&items[{k}])?,"))
                                .collect();
                            Some(format!(
                                "\"{vn}\" => {{\n\
                                     let items = inner.as_array().ok_or_else(|| \
                                         ::serde::DeError::expected(\"array\", inner))?;\n\
                                     if items.len() != {n} {{ return ::std::result::Result::Err(\
                                         ::serde::DeError(format!(\
                                         \"variant {vn} expects {n} fields, got {{}}\", items.len()))); }}\n\
                                     ::std::result::Result::Ok({name}::{vn}({}))\n\
                                 }}",
                                gets.join("")
                            ))
                        }
                        Fields::Named(fields) => {
                            let inits: Vec<String> = fields
                                .iter()
                                .map(|f| format!("{f}: ::serde::field(obj, \"{f}\")?,"))
                                .collect();
                            Some(format!(
                                "\"{vn}\" => {{\n\
                                     let obj = inner.as_object().ok_or_else(|| \
                                         ::serde::DeError::expected(\"object\", inner))?;\n\
                                     let _ = obj;\n\
                                     ::std::result::Result::Ok({name}::{vn} {{ {} }})\n\
                                 }}",
                                inits.join("")
                            ))
                        }
                    }
                })
                .collect();
            format!(
                "impl ::serde::Deserialize for {name} {{\n\
                     fn from_value(v: &::serde::Value) \
                         -> ::std::result::Result<Self, ::serde::DeError> {{\n\
                         match v {{\n\
                             ::serde::Value::Str(s) => match s.as_str() {{\n\
                                 {}\n\
                                 other => ::std::result::Result::Err(::serde::DeError(\
                                     format!(\"unknown {name} variant {{other:?}}\"))),\n\
                             }},\n\
                             ::serde::Value::Object(o) if o.len() == 1 => {{\n\
                                 let (tag, inner) = &o[0];\n\
                                 let _ = inner;\n\
                                 match tag.as_str() {{\n\
                                     {}\n\
                                     other => ::std::result::Result::Err(::serde::DeError(\
                                         format!(\"unknown {name} variant {{other:?}}\"))),\n\
                                 }}\n\
                             }}\n\
                             other => ::std::result::Result::Err(\
                                 ::serde::DeError::expected(\"enum\", other)),\n\
                         }}\n\
                     }}\n\
                 }}",
                unit_arms.join("\n"),
                data_arms.join("\n")
            )
        }
    };
    TokenStream::from_str(&out).expect("serde_derive: generated impl must parse")
}
