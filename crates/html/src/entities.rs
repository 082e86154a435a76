//! HTML character-reference (entity) decoding and encoding.
//!
//! The crawler sees attribute values and text with entities
//! (`&amp;`, `&#x995;`, `&nbsp;`); language detection must run on the
//! decoded characters — a Bengali letter written as `&#2453;` is still
//! Bengali evidence. The named set covers the references that occur in
//! practice on the simulated corpus plus the HTML-required ones; numeric
//! references (decimal and hex) are decoded in full.

/// Named entities recognized by [`decode`]. Kept alphabetical for binary
/// search.
const NAMED: &[(&str, char)] = &[
    ("amp", '&'),
    ("apos", '\''),
    ("bull", '•'),
    ("cent", '¢'),
    ("copy", '©'),
    ("deg", '°'),
    ("gt", '>'),
    ("hellip", '…'),
    ("laquo", '«'),
    ("ldquo", '\u{201C}'),
    ("lsquo", '\u{2018}'),
    ("lt", '<'),
    ("mdash", '—'),
    ("middot", '·'),
    ("nbsp", '\u{00A0}'),
    ("ndash", '–'),
    ("pound", '£'),
    ("quot", '"'),
    ("raquo", '»'),
    ("rdquo", '\u{201D}'),
    ("reg", '®'),
    ("rsquo", '\u{2019}'),
    ("sect", '§'),
    ("times", '×'),
    ("trade", '™'),
    ("yen", '¥'),
];

fn named_lookup(name: &str) -> Option<char> {
    NAMED
        .binary_search_by(|(n, _)| n.cmp(&name))
        .ok()
        .map(|i| NAMED[i].1)
}

/// Decode all character references in `input`.
///
/// Malformed references (unknown name, missing `;`, invalid codepoint) are
/// passed through verbatim, as browsers effectively do for text content.
///
/// ```
/// use langcrux_html::entities::decode;
/// assert_eq!(decode("a &amp; b"), "a & b");
/// assert_eq!(decode("&#x95;&#2453;"), "\u{95}\u{995}");
/// assert_eq!(decode("5 &lt; 7"), "5 < 7");
/// assert_eq!(decode("no entity &here"), "no entity &here");
/// ```
pub fn decode(input: &str) -> String {
    if !input.contains('&') {
        return input.to_string();
    }
    let mut out = String::with_capacity(input.len());
    decode_into(input, &mut out);
    out
}

/// Decode all character references in `input`, appending the result to
/// `out`. Identical output to [`decode`], but lets callers reuse one
/// scratch buffer across many text runs — the streaming extraction path
/// ([`crate::stream`]) decodes every visible text run this way without a
/// fresh allocation per run.
///
/// ```
/// use langcrux_html::entities::{decode, decode_into};
/// let mut buf = String::new();
/// decode_into("a &amp; b", &mut buf);
/// assert_eq!(buf, decode("a &amp; b"));
/// ```
pub fn decode_into(input: &str, out: &mut String) {
    if !input.contains('&') {
        out.push_str(input);
        return;
    }
    let bytes = input.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'&' {
            // Copy the full UTF-8 char.
            let ch_len = utf8_len(bytes[i]);
            out.push_str(&input[i..i + ch_len]);
            i += ch_len;
            continue;
        }
        // Find the terminating ';' within a reasonable window.
        let window_end = (i + 32).min(bytes.len());
        let semi = bytes[i + 1..window_end].iter().position(|&b| b == b';');
        let Some(rel) = semi else {
            out.push('&');
            i += 1;
            continue;
        };
        let body = &input[i + 1..i + 1 + rel];
        let decoded = decode_reference(body);
        match decoded {
            Some(c) => {
                out.push(c);
                i += rel + 2; // '&' + body + ';'
            }
            None => {
                out.push('&');
                i += 1;
            }
        }
    }
}

fn decode_reference(body: &str) -> Option<char> {
    if let Some(num) = body.strip_prefix('#') {
        let cp = if let Some(hex) = num.strip_prefix(['x', 'X']) {
            u32::from_str_radix(hex, 16).ok()?
        } else {
            num.parse::<u32>().ok()?
        };
        return char::from_u32(cp);
    }
    named_lookup(body)
}

/// Escape text for inclusion in HTML text content, appended to a
/// caller-owned buffer: clean spans are copied wholesale (the common case
/// — generated prose rarely contains markup metacharacters — costs one
/// memcpy and zero allocations).
pub fn escape_text_into(input: &str, out: &mut String) {
    let mut rest = input;
    while let Some(i) = rest.find(['&', '<', '>']) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            _ => "&gt;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Escape text for inclusion in a double-quoted attribute value,
/// appended to a caller-owned buffer (see [`escape_text_into`] for the
/// fast path).
pub fn escape_attr_into(input: &str, out: &mut String) {
    let mut rest = input;
    while let Some(i) = rest.find(['&', '<', '"']) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            _ => "&quot;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_table_is_sorted() {
        for w in NAMED.windows(2) {
            assert!(w[0].0 < w[1].0, "{:?} >= {:?}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn decodes_named() {
        assert_eq!(decode("&lt;tag&gt;"), "<tag>");
        assert_eq!(decode("&quot;q&quot;"), "\"q\"");
        assert_eq!(decode("&nbsp;"), "\u{00A0}");
        assert_eq!(decode("&copy; 2025"), "© 2025");
    }

    #[test]
    fn decodes_numeric() {
        assert_eq!(decode("&#65;"), "A");
        assert_eq!(decode("&#x41;"), "A");
        assert_eq!(decode("&#X41;"), "A");
        assert_eq!(decode("&#2453;"), "ক"); // Bengali ka
        assert_eq!(decode("&#x0E01;"), "ก"); // Thai ko kai
    }

    #[test]
    fn malformed_passes_through() {
        assert_eq!(decode("&unknown;"), "&unknown;");
        assert_eq!(decode("&amp"), "&amp");
        assert_eq!(decode("&;"), "&;");
        assert_eq!(decode("&#xZZ;"), "&#xZZ;");
        assert_eq!(decode("&#1114112;"), "&#1114112;"); // beyond char::MAX
        assert_eq!(decode("100% & more"), "100% & more");
    }

    #[test]
    fn surrogate_numeric_rejected() {
        assert_eq!(decode("&#xD800;"), "&#xD800;");
    }

    #[test]
    fn multibyte_text_survives() {
        assert_eq!(decode("নমস্কার &amp; hello"), "নমস্কার & hello");
        assert_eq!(decode("日本語&#x3002;"), "日本語。");
    }

    #[test]
    fn escape_round_trip() {
        let original = "a < b & \"c\" > d";
        let (mut text, mut attr) = (String::new(), String::new());
        escape_text_into(original, &mut text);
        escape_attr_into(original, &mut attr);
        assert_eq!(decode(&text), original);
        assert_eq!(decode(&attr), original);
    }

    #[test]
    fn no_entities_fast_path() {
        let s = "plain text with no ampersand";
        assert_eq!(decode(s), s);
    }

    #[test]
    fn decode_into_appends_and_matches_decode() {
        let mut buf = String::from("prefix|");
        decode_into("a &amp; b &#2453;", &mut buf);
        assert_eq!(buf, "prefix|a & b ক");
        for case in ["", "plain", "&amp", "&#xZZ;", "&lt;x&gt;", "নমস্কার &copy;"] {
            let mut out = String::new();
            decode_into(case, &mut out);
            assert_eq!(out, decode(case), "{case:?}");
        }
    }
}
