//! HTML tokenizer.
//!
//! A pragmatic, spec-shaped (not spec-complete) tokenizer: it handles the
//! constructs that occur in real-world markup — doctype, comments, start/end
//! tags, all three attribute forms (double-quoted, single-quoted, unquoted,
//! plus bare boolean attributes), self-closing tags, and the raw-text
//! elements `script`/`style`/`textarea`/`title` whose content must not be
//! re-tokenized. Error handling follows the browser convention: never fail,
//! always produce *some* token stream (measurement crawlers meet a lot of
//! broken HTML).
//!
//! The lexer is written once and driven through a [`TokenSink`], so the two
//! consumers share every lexing rule byte for byte:
//!
//! * [`tokenize`] materialises owned [`Token`]s, for a consumer that wants
//!   them all (the tree builder of the `langcrux-oracle` crate).
//! * [`tokenize_into`] pushes borrowed lexemes straight into a caller sink —
//!   this is the entry point of the streaming extraction path
//!   ([`crate::stream`]), which never allocates a token buffer or a DOM.
//!   Its tag-name and attribute buffers are per-thread scratch
//!   ([`crate::scratch`]), reused across tags and documents, so on a warm
//!   thread a sink that keeps nothing sees a whole page lexed without one
//!   allocation.

use crate::entities::{decode, decode_into};
use crate::scratch::{cap_pool, ScratchBuffer};
use std::cell::Cell;

/// One attribute on a start tag. Values are entity-decoded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attribute {
    pub name: String,
    pub value: String,
}

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    Doctype(String),
    Comment(String),
    /// `name` is lower-cased; `self_closing` reflects a trailing `/`.
    StartTag {
        name: String,
        attrs: Vec<Attribute>,
        self_closing: bool,
    },
    EndTag {
        name: String,
    },
    /// Entity-decoded character data.
    Text(String),
}

/// The single source of truth for the raw-text element set: maps a
/// lower-cased tag name to its `'static` spelling (the raw-text scanner
/// needs a name that outlives the lexer's scratch buffer).
fn raw_text_static_name(name: &str) -> Option<&'static str> {
    match name {
        "script" => Some("script"),
        "style" => Some("style"),
        "textarea" => Some("textarea"),
        "title" => Some("title"),
        "noscript" => Some("noscript"),
        _ => None,
    }
}

/// Receiver of lexical events from [`tokenize_into`].
///
/// The lexer owns every scratch buffer; sinks see borrowed data that is
/// valid only for the duration of the call:
///
/// * `name` slices are already lower-cased.
/// * `attrs` arrives deduplicated (first occurrence wins) with
///   entity-decoded values. The lexer reuses attribute `String`s across
///   tags and documents: when the call returns it takes the attributes
///   back and refills their strings for later tags, so a sink that keeps
///   a name or value must copy it. A sink that wants ownership may
///   instead `std::mem::take` the whole `Vec` ([`tokenize`] does);
///   the lexer then starts the next tag with fresh strings.
/// * `text` arrives **undecoded**; `decode_entities` says whether the
///   owned-token path would run [`decode`] over it (true for ordinary
///   character data and the "escapable raw text" elements
///   `title`/`textarea`, false for `script`/`style`/`noscript` bodies).
///   This keeps the expensive decode lazy: a sink may skip it for runs it
///   will discard, or decode into a reused buffer.
///
/// `doctype` and `comment` default to no-ops since most sinks ignore them.
pub trait TokenSink {
    /// Doctype body after the `doctype` keyword, untrimmed and in original
    /// case (the owned-token path trims + lower-cases it).
    fn doctype(&mut self, _raw: &str) {}
    /// Comment body, excluding the `<!--`/`-->` delimiters.
    fn comment(&mut self, _text: &str) {}
    /// A start tag. See the trait docs for the `attrs` contract.
    fn start_tag(&mut self, name: &str, attrs: &mut Vec<Attribute>, self_closing: bool);
    /// An end tag (`name` is non-empty and lower-cased).
    fn end_tag(&mut self, name: &str);
    /// A non-empty run of character data. See the trait docs for the
    /// `decode_entities` contract.
    fn text(&mut self, raw: &str, decode_entities: bool);
}

/// Tokenize an HTML document into owned tokens. Never panics on any input.
pub fn tokenize(input: &str) -> Vec<Token> {
    let mut sink = VecSink {
        // Markup averages a few dozen bytes per token; reserving up
        // front avoids repeated growth on page-sized inputs.
        tokens: Vec::with_capacity(input.len() / 24),
    };
    tokenize_into(input, &mut sink);
    sink.tokens
}

/// Tokenize an HTML document, pushing each lexeme into `sink`. Never
/// panics on any input. [`tokenize`] is exactly this with a `Vec<Token>`
/// sink, so every consumer shares one lexer.
///
/// The lexer's buffers come from this thread's scratch (a nested call
/// gets fresh ones), so a warm thread lexes a page into a sink that
/// keeps nothing without allocating.
pub fn tokenize_into<S: TokenSink>(input: &str, sink: &mut S) {
    let mut lexer = Tokenizer {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        sink,
        scratch: SCRATCH.take().unwrap_or_default(),
    };
    lexer.run();
    let mut scratch = lexer.scratch;
    scratch.recycle();
    SCRATCH.set(Some(scratch));
}

thread_local! {
    /// This thread's lexer buffers between calls; see [`crate::scratch`].
    static SCRATCH: Cell<Option<LexScratch>> = const { Cell::new(None) };
}

/// A pooled attribute slot: its two strings.
impl ScratchBuffer for Attribute {
    fn allocated(&self) -> usize {
        self.name.allocated() + self.value.allocated()
    }

    fn clear_capped(&mut self) {
        self.name.clear_capped();
        self.value.clear_capped();
    }
}

/// The lexer's reusable buffers.
#[derive(Default)]
struct LexScratch {
    /// The current tag name, lower-cased.
    name: String,
    /// The current tag's attributes, as the sink sees them.
    attrs: Vec<Attribute>,
    /// Attributes waiting to be refilled, in slot order: the top is the
    /// next tag's first attribute, so each attribute position reuses the
    /// same two strings from tag to tag.
    spare: Vec<Attribute>,
}

impl LexScratch {
    /// Empty the buffers for the next document, dropping any above the
    /// scratch cap and trimming the spare pool to it.
    fn recycle(&mut self) {
        self.name.clear_capped();
        self.attrs.clear_capped();
        cap_pool(&mut self.spare);
    }

    /// The heap bytes of each buffer, a pool counting as one.
    #[cfg(test)]
    fn allocations(&self) -> [usize; 3] {
        use crate::scratch::pool_allocated;
        [
            self.name.allocated(),
            pool_allocated(&self.attrs),
            pool_allocated(&self.spare),
        ]
    }
}

/// The heap bytes of each buffer this thread's lexer scratch keeps
/// between documents, a pool counting as one.
#[cfg(test)]
pub(crate) fn scratch_allocations() -> [usize; 3] {
    let scratch = SCRATCH.take();
    let allocations = scratch.as_ref().map_or([0; 3], LexScratch::allocations);
    SCRATCH.set(scratch);
    allocations
}

/// The sink behind [`tokenize`]: materialises owned [`Token`]s.
struct VecSink {
    tokens: Vec<Token>,
}

impl TokenSink for VecSink {
    fn doctype(&mut self, raw: &str) {
        self.tokens
            .push(Token::Doctype(raw.trim().to_ascii_lowercase()));
    }

    fn comment(&mut self, text: &str) {
        self.tokens.push(Token::Comment(text.to_string()));
    }

    fn start_tag(&mut self, name: &str, attrs: &mut Vec<Attribute>, self_closing: bool) {
        self.tokens.push(Token::StartTag {
            name: name.to_string(),
            attrs: std::mem::take(attrs),
            self_closing,
        });
    }

    fn end_tag(&mut self, name: &str) {
        self.tokens.push(Token::EndTag {
            name: name.to_string(),
        });
    }

    fn text(&mut self, raw: &str, decode_entities: bool) {
        self.tokens.push(Token::Text(if decode_entities {
            decode(raw)
        } else {
            raw.to_string()
        }));
    }
}

struct Tokenizer<'a, S> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    sink: &'a mut S,
    scratch: LexScratch,
}

impl<'a, S: TokenSink> Tokenizer<'a, S> {
    fn run(&mut self) {
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'<' {
                self.lex_angle();
            } else {
                self.lex_text();
            }
        }
    }

    fn rest(&self) -> &'a str {
        &self.input[self.pos..]
    }

    fn lex_text(&mut self) {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'<' {
            self.pos += 1;
        }
        let raw = &self.input[start..self.pos];
        if !raw.is_empty() {
            self.sink.text(raw, true);
        }
    }

    fn lex_angle(&mut self) {
        let rest = self.rest();
        if rest.starts_with("<!--") {
            self.lex_comment();
        } else if rest.len() >= 2 && (rest.as_bytes()[1] == b'!' || rest.as_bytes()[1] == b'?') {
            self.lex_declaration();
        } else if rest.len() >= 2 && rest.as_bytes()[1] == b'/' {
            self.lex_end_tag();
        } else if rest.len() >= 2 && rest.as_bytes()[1].is_ascii_alphabetic() {
            self.lex_start_tag();
        } else {
            // A lone '<' is text.
            self.sink.text(&self.input[self.pos..self.pos + 1], false);
            self.pos += 1;
        }
    }

    fn lex_comment(&mut self) {
        let body_start = self.pos + 4;
        match self.input[body_start..].find("-->") {
            Some(end) => {
                self.sink.comment(&self.input[body_start..body_start + end]);
                self.pos = body_start + end + 3;
            }
            None => {
                // Unterminated comment swallows the rest of the input.
                self.sink.comment(&self.input[body_start..]);
                self.pos = self.bytes.len();
            }
        }
    }

    fn lex_declaration(&mut self) {
        // <!DOCTYPE html> or <?xml ...?> — capture to the next '>'.
        let body_start = self.pos + 2;
        match self.input[body_start..].find('>') {
            Some(end) => {
                let body = &self.input[body_start..body_start + end];
                if body
                    .get(..7)
                    .is_some_and(|p| p.eq_ignore_ascii_case("doctype"))
                {
                    self.sink.doctype(&body[7..]);
                }
                // Other declarations (CDATA, processing instructions) are dropped.
                self.pos = body_start + end + 1;
            }
            None => {
                self.pos = self.bytes.len();
            }
        }
    }

    /// Lower-case `src` into the name scratch buffer.
    fn set_name(name: &mut String, src: &str) {
        name.clear();
        name.push_str(src);
        // Tag names are ASCII-alphanumeric plus '-', so ASCII
        // lower-casing is exact.
        name.make_ascii_lowercase();
    }

    fn lex_end_tag(&mut self) {
        let name_start = self.pos + 2;
        let mut i = name_start;
        while i < self.bytes.len()
            && (self.bytes[i].is_ascii_alphanumeric() || self.bytes[i] == b'-')
        {
            i += 1;
        }
        Self::set_name(&mut self.scratch.name, &self.input[name_start..i]);
        // Skip to '>'.
        while i < self.bytes.len() && self.bytes[i] != b'>' {
            i += 1;
        }
        self.pos = (i + 1).min(self.bytes.len());
        if !self.scratch.name.is_empty() {
            self.sink.end_tag(&self.scratch.name);
        }
    }

    fn lex_start_tag(&mut self) {
        let name_start = self.pos + 1;
        let mut i = name_start;
        while i < self.bytes.len()
            && (self.bytes[i].is_ascii_alphanumeric() || self.bytes[i] == b'-')
        {
            i += 1;
        }
        Self::set_name(&mut self.scratch.name, &self.input[name_start..i]);
        self.pos = i;
        let self_closing = self.lex_attributes();
        let raw_name: Option<&'static str> = if self_closing {
            None
        } else {
            raw_text_static_name(self.scratch.name.as_str())
        };
        let LexScratch { name, attrs, spare } = &mut self.scratch;
        self.sink.start_tag(name, attrs, self_closing);
        // Take the attributes back for reuse, last first, so the next
        // tag's first attribute refills this tag's first.
        while let Some(attr) = attrs.pop() {
            spare.push(attr);
        }
        if let Some(name) = raw_name {
            self.lex_raw_text(name);
        }
    }

    /// After a raw-text start tag, consume everything up to the matching
    /// case-insensitive `</name`, emitting it as a single text run
    /// (entity-decoded only for `title`/`textarea`, per spec these are
    /// "escapable raw text").
    fn lex_raw_text(&mut self, name: &str) {
        let hay = self.rest();
        // In-place case-insensitive search for `</name` — lowercasing the
        // whole remaining input per raw-text element would make
        // tokenization quadratic in page size.
        let bytes = hay.as_bytes();
        let name_bytes = name.as_bytes();
        let mut end = hay.len();
        let mut i = 0;
        while i + 2 + name_bytes.len() <= bytes.len() {
            if bytes[i] == b'<'
                && bytes[i + 1] == b'/'
                && bytes[i + 2..i + 2 + name_bytes.len()].eq_ignore_ascii_case(name_bytes)
            {
                end = i;
                break;
            }
            i += 1;
        }
        let body = &hay[..end];
        if !body.is_empty() {
            self.sink.text(body, matches!(name, "title" | "textarea"));
        }
        self.pos += end;
        // The EndTag will be lexed by the main loop (or EOF).
    }

    /// Lex attributes into the scratch buffer; returns the self-closing flag.
    fn lex_attributes(&mut self) -> bool {
        debug_assert!(self.scratch.attrs.is_empty());
        let mut self_closing = false;
        loop {
            self.skip_whitespace();
            if self.pos >= self.bytes.len() {
                break;
            }
            match self.bytes[self.pos] {
                b'>' => {
                    self.pos += 1;
                    break;
                }
                b'/' => {
                    self.pos += 1;
                    if self.pos < self.bytes.len() && self.bytes[self.pos] == b'>' {
                        self.pos += 1;
                        self_closing = true;
                        break;
                    }
                }
                _ => {
                    if let Some(attr) = self.lex_one_attribute() {
                        // First occurrence wins, as in browsers.
                        let attrs = &mut self.scratch.attrs;
                        if attrs.iter().any(|a| a.name == attr.name) {
                            self.scratch.spare.push(attr);
                        } else {
                            attrs.push(attr);
                        }
                    } else {
                        // Couldn't make progress; skip a byte defensively.
                        self.pos += 1;
                    }
                }
            }
        }
        self_closing
    }

    /// Lex one attribute into a recycled [`Attribute`] (fresh strings
    /// only when the spare pool is empty).
    fn lex_one_attribute(&mut self) -> Option<Attribute> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && !matches!(
                self.bytes[self.pos],
                b'=' | b'>' | b'/' | b' ' | b'\t' | b'\n' | b'\r'
            )
        {
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        let mut attr = self.scratch.spare.pop().unwrap_or_default();
        attr.name.clear();
        attr.name.push_str(&self.input[start..self.pos]);
        attr.name.make_ascii_lowercase();
        attr.value.clear();
        self.skip_whitespace();
        if self.pos >= self.bytes.len() || self.bytes[self.pos] != b'=' {
            // Boolean attribute: <input disabled>
            return Some(attr);
        }
        self.pos += 1; // consume '='
        self.skip_whitespace();
        if self.pos >= self.bytes.len() {
            return Some(attr);
        }
        let raw = match self.bytes[self.pos] {
            q @ (b'"' | b'\'') => {
                self.pos += 1;
                let vstart = self.pos;
                while self.pos < self.bytes.len() && self.bytes[self.pos] != q {
                    self.pos += 1;
                }
                let raw = &self.input[vstart..self.pos];
                self.pos = (self.pos + 1).min(self.bytes.len()); // closing quote
                raw
            }
            _ => {
                let vstart = self.pos;
                while self.pos < self.bytes.len()
                    && !matches!(self.bytes[self.pos], b'>' | b' ' | b'\t' | b'\n' | b'\r')
                {
                    self.pos += 1;
                }
                &self.input[vstart..self.pos]
            }
        };
        decode_into(raw, &mut attr.value);
        Some(attr)
    }

    fn skip_whitespace(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(tokens: &[Token], idx: usize) -> (&str, &Vec<Attribute>, bool) {
        match &tokens[idx] {
            Token::StartTag {
                name,
                attrs,
                self_closing,
            } => (name.as_str(), attrs, *self_closing),
            other => panic!("expected StartTag, got {other:?}"),
        }
    }

    #[test]
    fn simple_document() {
        let toks = tokenize("<!DOCTYPE html><html><body>Hi</body></html>");
        assert_eq!(toks[0], Token::Doctype("html".into()));
        assert_eq!(start(&toks, 1).0, "html");
        assert_eq!(start(&toks, 2).0, "body");
        assert_eq!(toks[3], Token::Text("Hi".into()));
        assert_eq!(
            toks[4],
            Token::EndTag {
                name: "body".into()
            }
        );
    }

    #[test]
    fn attribute_forms() {
        let toks = tokenize(r#"<img src="a.png" alt='photo' width=100 hidden data-x="1&amp;2">"#);
        let (name, attrs, _) = start(&toks, 0);
        assert_eq!(name, "img");
        let get = |n: &str| attrs.iter().find(|a| a.name == n).map(|a| a.value.clone());
        assert_eq!(get("src").as_deref(), Some("a.png"));
        assert_eq!(get("alt").as_deref(), Some("photo"));
        assert_eq!(get("width").as_deref(), Some("100"));
        assert_eq!(get("hidden").as_deref(), Some(""));
        assert_eq!(get("data-x").as_deref(), Some("1&2"));
    }

    #[test]
    fn self_closing_and_case() {
        let toks = tokenize("<BR/><IMG SRC='x'/>");
        assert_eq!(start(&toks, 0), ("br", &vec![], true));
        let (name, attrs, sc) = start(&toks, 1);
        assert_eq!(name, "img");
        assert!(sc);
        assert_eq!(attrs[0].name, "src");
    }

    #[test]
    fn comments_and_unterminated() {
        let toks = tokenize("<!-- hello -->text<!-- unterminated");
        assert_eq!(toks[0], Token::Comment(" hello ".into()));
        assert_eq!(toks[1], Token::Text("text".into()));
        assert_eq!(toks[2], Token::Comment(" unterminated".into()));
    }

    #[test]
    fn script_content_not_tokenized() {
        let toks = tokenize(r#"<script>if (a < b) { x = "<div>"; }</script><p>ok</p>"#);
        assert_eq!(start(&toks, 0).0, "script");
        assert_eq!(
            toks[1],
            Token::Text(r#"if (a < b) { x = "<div>"; }"#.into())
        );
        assert_eq!(
            toks[2],
            Token::EndTag {
                name: "script".into()
            }
        );
        assert_eq!(start(&toks, 3).0, "p");
    }

    #[test]
    fn title_is_escapable_raw_text() {
        let toks = tokenize("<title>News &amp; Weather</title>");
        assert_eq!(toks[1], Token::Text("News & Weather".into()));
    }

    #[test]
    fn raw_text_close_tag_case_insensitive() {
        let toks = tokenize("<script>x</SCRIPT>done");
        assert_eq!(toks[1], Token::Text("x".into()));
        assert_eq!(
            toks[2],
            Token::EndTag {
                name: "script".into()
            }
        );
        assert_eq!(toks[3], Token::Text("done".into()));
    }

    #[test]
    fn lone_angle_bracket_is_text() {
        let toks = tokenize("a < b");
        let text: String = toks
            .iter()
            .map(|t| match t {
                Token::Text(s) => s.clone(),
                _ => String::new(),
            })
            .collect();
        assert_eq!(text, "a < b");
    }

    #[test]
    fn unterminated_tag_at_eof() {
        let toks = tokenize("<div class=\"x");
        assert_eq!(start(&toks, 0).0, "div");
    }

    #[test]
    fn duplicate_attributes_first_wins() {
        let toks = tokenize(r#"<a href="first" href="second">"#);
        let (_, attrs, _) = start(&toks, 0);
        assert_eq!(attrs.len(), 1);
        assert_eq!(attrs[0].value, "first");
    }

    #[test]
    fn multilingual_text_and_attrs() {
        let toks = tokenize(r#"<img alt="ছবি: নদীর দৃশ্য"><p>สวัสดี</p>"#);
        let (_, attrs, _) = start(&toks, 0);
        assert_eq!(attrs[0].value, "ছবি: নদীর দৃশ্য");
        assert_eq!(toks[2], Token::Text("สวัสดี".into()));
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn never_panics_on_junk() {
        for junk in [
            "<",
            "<<",
            "<>",
            "</>",
            "<//>",
            "<!",
            "<!-",
            "<!--",
            "< div>",
            "<div",
            "<div /",
            "<a b=c d='e",
            "<a b=\"",
            "&",
            "&#",
            "&#x",
            "\u{0}<\u{0}>",
        ] {
            let _ = tokenize(junk);
        }
    }

    /// A sink that records events as debug strings — pins the contract
    /// between the shared lexer and streaming sinks.
    #[derive(Default)]
    struct TraceSink {
        events: Vec<String>,
    }

    impl TokenSink for TraceSink {
        fn doctype(&mut self, raw: &str) {
            self.events.push(format!("doctype({raw})"));
        }
        fn comment(&mut self, text: &str) {
            self.events.push(format!("comment({text})"));
        }
        fn start_tag(&mut self, name: &str, attrs: &mut Vec<Attribute>, self_closing: bool) {
            let attrs: Vec<String> = attrs
                .iter()
                .map(|a| format!("{}={}", a.name, a.value))
                .collect();
            self.events.push(format!(
                "start({name},[{}],{self_closing})",
                attrs.join(";")
            ));
        }
        fn end_tag(&mut self, name: &str) {
            self.events.push(format!("end({name})"));
        }
        fn text(&mut self, raw: &str, decode_entities: bool) {
            self.events.push(format!("text({raw},{decode_entities})"));
        }
    }

    #[test]
    fn sink_sees_borrowed_events() {
        let mut sink = TraceSink::default();
        tokenize_into(
            "<!DOCTYPE HTML><DIV Class=x>a&amp;b<script>1<2</script></DIV><!--c-->",
            &mut sink,
        );
        assert_eq!(
            sink.events,
            vec![
                "doctype( HTML)",
                "start(div,[class=x],false)",
                "text(a&amp;b,true)",
                "start(script,[],false)",
                "text(1<2,false)",
                "end(script)",
                "end(div)",
                "comment(c)",
            ]
        );
    }

    #[test]
    fn sink_attrs_vec_is_reusable_when_not_taken() {
        // A sink that never takes the attrs Vec still sees each tag's own
        // attributes (the lexer clears between tags).
        struct CountSink {
            attr_counts: Vec<usize>,
        }
        impl TokenSink for CountSink {
            fn start_tag(&mut self, _: &str, attrs: &mut Vec<Attribute>, _: bool) {
                self.attr_counts.push(attrs.len());
            }
            fn end_tag(&mut self, _: &str) {}
            fn text(&mut self, _: &str, _: bool) {}
        }
        let mut sink = CountSink {
            attr_counts: Vec::new(),
        };
        tokenize_into("<a x=1 y=2><b z=3><c>", &mut sink);
        assert_eq!(sink.attr_counts, vec![2, 1, 0]);
    }
}
