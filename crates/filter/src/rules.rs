//! The filtering heuristics.
//!
//! [`classify`] maps an accessibility text to `Some(DiscardCategory)` when
//! it is uninformative, or `None` when it should be retained for the
//! language analysis. Rules are checked in a fixed priority order (the
//! order of [`DiscardCategory::ALL`]): structural patterns first (URLs,
//! file names, numeric patterns), then the too-short cut, then dictionary
//! categories, then the single-word fallback — so that `"btn-submit.png"`
//! is a FileName, not a DevLabel; `"go"` is TooShort (the paper's example)
//! even though it is also a generic action; and `"search"` is a
//! GenericAction, not a SingleWord.
//!
//! [`scan`] is the one implementation: a single pass over the characters
//! that yields the verdict together with the text's script histogram,
//! character count and word count, allocating nothing, so the dataset
//! record, Kizuki and the speak order read each text once.
//!
//! Two thresholds follow the paper verbatim: CJK texts of 1 character are
//! too short, other scripts need ≥ 3 characters. The paper's "single-word
//! entries are filtered unless they appear to carry descriptive meaning"
//! is operationalised with a length heuristic (documented at
//! [`SINGLE_WORD_KEEP_LEN`]) — long single tokens in scripts without word
//! spacing (Thai, Myanmar) or long compound words are kept.

use crate::category::DiscardCategory;
use langcrux_lang::dict;
use langcrux_lang::script::{script_of, Script, ScriptHistogram};

/// Single whitespace-free tokens shorter than this are SingleWord-discarded
/// in space-separated scripts; at or above it they are assumed to carry
/// descriptive meaning (compound words, proper names).
pub const SINGLE_WORD_KEEP_LEN: usize = 12;

/// Thai/Myanmar write without inter-word spaces; a "single token" there can
/// be a whole phrase. Tokens at or above this length are kept.
pub const CONTINUA_KEEP_LEN: usize = 9;

/// What one pass over an accessibility text yields: the discard verdict
/// and the Table 2 and label-language measures, so a text is read once
/// however many of them a caller needs.
#[derive(Debug, Clone, PartialEq)]
pub struct TextScan {
    /// `None` means informative (see [`classify`]).
    pub discard: Option<DiscardCategory>,
    /// Scripts of every character of the text (its `total` is the
    /// character count).
    pub hist: ScriptHistogram,
    /// Whitespace-delimited words.
    pub words: usize,
}

impl TextScan {
    /// Characters (Unicode scalar values), the Table 2 text length.
    pub fn chars(&self) -> usize {
        self.hist.total
    }
}

/// Scan `text` once. Whitespace around the text counts in `chars` and
/// `hist` but not in the verdict, which judges the trimmed text.
pub fn scan(text: &str) -> TextScan {
    let mut hist = ScriptHistogram::default();
    let mut facts = Facts::default();
    let mut in_token = false;
    for (i, c) in text.char_indices() {
        hist.push_script(script_of(c));
        if c.is_whitespace() {
            if in_token {
                facts.close_token(i);
            }
            in_token = false;
            continue;
        }
        if !in_token {
            facts.open_token(i);
            in_token = true;
        }
        facts.nonws_len += 1;
        facts.has_digit |= c.is_ascii_digit();
        if !facts.has_alpha {
            facts.has_alpha = c.is_alphabetic();
        }
        if facts.all_alnum {
            facts.all_alnum = c.is_alphanumeric();
        }
        if facts.emoji_punct_only {
            if is_emoji_char(c) {
                facts.saw_emoji = true;
            } else if !c.is_ascii_punctuation() {
                facts.emoji_punct_only = false;
            }
        }
    }
    if in_token {
        facts.close_token(text.len());
    }
    let discard = verdict(text, &facts, &hist);
    TextScan {
        discard,
        hist,
        words: facts.tokens,
    }
}

/// Classify an accessibility text. `None` means informative/useful.
pub fn classify(text: &str) -> Option<DiscardCategory> {
    scan(text).discard
}

/// Whether the text survives filtering (is informative).
pub fn is_informative(text: &str) -> bool {
    classify(text).is_none()
}

/// Token facts of the non-whitespace characters. Leading and trailing
/// whitespace changes none of them, so they describe the trimmed text.
struct Facts {
    /// Whitespace-delimited token count.
    tokens: usize,
    /// Byte ranges of the first three tokens.
    spans: [(usize, usize); 3],
    /// Byte range of the trimmed text: first token start, last token end.
    trimmed: (usize, usize),
    /// Chars excluding whitespace; for one token, the trimmed length.
    nonws_len: usize,
    has_alpha: bool,
    has_digit: bool,
    /// The text is one token of alphanumeric chars.
    all_alnum: bool,
    /// Saw at least one emoji/pictograph char.
    saw_emoji: bool,
    /// Every non-whitespace char is an emoji or ASCII punctuation.
    emoji_punct_only: bool,
}

impl Default for Facts {
    fn default() -> Facts {
        Facts {
            tokens: 0,
            spans: [(0, 0); 3],
            trimmed: (0, 0),
            nonws_len: 0,
            has_alpha: false,
            has_digit: false,
            all_alnum: true,
            saw_emoji: false,
            emoji_punct_only: true,
        }
    }
}

impl Facts {
    fn open_token(&mut self, at: usize) {
        if self.tokens == 0 {
            self.trimmed.0 = at;
        } else {
            // Only single tokens are mixed-alphanumeric: decided.
            self.all_alnum = false;
        }
        if let Some(span) = self.spans.get_mut(self.tokens) {
            span.0 = at;
        }
        self.tokens += 1;
    }

    fn close_token(&mut self, at: usize) {
        self.trimmed.1 = at;
        if let Some(span) = self.spans.get_mut(self.tokens - 1) {
            span.1 = at;
        }
    }

    /// Token `i` (of the first three) as a slice of `text`.
    fn token<'t>(&self, text: &'t str, i: usize) -> &'t str {
        &text[self.spans[i].0..self.spans[i].1]
    }
}

/// Letters are CJK-dominant (Han/kana/Hangul).
fn cjk_dominant(hist: &ScriptHistogram) -> bool {
    let cjk = hist.count(Script::Han)
        + hist.count(Script::Hiragana)
        + hist.count(Script::Katakana)
        + hist.count(Script::Hangul);
    cjk > 0 && 2 * cjk >= hist.distinguishing_total()
}

/// Letters are in a scriptio-continua non-CJK script (Thai, Myanmar).
fn continua_non_cjk(hist: &ScriptHistogram) -> bool {
    let continua = hist.count(Script::Thai) + hist.count(Script::Myanmar);
    continua > 0 && 2 * continua >= hist.distinguishing_total()
}

/// The first category of [`DiscardCategory::ALL`] whose rule matches.
fn verdict(text: &str, facts: &Facts, hist: &ScriptHistogram) -> Option<DiscardCategory> {
    if facts.tokens == 0 {
        // Empty is handled upstream as "empty attribute"; defensively map
        // to TooShort here.
        return Some(DiscardCategory::TooShort);
    }
    let trimmed = &text[facts.trimmed.0..facts.trimmed.1];
    let one_token = facts.tokens == 1;
    // Both dictionary categories share one fold, made on first use.
    let mut folded = None;
    for category in DiscardCategory::ALL {
        let hit = match category {
            DiscardCategory::Emoji => facts.saw_emoji && facts.emoji_punct_only,
            DiscardCategory::UrlOrFilePath => one_token && is_url_or_path(trimmed),
            DiscardCategory::FileName => one_token && is_file_name(trimmed),
            DiscardCategory::OrdinalPhrase => match facts.tokens {
                1 => trimmed
                    .split_once('/')
                    .is_some_and(|(a, b)| is_integer(a) && is_integer(b)),
                // "3 of 5", "3 / 5"
                3 => {
                    let mid = facts.token(text, 1);
                    is_integer(facts.token(text, 0))
                        && is_integer(facts.token(text, 2))
                        && (mid.eq_ignore_ascii_case("of") || mid == "/")
                }
                _ => false,
            },
            DiscardCategory::LabelNumberPattern => {
                facts.tokens == 2
                    && is_integer(facts.token(text, 1))
                    && facts.token(text, 0).chars().all(char::is_alphabetic)
            }
            DiscardCategory::MixedAlnum => {
                one_token && facts.has_alpha && facts.has_digit && facts.all_alnum
            }
            DiscardCategory::DevLabel => one_token && is_dev_label(trimmed),
            DiscardCategory::GenericAction => {
                fold(&mut folded, facts, trimmed).is_some_and(|f| f.generic_action().is_some())
            }
            DiscardCategory::Placeholder => {
                fold(&mut folded, facts, trimmed).is_some_and(|f| f.placeholder().is_some())
            }
            DiscardCategory::TooShort => {
                if cjk_dominant(hist) {
                    facts.nonws_len <= 1
                } else {
                    facts.nonws_len < 3
                }
            }
            DiscardCategory::SingleWord => {
                one_token
                    && facts.has_alpha
                    && !cjk_dominant(hist)
                    && if continua_non_cjk(hist) {
                        facts.nonws_len < CONTINUA_KEEP_LEN
                    } else {
                        facts.nonws_len < SINGLE_WORD_KEEP_LEN
                    }
            }
        };
        if hit {
            return Some(category);
        }
    }
    None
}

/// The trimmed text folded for the dictionaries, made once into `slot`;
/// `None` when it is too long to be a term.
fn fold<'s>(
    slot: &'s mut Option<Option<dict::Folded>>,
    facts: &Facts,
    trimmed: &str,
) -> Option<&'s dict::Folded> {
    slot.get_or_insert_with(|| {
        (facts.nonws_len <= dict::MAX_TERM_CHARS)
            .then(|| dict::Folded::of(trimmed))
            .flatten()
    })
    .as_ref()
}

fn is_emoji_char(c: char) -> bool {
    let cp = c as u32;
    matches!(cp,
        0x1F000..=0x1FAFF   // emoji, symbols, pictographs
        | 0x2600..=0x27BF   // misc symbols + dingbats
        | 0x2B00..=0x2BFF   // misc symbols and arrows
        | 0x2190..=0x21FF   // arrows
        | 0x25A0..=0x25FF   // geometric shapes
        | 0xFE0E..=0xFE0F   // variation selectors
        | 0x200D            // zero-width joiner
    )
}

/// URL/path test over a single token, ASCII case ignored.
fn is_url_or_path(token: &str) -> bool {
    let www = token
        .as_bytes()
        .get(..4)
        .is_some_and(|p| p.eq_ignore_ascii_case(b"www."));
    if www || token.contains("://") {
        return true;
    }
    // Absolute file-system-ish path with at least two segments.
    token.starts_with('/') && token[1..].contains('/')
}

const ASSET_EXTENSIONS: &[&str] = &[
    ".jpg", ".jpeg", ".png", ".gif", ".svg", ".webp", ".ico", ".bmp", ".avif", ".pdf", ".mp4",
    ".webm", ".css", ".js",
];

/// Asset-file-name test over a single token, ASCII case ignored.
fn is_file_name(token: &str) -> bool {
    let bytes = token.as_bytes();
    bytes.len() > 4
        && ASSET_EXTENSIONS.iter().any(|ext| {
            let start = bytes.len().saturating_sub(ext.len());
            bytes[start..].eq_ignore_ascii_case(ext.as_bytes())
        })
}

fn is_integer(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())
}

/// Dev-identifier test over a single token.
fn is_dev_label(token: &str) -> bool {
    let bytes = token.as_bytes();
    if bytes.len() < 3 {
        return false;
    }
    let is_sep = |b: &u8| *b == b'-' || *b == b'_';
    if bytes.iter().any(is_sep) {
        // kebab-case / snake_case identifiers: two or more non-empty
        // segments of ASCII alphanumerics.
        return !is_sep(&bytes[0])
            && !is_sep(&bytes[bytes.len() - 1])
            && !bytes.windows(2).any(|w| is_sep(&w[0]) && is_sep(&w[1]))
            && bytes.iter().all(|b| is_sep(b) || b.is_ascii_alphanumeric());
    }
    // camelCase: lowercase start, internal uppercase, ASCII only.
    bytes.iter().all(u8::is_ascii_alphanumeric)
        && bytes[0].is_ascii_lowercase()
        && bytes[1..].iter().any(u8::is_ascii_uppercase)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cat(text: &str) -> Option<DiscardCategory> {
        classify(text)
    }

    /// The pre-fusion implementation, kept as the oracle: every rule
    /// re-derives its own facts from the raw text, with the old
    /// lower-cased copies, collected token lists and linear dictionary
    /// scans. `classify` must agree with this on any input.
    mod reference {
        use super::super::*;

        fn is_emoji_only(text: &str) -> bool {
            let mut saw_emoji = false;
            for c in text.chars() {
                if c.is_whitespace() {
                    continue;
                }
                if is_emoji_char(c) {
                    saw_emoji = true;
                } else if !c.is_ascii_punctuation() {
                    return false;
                }
            }
            saw_emoji
        }

        fn one_token(text: &str) -> bool {
            text.split_whitespace().count() == 1
        }

        fn is_url_or_path(lower: &str) -> bool {
            if lower.contains("://") || lower.starts_with("www.") {
                return true;
            }
            lower.starts_with('/') && lower[1..].contains('/')
        }

        fn is_file_name(lower: &str) -> bool {
            ASSET_EXTENSIONS.iter().any(|ext| lower.ends_with(ext)) && lower.len() > 4
        }

        fn is_integer(s: &str) -> bool {
            !s.is_empty() && s.chars().all(|c| c.is_ascii_digit())
        }

        fn is_ordinal_phrase(text: &str) -> bool {
            let tokens: Vec<&str> = text.split_whitespace().collect();
            match tokens.as_slice() {
                [a, mid, b] => {
                    is_integer(a)
                        && is_integer(b)
                        && (mid.eq_ignore_ascii_case("of") || *mid == "/")
                }
                [single] => {
                    if let Some((a, b)) = single.split_once('/') {
                        is_integer(a) && is_integer(b)
                    } else {
                        false
                    }
                }
                _ => false,
            }
        }

        fn is_label_number(text: &str) -> bool {
            let tokens: Vec<&str> = text.split_whitespace().collect();
            match tokens.as_slice() {
                [word, num] => {
                    is_integer(num) && !word.is_empty() && word.chars().all(|c| c.is_alphabetic())
                }
                _ => false,
            }
        }

        fn is_dev_label(text: &str) -> bool {
            if text.len() < 3 {
                return false;
            }
            let has_sep = text.contains('-') || text.contains('_');
            if has_sep {
                let segments: Vec<&str> = text.split(['-', '_']).collect();
                return segments.len() >= 2
                    && segments
                        .iter()
                        .all(|s| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric()));
            }
            let ascii = text.chars().all(|c| c.is_ascii_alphanumeric());
            if !ascii {
                return false;
            }
            let starts_lower = text.chars().next().is_some_and(|c| c.is_ascii_lowercase());
            let internal_upper = text.chars().skip(1).any(|c| c.is_ascii_uppercase());
            starts_lower && internal_upper
        }

        fn is_mixed_alnum(text: &str) -> bool {
            one_token(text)
                && text.chars().any(|c| c.is_alphabetic())
                && text.chars().any(|c| c.is_ascii_digit())
                && text.chars().all(|c| c.is_alphanumeric())
        }

        fn is_cjk_dominant(text: &str) -> bool {
            let mut cjk = 0usize;
            let mut other = 0usize;
            for c in text.chars() {
                match script_of(c) {
                    s if s.is_cjk() => cjk += 1,
                    Script::Common | Script::Unknown => {}
                    _ => other += 1,
                }
            }
            cjk > 0 && cjk >= other
        }

        fn is_continua_non_cjk(text: &str) -> bool {
            let mut hits = 0usize;
            let mut other = 0usize;
            for c in text.chars() {
                match script_of(c) {
                    Script::Thai | Script::Myanmar => hits += 1,
                    Script::Common | Script::Unknown => {}
                    _ => other += 1,
                }
            }
            hits > 0 && hits >= other
        }

        fn is_too_short(text: &str) -> bool {
            let len = text.chars().filter(|c| !c.is_whitespace()).count();
            if is_cjk_dominant(text) {
                len <= 1
            } else {
                len < 3
            }
        }

        fn is_single_word(text: &str) -> bool {
            if !one_token(text) || !text.chars().any(|c| c.is_alphabetic()) {
                return false;
            }
            let len = text.chars().count();
            if is_cjk_dominant(text) {
                return false;
            }
            if is_continua_non_cjk(text) {
                return len < CONTINUA_KEEP_LEN;
            }
            len < SINGLE_WORD_KEEP_LEN
        }

        pub fn classify(text: &str) -> Option<DiscardCategory> {
            let trimmed = text.trim();
            if trimmed.is_empty() {
                return Some(DiscardCategory::TooShort);
            }
            let lower = trimmed.to_ascii_lowercase();
            for category in DiscardCategory::ALL {
                let hit = match category {
                    DiscardCategory::Emoji => is_emoji_only(trimmed),
                    DiscardCategory::UrlOrFilePath => one_token(trimmed) && is_url_or_path(&lower),
                    DiscardCategory::FileName => one_token(trimmed) && is_file_name(&lower),
                    DiscardCategory::OrdinalPhrase => is_ordinal_phrase(trimmed),
                    DiscardCategory::LabelNumberPattern => is_label_number(trimmed),
                    DiscardCategory::MixedAlnum => is_mixed_alnum(trimmed),
                    DiscardCategory::DevLabel => one_token(trimmed) && is_dev_label(trimmed),
                    DiscardCategory::GenericAction => {
                        dict::matches_term_list(trimmed, dict::GENERIC_ACTIONS).is_some()
                    }
                    DiscardCategory::Placeholder => {
                        dict::matches_term_list(trimmed, dict::PLACEHOLDERS).is_some()
                    }
                    DiscardCategory::TooShort => is_too_short(trimmed),
                    DiscardCategory::SingleWord => is_single_word(trimmed),
                };
                if hit {
                    return Some(category);
                }
            }
            None
        }
    }

    #[test]
    fn fused_classify_matches_reference() {
        let probes = [
            "",
            "   ",
            "go",
            "🙂",
            "🙂!!",
            "图",
            "图片",
            "风景",
            "photo",
            "Budget",
            "banner_img123.jpg",
            "https://example.com/image.png",
            "/assets/img/logo.svg",
            "www.example.com",
            "search",
            "닫기",
            "icon",
            "btn-submit",
            "nav_menu",
            "navbarToggle",
            "slide 3",
            "figure 5",
            "2 of 10",
            "3/5",
            "10 / 20 / 30",
            "img123",
            "icon2",
            "a1b2c3",
            "1234",
            "carousel-1",
            "chrysanthemum",
            "Thiruvananthapuram",
            "ตลาดน้ำดำเนินสะดวก",
            "รูป",
            "แผนที่",
            "歴史博物館の入口",
            "경복궁의 가을 풍경",
            "finance minister presents annual budget",
            "শিক্ষার্থীরা গাছ লাগাচ্ছে",
            "नदी के किनारे मेला",
            "see https://example.com for details",
            "2 of the best",
            "of 5",
            " ok ",
            "x",
            "read more",
            "click here",
            "التاريخ القديم",
            "ছবি",
            "→",
            "• • •",
            "מפה",
            "ไอคอน",
            // ASCII case in the structural rules, and the dictionary fold.
            "BANNER_IMG123.JPG",
            "Photo.PNG",
            "WWW.Example.com",
            "HTTP://A.B/C",
            "/Assets/Img/Logo.SVG",
            "2 OF 10",
            "Slide 3",
            "NavbarToggle",
            "SEARCH",
            "Toggle Navigation",
            "  toggle navigation\u{A0}",
            "toggle  navigation",
            "toggle navigations",
            "ΣΎΝΔΕΣΗ",
            "ΚΛΕΊΣΙΜΟ",
            "İcon",
        ];
        for probe in probes {
            assert_eq!(classify(probe), reference::classify(probe), "{probe:?}");
        }
    }

    /// Texts that probe the edges of the fused pass: Unicode whitespace
    /// (some of it outside ASCII), `İ` (folds to two chars), `Σ` (folds by
    /// context), ZWJ emoji sequences, and dictionary terms in mixed case
    /// padded to 16–18 chars, around the longest term's 17.
    struct EdgeTexts;

    const WHITESPACE: &[&str] = &[
        " ", "\t", "\n", "\u{A0}", "\u{85}", "\u{1680}", "\u{2003}", "\u{3000}",
    ];

    const PIECES: &[&str] = &[
        "İ",
        "Σ",
        "σ",
        "ς",
        "ΣΎΝΔΕΣΗ",
        "👨\u{200D}👩\u{200D}👧",
        "🙂",
        "\u{FE0F}",
        "!",
        "/",
        "-",
        "_",
        "3",
        "of",
        ".PNG",
        "www.",
        "://",
        "Img",
        "中",
        "ก",
        "a",
        "Z",
    ];

    impl proptest::strategy::Strategy for EdgeTexts {
        type Value = String;

        fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> String {
            let mut pick = |n: usize| rng.range_int(0, n as i128 - 1) as usize;
            let mut text = String::new();
            if pick(2) == 0 {
                let terms = [dict::GENERIC_ACTIONS, dict::PLACEHOLDERS];
                let list = terms[pick(2)];
                for c in list[pick(list.len())].text.chars() {
                    match pick(3) {
                        0 => text.extend(c.to_uppercase()),
                        _ => text.push(c),
                    }
                }
                let target = 16 + pick(3);
                while text.chars().count() < target {
                    let pad = if pick(4) == 0 {
                        PIECES[pick(PIECES.len())]
                    } else {
                        WHITESPACE[pick(WHITESPACE.len())]
                    };
                    if pick(2) == 0 {
                        text.insert_str(0, pad);
                    } else {
                        text.push_str(pad);
                    }
                }
            } else {
                for _ in 0..pick(8) + 1 {
                    let pool = if pick(3) == 0 { WHITESPACE } else { PIECES };
                    text.push_str(pool[pick(pool.len())]);
                }
            }
            text
        }
    }

    /// The study languages and English, every language a label is judged
    /// against.
    fn label_languages() -> impl Iterator<Item = langcrux_lang::Language> {
        langcrux_lang::Country::STUDY
            .iter()
            .map(|c| c.target_language())
            .chain([langcrux_lang::Language::English])
    }

    fn assert_scan_matches_references(text: &str) {
        let scan = scan(text);
        assert_eq!(scan.discard, reference::classify(text), "{text:?}");
        assert_eq!(scan.discard, classify(text), "{text:?}");
        assert_eq!(scan.chars(), langcrux_oracle::char_len(text), "{text:?}");
        assert_eq!(scan.words, langcrux_oracle::word_count(text), "{text:?}");
        for language in label_languages() {
            assert_eq!(
                langcrux_langid::classify_histogram(&scan.hist, language),
                langcrux_langid::classify_label(text, language),
                "{text:?} against {language:?}"
            );
        }
    }

    proptest::proptest! {
        #[test]
        fn scan_matches_references_on_printable_text(text in "\\PC{0,40}") {
            assert_scan_matches_references(&text);
        }

        #[test]
        fn scan_matches_references_on_edge_texts(text in EdgeTexts) {
            assert_scan_matches_references(&text);
        }
    }

    #[test]
    fn dictionary_terms_hit_their_category_in_any_case() {
        fn title_case(text: &str) -> String {
            let mut out = String::new();
            let mut word_start = true;
            for c in text.chars() {
                if word_start {
                    out.extend(c.to_uppercase());
                } else {
                    out.push(c);
                }
                word_start = c.is_whitespace();
            }
            out
        }
        type Lookup = fn(&dict::Folded) -> Option<dict::Term>;
        let lists: [(&[dict::Term], Lookup); 2] = [
            (dict::GENERIC_ACTIONS, dict::Folded::generic_action),
            (dict::PLACEHOLDERS, dict::Folded::placeholder),
        ];
        for (list, lookup) in lists {
            for term in list {
                for variant in [term.text.to_uppercase(), title_case(term.text)] {
                    let folded = dict::Folded::of(&variant).expect("terms fit the fold");
                    assert!(lookup(&folded).is_some(), "{variant:?}");
                    // The verdict is the term's own: its category, or an
                    // earlier one such as TooShort for "go".
                    assert_eq!(classify(&variant), classify(term.text), "{variant:?}");
                    assert_eq!(classify(&variant), reference::classify(&variant));
                }
            }
        }
    }

    #[test]
    fn paper_examples_discard() {
        // Appendix H examples, one per category.
        assert_eq!(cat("🙂"), Some(DiscardCategory::Emoji));
        assert_eq!(cat("go"), Some(DiscardCategory::TooShort));
        assert_eq!(cat("图"), Some(DiscardCategory::TooShort));
        assert_eq!(cat("banner_img123.jpg"), Some(DiscardCategory::FileName));
        assert_eq!(
            cat("https://example.com/image.png"),
            Some(DiscardCategory::UrlOrFilePath)
        );
        assert_eq!(
            cat("/assets/img/logo.svg"),
            Some(DiscardCategory::UrlOrFilePath)
        );
        assert_eq!(cat("search"), Some(DiscardCategory::GenericAction));
        assert_eq!(cat("닫기"), Some(DiscardCategory::GenericAction));
        assert_eq!(cat("icon"), Some(DiscardCategory::Placeholder));
        assert_eq!(cat("图像"), Some(DiscardCategory::Placeholder));
        assert_eq!(cat("btn-submit"), Some(DiscardCategory::DevLabel));
        assert_eq!(cat("nav_menu"), Some(DiscardCategory::DevLabel));
        assert_eq!(cat("slide 3"), Some(DiscardCategory::LabelNumberPattern));
        assert_eq!(cat("figure 5"), Some(DiscardCategory::LabelNumberPattern));
        assert_eq!(cat("photo"), Some(DiscardCategory::SingleWord));
        assert_eq!(cat("img123"), Some(DiscardCategory::MixedAlnum));
        assert_eq!(cat("icon2"), Some(DiscardCategory::MixedAlnum));
        assert_eq!(cat("2 of 10"), Some(DiscardCategory::OrdinalPhrase));
        assert_eq!(cat("1 of 3"), Some(DiscardCategory::OrdinalPhrase));
        assert_eq!(cat("3/5"), Some(DiscardCategory::OrdinalPhrase));
    }

    #[test]
    fn informative_text_survives() {
        assert_eq!(cat("finance minister presents annual budget"), None);
        assert_eq!(cat("students planting trees in the school garden"), None);
        assert_eq!(cat("শিক্ষার্থীরা গাছ লাগাচ্ছে"), None);
        assert_eq!(cat("नदी के किनारे मेला"), None);
        // CJK multi-char labels are informative (single-word rule exempt).
        assert_eq!(cat("歴史博物館の入口"), None);
        assert_eq!(cat("경복궁의 가을 풍경"), None);
    }

    #[test]
    fn priority_file_name_over_dev_label() {
        // Contains '-' AND '.png' → FileName wins by priority.
        assert_eq!(cat("btn-close.png"), Some(DiscardCategory::FileName));
    }

    #[test]
    fn priority_action_over_single_word() {
        assert_eq!(cat("submit"), Some(DiscardCategory::GenericAction));
        assert_eq!(cat("poodle"), Some(DiscardCategory::SingleWord));
    }

    #[test]
    fn camel_case_dev_labels() {
        assert_eq!(cat("navbarToggle"), Some(DiscardCategory::DevLabel));
        assert_eq!(cat("mainHeaderLogo"), Some(DiscardCategory::DevLabel));
        // Plain capitalised words are not dev labels (they're single words).
        assert_eq!(cat("Budget"), Some(DiscardCategory::SingleWord));
    }

    #[test]
    fn long_single_tokens_are_kept() {
        // ≥ 12 chars: assumed descriptive (compound/proper noun).
        assert_eq!(cat("chrysanthemum"), None);
        assert_eq!(cat("Thiruvananthapuram"), None);
        // Thai token of ≥ 9 chars is a phrase, keep.
        assert_eq!(cat("ตลาดน้ำดำเนินสะดวก"), None);
        // Short Thai token (3 chars: past the too-short bar, below the
        // continua keep length): single word.
        assert_eq!(cat("รูป"), Some(DiscardCategory::SingleWord));
    }

    #[test]
    fn thai_short_single_word() {
        // 4 Thai chars: above too-short (≥3), below continua keep (<9).
        assert_eq!(cat("แผนที่"), Some(DiscardCategory::SingleWord));
    }

    #[test]
    fn cjk_two_chars_not_too_short() {
        // 2 CJK chars pass the 1-char CJK limit; 图片 is a Placeholder, 风景 is useful.
        assert_eq!(cat("图片"), Some(DiscardCategory::Placeholder));
        assert_eq!(cat("风景"), None);
    }

    #[test]
    fn whitespace_and_empty() {
        assert_eq!(cat(""), Some(DiscardCategory::TooShort));
        assert_eq!(cat("   "), Some(DiscardCategory::TooShort));
        assert_eq!(cat(" ok "), Some(DiscardCategory::TooShort));
    }

    #[test]
    fn mixed_alnum_edge_cases() {
        assert_eq!(cat("a1b2c3"), Some(DiscardCategory::MixedAlnum));
        // Pure digits are not mixed-alnum; "12" is too short, "1234" is
        // non-linguistic but passes length — it falls through to None here
        // (language classification upstream buckets it as NonLinguistic).
        assert_eq!(cat("1234"), None);
        // Hyphenated alnum is DevLabel, not MixedAlnum.
        assert_eq!(cat("carousel-1"), Some(DiscardCategory::DevLabel));
    }

    #[test]
    fn url_detection_variants() {
        assert_eq!(cat("www.example.com"), Some(DiscardCategory::UrlOrFilePath));
        assert_eq!(
            cat("http://a.b/c?d=e"),
            Some(DiscardCategory::UrlOrFilePath)
        );
        // Multi-word strings containing a URL are informative enough.
        assert_eq!(cat("see https://example.com for details"), None);
    }

    #[test]
    fn ordinal_not_overtriggered() {
        assert_eq!(cat("2 of the best"), None);
        // "of 5" is word+number -> LabelNumberPattern, not ordinal.
        assert_eq!(cat("of 5"), Some(DiscardCategory::LabelNumberPattern));
        // "10 / 20 / 30" is not a simple ordinal.
        assert_eq!(cat("10 / 20 / 30"), None);
    }

    #[test]
    fn is_informative_helper() {
        assert!(is_informative("crowd at the festival"));
        assert!(!is_informative("icon"));
    }
}
