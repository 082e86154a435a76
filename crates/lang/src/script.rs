//! Unicode script classification.
//!
//! The paper's website-selection methodology (§2, "Website Selection") relies
//! on a *Unicode-based heuristic that matches visible text content against
//! script-specific character ranges*. This module is that heuristic's
//! foundation: a table of codepoint ranges for every script relevant to the
//! 26-language candidate pool, and a fast classifier from `char` to
//! [`Script`].
//!
//! Ranges are deliberately restricted to the blocks that carry *letters* of
//! the script; shared punctuation, digits, and whitespace map to
//! [`Script::Common`] so that mixed-direction pages do not skew language
//! percentages.

use serde::{Deserialize, Serialize};

/// A writing system distinguished by the measurement pipeline.
///
/// `Common` covers characters that do not discriminate between languages
/// (ASCII digits, punctuation, whitespace, symbols); `Unknown` covers
/// codepoints outside every tabulated range (private use, rare historic
/// scripts), which the pipeline treats as non-evidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Script {
    Latin,
    Greek,
    Cyrillic,
    Hebrew,
    Arabic,
    Devanagari,
    Bengali,
    Gurmukhi,
    Gujarati,
    Tamil,
    Telugu,
    Kannada,
    Malayalam,
    Sinhala,
    Thai,
    Myanmar,
    Georgian,
    Ethiopic,
    Hiragana,
    Katakana,
    Han,
    Hangul,
    /// Digits, punctuation, whitespace, currency and other shared symbols.
    Common,
    /// Codepoints outside every tabulated range.
    Unknown,
}

impl Script {
    /// All distinguishing (non-`Common`, non-`Unknown`) scripts.
    pub const ALL_DISTINGUISHING: [Script; 22] = [
        Script::Latin,
        Script::Greek,
        Script::Cyrillic,
        Script::Hebrew,
        Script::Arabic,
        Script::Devanagari,
        Script::Bengali,
        Script::Gurmukhi,
        Script::Gujarati,
        Script::Tamil,
        Script::Telugu,
        Script::Kannada,
        Script::Malayalam,
        Script::Sinhala,
        Script::Thai,
        Script::Myanmar,
        Script::Georgian,
        Script::Ethiopic,
        Script::Hiragana,
        Script::Katakana,
        Script::Han,
        Script::Hangul,
    ];

    /// Human-readable script name.
    pub fn name(self) -> &'static str {
        match self {
            Script::Latin => "Latin",
            Script::Greek => "Greek",
            Script::Cyrillic => "Cyrillic",
            Script::Hebrew => "Hebrew",
            Script::Arabic => "Arabic",
            Script::Devanagari => "Devanagari",
            Script::Bengali => "Bengali",
            Script::Gurmukhi => "Gurmukhi",
            Script::Gujarati => "Gujarati",
            Script::Tamil => "Tamil",
            Script::Telugu => "Telugu",
            Script::Kannada => "Kannada",
            Script::Malayalam => "Malayalam",
            Script::Sinhala => "Sinhala",
            Script::Thai => "Thai",
            Script::Myanmar => "Myanmar",
            Script::Georgian => "Georgian",
            Script::Ethiopic => "Ethiopic",
            Script::Hiragana => "Hiragana",
            Script::Katakana => "Katakana",
            Script::Han => "Han",
            Script::Hangul => "Hangul",
            Script::Common => "Common",
            Script::Unknown => "Unknown",
        }
    }

    /// Whether the script is one of the CJK family. The filtering rules of
    /// Appendix H use a shorter "too short" threshold (1 character) for CJK
    /// because single ideographs/syllable blocks carry full words.
    pub fn is_cjk(self) -> bool {
        matches!(
            self,
            Script::Han | Script::Hiragana | Script::Katakana | Script::Hangul
        )
    }

    /// Whether text in this script reads right-to-left.
    pub fn is_rtl(self) -> bool {
        matches!(self, Script::Hebrew | Script::Arabic)
    }

    /// Dense index of a distinguishing script (declaration order); used by
    /// the fixed-size histogram. `Common`/`Unknown` have no slot.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`Script::index`] for distinguishing scripts.
    #[inline]
    pub const fn from_index(i: usize) -> Script {
        Script::ALL_DISTINGUISHING[i]
    }
}

/// Number of distinguishing scripts (histogram slots).
pub const DISTINGUISHING_SCRIPTS: usize = Script::ALL_DISTINGUISHING.len();

/// An inclusive codepoint range assigned to one script.
#[derive(Debug, Clone, Copy)]
pub struct ScriptRange {
    pub start: u32,
    pub end: u32,
    pub script: Script,
}

/// The script range table, sorted by `start` and non-overlapping, enabling
/// binary search in [`script_of`].
///
/// Sources: the Unicode block allocations for each script. Only blocks that
/// contain letters used by the candidate-pool languages are included;
/// presentation forms for Arabic are mapped to `Arabic` because shaped glyphs
/// appear verbatim in scraped text.
pub const SCRIPT_RANGES: &[ScriptRange] = &[
    r(0x0041, 0x005A, Script::Latin),      // A-Z
    r(0x0061, 0x007A, Script::Latin),      // a-z
    r(0x00C0, 0x00FF, Script::Latin),      // Latin-1 letters (excl. × ÷ handled below)
    r(0x0100, 0x024F, Script::Latin),      // Latin Extended-A/B
    r(0x0370, 0x03FF, Script::Greek),      // Greek and Coptic
    r(0x0400, 0x04FF, Script::Cyrillic),   // Cyrillic
    r(0x0500, 0x052F, Script::Cyrillic),   // Cyrillic Supplement
    r(0x0590, 0x05FF, Script::Hebrew),     // Hebrew
    r(0x0600, 0x06FF, Script::Arabic),     // Arabic
    r(0x0750, 0x077F, Script::Arabic),     // Arabic Supplement
    r(0x08A0, 0x08FF, Script::Arabic),     // Arabic Extended-A
    r(0x0900, 0x097F, Script::Devanagari), // Devanagari
    r(0x0980, 0x09FF, Script::Bengali),    // Bengali
    r(0x0A00, 0x0A7F, Script::Gurmukhi),   // Gurmukhi
    r(0x0A80, 0x0AFF, Script::Gujarati),   // Gujarati
    r(0x0B80, 0x0BFF, Script::Tamil),      // Tamil
    r(0x0C00, 0x0C7F, Script::Telugu),     // Telugu
    r(0x0C80, 0x0CFF, Script::Kannada),    // Kannada
    r(0x0D00, 0x0D7F, Script::Malayalam),  // Malayalam
    r(0x0D80, 0x0DFF, Script::Sinhala),    // Sinhala
    r(0x0E00, 0x0E7F, Script::Thai),       // Thai
    r(0x1000, 0x109F, Script::Myanmar),    // Myanmar
    r(0x10A0, 0x10FF, Script::Georgian),   // Georgian
    r(0x1100, 0x11FF, Script::Hangul),     // Hangul Jamo
    r(0x1200, 0x137F, Script::Ethiopic),   // Ethiopic
    r(0x13A0, 0x13FF, Script::Unknown),    // Cherokee (not in pool; explicit non-evidence)
    r(0x1780, 0x17FF, Script::Unknown),    // Khmer (not in pool)
    r(0x1C90, 0x1CBF, Script::Georgian),   // Georgian Extended
    r(0x1E00, 0x1EFF, Script::Latin),      // Latin Extended Additional
    r(0x1F00, 0x1FFF, Script::Greek),      // Greek Extended
    r(0x3040, 0x309F, Script::Hiragana),   // Hiragana
    r(0x30A0, 0x30FF, Script::Katakana),   // Katakana
    r(0x3130, 0x318F, Script::Hangul),     // Hangul Compatibility Jamo
    r(0x31F0, 0x31FF, Script::Katakana),   // Katakana Phonetic Extensions
    r(0x3400, 0x4DBF, Script::Han),        // CJK Extension A
    r(0x4E00, 0x9FFF, Script::Han),        // CJK Unified Ideographs
    r(0xA8E0, 0xA8FF, Script::Devanagari), // Devanagari Extended
    r(0xAC00, 0xD7AF, Script::Hangul),     // Hangul Syllables
    r(0xF900, 0xFAFF, Script::Han),        // CJK Compatibility Ideographs
    r(0xFB1D, 0xFB4F, Script::Hebrew),     // Hebrew Presentation Forms
    r(0xFB50, 0xFDFF, Script::Arabic),     // Arabic Presentation Forms-A
    r(0xFE70, 0xFEFF, Script::Arabic),     // Arabic Presentation Forms-B
    r(0x20000, 0x2A6DF, Script::Han),      // CJK Extension B
];

const fn r(start: u32, end: u32, script: Script) -> ScriptRange {
    ScriptRange { start, end, script }
}

/// The flat classification table driving [`script_of`]: `SCRIPT_RANGES`
/// merged with the shared-character (`Common`) ranges that the old
/// implementation special-cased with per-call branch chains — the Latin-1
/// `×`/`÷` signs, general punctuation and symbols (U+2000–U+2BFF), and CJK
/// punctuation (U+3000–U+303F). Sorted and disjoint, so one binary search
/// classifies any non-ASCII character; a parallel `starts` array keeps the
/// search cache-friendly.
const LOOKUP_RANGES: &[ScriptRange] = &[
    r(0x0041, 0x005A, Script::Latin),
    r(0x0061, 0x007A, Script::Latin),
    r(0x00C0, 0x00D6, Script::Latin),
    r(0x00D7, 0x00D7, Script::Common), // multiplication sign
    r(0x00D8, 0x00F6, Script::Latin),
    r(0x00F7, 0x00F7, Script::Common), // division sign
    r(0x00F8, 0x00FF, Script::Latin),
    r(0x0100, 0x024F, Script::Latin),
    r(0x0370, 0x03FF, Script::Greek),
    r(0x0400, 0x04FF, Script::Cyrillic),
    r(0x0500, 0x052F, Script::Cyrillic),
    r(0x0590, 0x05FF, Script::Hebrew),
    r(0x0600, 0x06FF, Script::Arabic),
    r(0x0750, 0x077F, Script::Arabic),
    r(0x08A0, 0x08FF, Script::Arabic),
    r(0x0900, 0x097F, Script::Devanagari),
    r(0x0980, 0x09FF, Script::Bengali),
    r(0x0A00, 0x0A7F, Script::Gurmukhi),
    r(0x0A80, 0x0AFF, Script::Gujarati),
    r(0x0B80, 0x0BFF, Script::Tamil),
    r(0x0C00, 0x0C7F, Script::Telugu),
    r(0x0C80, 0x0CFF, Script::Kannada),
    r(0x0D00, 0x0D7F, Script::Malayalam),
    r(0x0D80, 0x0DFF, Script::Sinhala),
    r(0x0E00, 0x0E7F, Script::Thai),
    r(0x1000, 0x109F, Script::Myanmar),
    r(0x10A0, 0x10FF, Script::Georgian),
    r(0x1100, 0x11FF, Script::Hangul),
    r(0x1200, 0x137F, Script::Ethiopic),
    r(0x13A0, 0x13FF, Script::Unknown), // Cherokee (not in pool)
    r(0x1780, 0x17FF, Script::Unknown), // Khmer (not in pool)
    r(0x1C90, 0x1CBF, Script::Georgian),
    r(0x1E00, 0x1EFF, Script::Latin),
    r(0x1F00, 0x1FFF, Script::Greek),
    r(0x2000, 0x2BFF, Script::Common), // punctuation, symbols, arrows
    r(0x3000, 0x303F, Script::Common), // CJK punctuation
    r(0x3040, 0x309F, Script::Hiragana),
    r(0x30A0, 0x30FF, Script::Katakana),
    r(0x3130, 0x318F, Script::Hangul),
    r(0x31F0, 0x31FF, Script::Katakana),
    r(0x3400, 0x4DBF, Script::Han),
    r(0x4E00, 0x9FFF, Script::Han),
    r(0xA8E0, 0xA8FF, Script::Devanagari),
    r(0xAC00, 0xD7AF, Script::Hangul),
    r(0xF900, 0xFAFF, Script::Han),
    r(0xFB1D, 0xFB4F, Script::Hebrew),
    r(0xFB50, 0xFDFF, Script::Arabic),
    r(0xFE70, 0xFEFF, Script::Arabic),
    r(0x20000, 0x2A6DF, Script::Han),
];

/// Range starts extracted into a flat array so the hot binary search scans
/// contiguous `u32`s instead of striding over 12-byte `ScriptRange`s.
const LOOKUP_STARTS: [u32; LOOKUP_RANGES.len()] = {
    let mut starts = [0u32; LOOKUP_RANGES.len()];
    let mut i = 0;
    while i < LOOKUP_RANGES.len() {
        starts[i] = LOOKUP_RANGES[i].start;
        i += 1;
    }
    starts
};

/// Direct classification table for the ASCII fast path.
const ASCII_TABLE: [Script; 128] = {
    let mut table = [Script::Common; 128];
    let mut i = b'A';
    while i <= b'Z' {
        table[i as usize] = Script::Latin;
        i += 1;
    }
    let mut i = b'a';
    while i <= b'z' {
        table[i as usize] = Script::Latin;
        i += 1;
    }
    table
};

/// Characters per entry of [`BMP_BLOCKS`].
const BLOCK: u32 = 64;

/// Classification of the Basic Multilingual Plane in 64-code-point
/// blocks: `Some(script)` when every code point of the block classifies
/// as `script`; `None` when they differ (the block straddles a range
/// edge, or a gap that holds whitespace), which sends the lookup to the
/// binary search. Built at compile time by [`classify_by_search`]
/// itself, so the two agree by construction; a unit test also checks
/// every scalar value.
const BMP_BLOCKS: [Option<Script>; 0x10000 / BLOCK as usize] = {
    let mut table = [None; 0x10000 / BLOCK as usize];
    let mut block = 0;
    while block < table.len() {
        let start = block as u32 * BLOCK;
        let first = classify_by_search_const(start);
        let mut uniform = true;
        let mut cp = start + 1;
        while uniform && cp < start + BLOCK {
            // Surrogates are not chars; no block mixes them with others.
            uniform = classify_by_search_const(cp) as u8 == first as u8;
            cp += 1;
        }
        if uniform {
            table[block] = Some(first);
        }
        block += 1;
    }
    table
};

/// [`classify_by_search`] over a raw code point, callable at compile
/// time (surrogate code points classify as [`Script::Unknown`]).
const fn classify_by_search_const(cp: u32) -> Script {
    match char::from_u32(cp) {
        Some(c) => classify_by_search(c),
        None => Script::Unknown,
    }
}

/// The reference classification: the ASCII table, then one binary
/// search over `LOOKUP_RANGES`, then the whitespace rule for gaps.
/// [`script_of`] answers from [`BMP_BLOCKS`] where a block is uniform
/// and falls back to this everywhere else.
const fn classify_by_search(c: char) -> Script {
    let cp = c as u32;
    if cp < 0x80 {
        return ASCII_TABLE[cp as usize];
    }
    // Index of the last range whose start is <= cp, if any.
    let (mut lo, mut hi) = (0, LOOKUP_STARTS.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if LOOKUP_STARTS[mid] <= cp {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo > 0 && cp <= LOOKUP_RANGES[lo - 1].end {
        return LOOKUP_RANGES[lo - 1].script;
    }
    // Gaps: whitespace not covered by a table range (NBSP, NEL, Ogham
    // space, …) counts as Common; everything else is non-evidence.
    if c.is_whitespace() {
        Script::Common
    } else {
        Script::Unknown
    }
}

/// Classify a single character into a [`Script`].
///
/// ASCII digits, punctuation, whitespace and symbols return
/// [`Script::Common`]; characters inside a tabulated block return that
/// block's script; everything else returns [`Script::Unknown`]. The lookup
/// is table-driven: a 128-entry direct table for ASCII, one load from a
/// table of 64-code-point blocks for the rest of the BMP, and a binary
/// search over the merged `LOOKUP_RANGES` table only for the few blocks
/// that straddle a range edge and for code points above the BMP.
///
/// ```
/// use langcrux_lang::script::{script_of, Script};
/// assert_eq!(script_of('a'), Script::Latin);
/// assert_eq!(script_of('ক'), Script::Bengali);
/// assert_eq!(script_of('7'), Script::Common);
/// assert_eq!(script_of('한'), Script::Hangul);
/// ```
#[inline]
pub fn script_of(c: char) -> Script {
    let cp = c as u32;
    if cp < 0x80 {
        return ASCII_TABLE[cp as usize];
    }
    if let Some(&Some(script)) = BMP_BLOCKS.get((cp / BLOCK) as usize) {
        return script;
    }
    classify_by_search(c)
}

/// Histogram of scripts in a string, counted over characters.
///
/// This is the core primitive behind the paper's 50%-native-content
/// threshold: count characters per script, ignore `Common`, and compare
/// the target script share against the total of distinguishing characters.
///
/// Counts live in a fixed `[usize; 22]` indexed by [`Script::index`], so a
/// histogram is a small stack value — `push` is two array increments with
/// no allocation or linear probing, and per-label classification can build
/// one on the stack for every accessibility element without touching the
/// heap.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScriptHistogram {
    counts: [usize; DISTINGUISHING_SCRIPTS],
    /// Characters classified as `Common` (not part of any share).
    pub common: usize,
    /// Characters classified as `Unknown`.
    pub unknown: usize,
    /// Total characters seen (including common/unknown).
    pub total: usize,
}

impl ScriptHistogram {
    /// Count scripts over all chars of `text`.
    pub fn of(text: &str) -> Self {
        let mut hist = ScriptHistogram::default();
        for c in text.chars() {
            hist.push(c);
        }
        hist
    }

    /// Add a single character to the histogram.
    #[inline]
    pub fn push(&mut self, c: char) {
        self.push_script(script_of(c));
    }

    /// Add a single character already classified as `script`, for a
    /// caller that needs the classification itself too.
    #[inline]
    pub fn push_script(&mut self, script: Script) {
        self.total += 1;
        match script {
            Script::Common => self.common += 1,
            Script::Unknown => self.unknown += 1,
            s => self.counts[s.index()] += 1,
        }
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &ScriptHistogram) {
        self.common += other.common;
        self.unknown += other.unknown;
        self.total += other.total;
        for (slot, n) in self.counts.iter_mut().zip(other.counts.iter()) {
            *slot += n;
        }
    }

    /// Count of characters in a given script.
    #[inline]
    pub fn count(&self, script: Script) -> usize {
        match script {
            Script::Common | Script::Unknown => 0,
            s => self.counts[s.index()],
        }
    }

    /// Total count of distinguishing (non-common, non-unknown) characters.
    pub fn distinguishing_total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Share (0.0–1.0) of `script` among distinguishing characters.
    /// Returns `None` when the text has no distinguishing characters.
    pub fn share(&self, script: Script) -> Option<f64> {
        let total = self.distinguishing_total();
        if total == 0 {
            None
        } else {
            Some(self.count(script) as f64 / total as f64)
        }
    }

    /// The script with the highest count, if any distinguishing chars exist.
    /// Ties break toward the lower-ordered `Script` variant so the result is
    /// deterministic.
    pub fn dominant(&self) -> Option<Script> {
        let mut best: Option<(usize, usize)> = None; // (index, count)
        for (i, &n) in self.counts.iter().enumerate() {
            if n > 0 && best.is_none_or(|(_, b)| n > b) {
                best = Some((i, n));
            }
        }
        best.map(|(i, _)| Script::from_index(i))
    }

    /// Iterate over `(script, count)` pairs for scripts that are present,
    /// in [`Script`] declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (Script, usize)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Script::from_index(i), n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_sorted_and_disjoint() {
        for w in SCRIPT_RANGES.windows(2) {
            assert!(
                w[0].end < w[1].start,
                "ranges overlap or unsorted: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
        for range in SCRIPT_RANGES {
            assert!(range.start <= range.end, "inverted range {:?}", range);
        }
    }

    #[test]
    fn lookup_table_is_sorted_and_disjoint() {
        for w in LOOKUP_RANGES.windows(2) {
            assert!(
                w[0].end < w[1].start,
                "lookup ranges overlap or unsorted: {:?} vs {:?}",
                w[0],
                w[1]
            );
        }
        for range in LOOKUP_RANGES {
            assert!(range.start <= range.end, "inverted range {:?}", range);
        }
    }

    #[test]
    fn lookup_table_covers_script_ranges() {
        // Every letter range of the documentation table classifies to the
        // same script through the merged lookup table (spot-check range
        // edges plus midpoints).
        for range in SCRIPT_RANGES {
            for cp in [range.start, (range.start + range.end) / 2, range.end] {
                if let Some(c) = char::from_u32(cp) {
                    assert_eq!(script_of(c), range.script, "U+{cp:04X} misclassified");
                }
            }
        }
    }

    #[test]
    fn block_table_agrees_with_search_on_every_scalar_value() {
        let mut checked = 0u32;
        for c in (0..=0x10FFFFu32).filter_map(char::from_u32) {
            assert_eq!(script_of(c), classify_by_search(c), "U+{:04X}", c as u32);
            checked += 1;
        }
        assert_eq!(checked, 1_112_064);
        // Most of the BMP answers from the table without a search.
        let uniform = BMP_BLOCKS.iter().filter(|b| b.is_some()).count();
        assert!(
            uniform > BMP_BLOCKS.len() * 9 / 10,
            "{uniform} uniform blocks"
        );
    }

    #[test]
    fn script_index_round_trips() {
        for (i, s) in Script::ALL_DISTINGUISHING.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(Script::from_index(i), *s);
        }
    }

    #[test]
    fn whitespace_gaps_are_common() {
        // Whitespace outside every table range must stay Common.
        for c in ['\u{A0}', '\u{85}', '\u{1680}', '\u{2028}', '\u{3000}'] {
            assert_eq!(script_of(c), Script::Common, "{c:?}");
        }
    }

    #[test]
    fn ascii_classification() {
        assert_eq!(script_of('a'), Script::Latin);
        assert_eq!(script_of('Z'), Script::Latin);
        assert_eq!(script_of('0'), Script::Common);
        assert_eq!(script_of(' '), Script::Common);
        assert_eq!(script_of('-'), Script::Common);
        assert_eq!(script_of('!'), Script::Common);
    }

    #[test]
    fn non_latin_scripts() {
        assert_eq!(script_of('क'), Script::Devanagari); // U+0915
        assert_eq!(script_of('ক'), Script::Bengali); // U+0995
        assert_eq!(script_of('ا'), Script::Arabic); // U+0627
        assert_eq!(script_of('א'), Script::Hebrew); // U+05D0
        assert_eq!(script_of('Ω'), Script::Greek); // U+03A9
        assert_eq!(script_of('Я'), Script::Cyrillic); // U+042F
        assert_eq!(script_of('ก'), Script::Thai); // U+0E01
        assert_eq!(script_of('中'), Script::Han); // U+4E2D
        assert_eq!(script_of('あ'), Script::Hiragana); // U+3042
        assert_eq!(script_of('ア'), Script::Katakana); // U+30A2
        assert_eq!(script_of('한'), Script::Hangul); // U+D55C
        assert_eq!(script_of('த'), Script::Tamil); // U+0BA4
        assert_eq!(script_of("తె".chars().next().unwrap()), Script::Telugu);
        assert_eq!(script_of('ම'), Script::Sinhala); // U+0DB8
        assert_eq!(script_of('ქ'), Script::Georgian); // U+10E5
        assert_eq!(script_of('မ'), Script::Myanmar); // U+1019
        assert_eq!(script_of('አ'), Script::Ethiopic); // U+12A0
    }

    #[test]
    fn latin1_signs_are_common() {
        assert_eq!(script_of('×'), Script::Common);
        assert_eq!(script_of('÷'), Script::Common);
        assert_eq!(script_of('é'), Script::Latin);
    }

    #[test]
    fn cjk_punctuation_is_common() {
        assert_eq!(script_of('。'), Script::Common); // U+3002 ideographic full stop
        assert_eq!(script_of('「'), Script::Common); // U+300C corner bracket
    }

    #[test]
    fn presentation_forms() {
        assert_eq!(script_of('\u{FB50}'), Script::Arabic);
        assert_eq!(script_of('\u{FE70}'), Script::Arabic);
        assert_eq!(script_of('\u{FB1D}'), Script::Hebrew);
    }

    #[test]
    fn histogram_counts_and_share() {
        let h = ScriptHistogram::of("হ্যালো hello 123");
        assert!(h.count(Script::Bengali) > 0);
        assert_eq!(h.count(Script::Latin), 5);
        assert!(h.common >= 5); // digits + spaces
        let share = h.share(Script::Latin).unwrap();
        assert!(share > 0.0 && share < 1.0);
    }

    #[test]
    fn histogram_empty_text() {
        let h = ScriptHistogram::of("");
        assert_eq!(h.total, 0);
        assert_eq!(h.share(Script::Latin), None);
        assert_eq!(h.dominant(), None);
    }

    #[test]
    fn histogram_pure_common() {
        let h = ScriptHistogram::of("12345 !!! ...");
        assert_eq!(h.distinguishing_total(), 0);
        assert_eq!(h.share(Script::Thai), None);
        assert_eq!(h.dominant(), None);
    }

    #[test]
    fn histogram_dominant() {
        // 15 Latin letters vs 12 Cyrillic letters -> Latin dominates.
        let h = ScriptHistogram::of("Русский текст with some English");
        assert_eq!(h.count(Script::Cyrillic), 12);
        assert_eq!(h.count(Script::Latin), 15);
        assert_eq!(h.dominant(), Some(Script::Latin));

        let h = ScriptHistogram::of("Русский текст коротко en");
        assert_eq!(h.dominant(), Some(Script::Cyrillic));
    }

    #[test]
    fn histogram_merge() {
        let mut a = ScriptHistogram::of("hello");
        let b = ScriptHistogram::of("мир");
        a.merge(&b);
        assert_eq!(a.count(Script::Latin), 5);
        assert_eq!(a.count(Script::Cyrillic), 3);
        assert_eq!(a.total, 8);
    }

    #[test]
    fn cjk_and_rtl_flags() {
        assert!(Script::Han.is_cjk());
        assert!(Script::Hangul.is_cjk());
        assert!(!Script::Thai.is_cjk());
        assert!(Script::Arabic.is_rtl());
        assert!(Script::Hebrew.is_rtl());
        assert!(!Script::Greek.is_rtl());
    }
}
