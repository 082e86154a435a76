//! The text generator.
//!
//! [`TextGenerator`] produces deterministic pseudo-text in any candidate
//! language: words, phrases, sentences, paragraphs, headlines, and
//! descriptive alt texts. Output is *synthetic* — it is not meaningful prose
//! — but it is script-faithful: the language-identification heuristics of
//! `langcrux-langid` classify it exactly like real text of that language,
//! which is all the measurement pipeline observes.
//!
//! Whitespace conventions follow the real orthographies: Chinese, Japanese
//! and Thai sentences carry no inter-word spaces; everything else is
//! space-separated. (Word-count metrics in the analysis layer count
//! whitespace-delimited tokens, as the paper's Table 2 does.)

use crate::english;
use crate::pools::{self, AlphaPool};
use langcrux_lang::rng;
use langcrux_lang::Language;
use rand::rngs::StdRng;
use rand::Rng;

/// Deterministic text generator for one language.
#[derive(Debug)]
pub struct TextGenerator {
    language: Language,
    rng: StdRng,
}

impl TextGenerator {
    /// Create a generator for `language` from a base seed and stream ids.
    pub fn new(language: Language, seed: u64) -> Self {
        TextGenerator {
            language,
            rng: rng::rng_for(seed, &[language as u64 + 1]),
        }
    }

    /// The language this generator produces.
    pub fn language(&self) -> Language {
        self.language
    }

    /// Re-point a pooled generator at a new `(language, seed)` stream in
    /// place — state-identical to [`TextGenerator::new`], but without
    /// constructing a new value. This is what lets a render arena keep one
    /// generator per role and recycle it across pages.
    pub fn reseed(&mut self, language: Language, seed: u64) {
        self.language = language;
        self.rng = rng::rng_for(seed, &[language as u64 + 1]);
    }

    fn pick<T: Copy>(&mut self, slice: &[T]) -> T {
        slice[self.rng.gen_range(0..slice.len())]
    }

    /// Generate one word.
    pub fn word(&mut self) -> String {
        let mut out = String::new();
        self.append_word(&mut out);
        out
    }

    /// [`word`](Self::word) written into a caller-owned buffer. Bytes and
    /// RNG draws are identical to `word` — this is the innermost step of
    /// the allocation diet (the old path allocated one `String` per word).
    pub fn append_word(&mut self, out: &mut String) {
        match self.language {
            Language::English => self.append_english_word(out),
            Language::MandarinChinese => self.append_han_word(pools::HAN_SIMPLIFIED, out),
            Language::Cantonese => self.append_han_word(pools::HAN_TRADITIONAL, out),
            Language::Japanese => self.append_japanese_word(out),
            Language::Korean => self.append_korean_word(out),
            Language::Amharic => self.append_ethiopic_word(out),
            Language::Thai => self.append_thai_word(out),
            lang => self.append_alpha_word(alpha_pool_for(lang), out),
        }
    }

    fn append_english_word(&mut self, out: &mut String) {
        let roll: f64 = self.rng.gen();
        let word = if roll < 0.25 {
            self.pick(english::FUNCTION_WORDS)
        } else if roll < 0.65 {
            self.pick(english::NOUNS)
        } else if roll < 0.85 {
            self.pick(english::ADJECTIVES)
        } else {
            self.pick(english::VERBS)
        };
        out.push_str(word);
    }

    /// Alphabetic / abugida word: 1–4 syllables of base(+sign|vowel).
    fn append_alpha_word(&mut self, pool: AlphaPool, out: &mut String) {
        let syllables = self.rng.gen_range(1..=4);
        // Occasionally start with an independent vowel.
        if !pool.vowels.is_empty() && self.rng.gen_bool(0.2) {
            let c = self.pick(pool.vowels);
            out.push(c);
        }
        for _ in 0..syllables {
            let c = self.pick(pool.base);
            out.push(c);
            if !pool.signs.is_empty() && self.rng.gen_bool(0.65) {
                let c = self.pick(pool.signs);
                out.push(c);
            } else if !pool.vowels.is_empty() && pool.signs.is_empty() && self.rng.gen_bool(0.75) {
                let c = self.pick(pool.vowels);
                out.push(c);
            }
        }
        if !pool.finals.is_empty() && self.rng.gen_bool(0.25) {
            let c = self.pick(pool.finals);
            out.push(c);
        }
    }

    fn append_han_word(&mut self, pool: &[char], out: &mut String) {
        let len = self.pick(&[1usize, 2, 2, 2, 3]);
        for _ in 0..len {
            let c = self.pick(pool);
            out.push(c);
        }
    }

    fn append_japanese_word(&mut self, out: &mut String) {
        let roll: f64 = self.rng.gen();
        if roll < 0.55 {
            // Kanji stem, optionally with hiragana okurigana.
            let kanji = self.rng.gen_range(1..=2);
            for _ in 0..kanji {
                let c = self.pick(pools::KANJI);
                out.push(c);
            }
            if self.rng.gen_bool(0.5) {
                let c = self.pick(pools::HIRAGANA);
                out.push(c);
            }
        } else if roll < 0.85 {
            let len = self.rng.gen_range(2..=4);
            for _ in 0..len {
                let c = self.pick(pools::HIRAGANA);
                out.push(c);
            }
        } else {
            // Katakana loan word, often with a long-vowel mark.
            let len = self.rng.gen_range(2..=5);
            for _ in 0..len {
                let c = self.pick(pools::KATAKANA);
                out.push(c);
            }
            if self.rng.gen_bool(0.35) {
                out.push('ー');
            }
        }
    }

    fn append_korean_word(&mut self, out: &mut String) {
        let len = self.rng.gen_range(1..=4);
        for _ in 0..len {
            let c = self.hangul_syllable();
            out.push(c);
        }
    }

    /// Compose a Hangul syllable block from jamo indices:
    /// `0xAC00 + (initial*21 + vowel)*28 + final`.
    fn hangul_syllable(&mut self) -> char {
        let initial = self.rng.gen_range(0..19u32);
        let vowel = self.rng.gen_range(0..21u32);
        // Bias toward open syllables (no final consonant), as in real text.
        let final_c = if self.rng.gen_bool(0.6) {
            0
        } else {
            self.rng.gen_range(1..28u32)
        };
        char::from_u32(0xAC00 + (initial * 21 + vowel) * 28 + final_c).expect("valid Hangul")
    }

    fn append_ethiopic_word(&mut self, out: &mut String) {
        let len = self.rng.gen_range(2..=4);
        for _ in 0..len {
            let base = self.pick(pools::ETHIOPIC_ROW_BASES);
            let order = self.rng.gen_range(0..7u32);
            out.push(char::from_u32(base + order).expect("valid Ethiopic"));
        }
    }

    fn append_thai_word(&mut self, out: &mut String) {
        let syllables = self.rng.gen_range(1..=3);
        for _ in 0..syllables {
            if self.rng.gen_bool(0.25) {
                let c = self.pick(pools::THAI_PREFIX_VOWELS);
                out.push(c);
            }
            let c = self.pick(pools::THAI.base);
            out.push(c);
            if self.rng.gen_bool(0.6) {
                let roll: f64 = self.rng.gen();
                let c = if roll < 0.5 {
                    self.pick(pools::THAI.signs)
                } else {
                    self.pick(pools::THAI.vowels)
                };
                out.push(c);
            }
        }
    }

    /// Whether this language writes without inter-word spaces.
    pub fn scriptio_continua(&self) -> bool {
        matches!(
            self.language,
            Language::MandarinChinese | Language::Cantonese | Language::Japanese | Language::Thai
        )
    }

    /// `n` words joined by the language's separator (space, or nothing for
    /// scriptio-continua languages).
    pub fn words(&mut self, n: usize) -> String {
        let mut out = String::new();
        self.append_words(n, &mut out);
        out
    }

    /// [`words`](Self::words) written into a caller-owned buffer — the
    /// allocation-diet path: the per-word `Vec<String>` + `join` pair is
    /// replaced by direct pushes, and the caller reuses `out` across
    /// calls. Bytes and RNG draws are identical to `words`.
    pub fn append_words(&mut self, n: usize, out: &mut String) {
        let sep = if self.scriptio_continua() { "" } else { " " };
        for i in 0..n {
            if i > 0 {
                out.push_str(sep);
            }
            self.append_word(out);
        }
    }

    /// A phrase of between `min` and `max` words (inclusive), separated per
    /// the language's convention. Suitable for labels and alt texts.
    pub fn phrase(&mut self, min: usize, max: usize) -> String {
        let mut out = String::new();
        self.append_phrase(min, max, &mut out);
        out
    }

    /// [`phrase`](Self::phrase) into a caller-owned buffer.
    pub fn append_phrase(&mut self, min: usize, max: usize, out: &mut String) {
        let n = if min >= max {
            min
        } else {
            self.rng.gen_range(min..=max)
        };
        if self.language == Language::Japanese && n > 1 {
            // Insert particles between content words.
            for i in 0..n {
                if i > 0 && self.rng.gen_bool(0.6) {
                    out.push_str(
                        pools::JA_PARTICLES[self.rng.gen_range(0..pools::JA_PARTICLES.len())],
                    );
                }
                self.append_word(out);
            }
            return;
        }
        self.append_words(n, out);
    }

    /// A full sentence with terminal punctuation appropriate to the script.
    pub fn sentence(&mut self) -> String {
        let mut out = String::new();
        self.append_sentence(&mut out);
        out
    }

    /// [`sentence`](Self::sentence) into a caller-owned buffer.
    pub fn append_sentence(&mut self, out: &mut String) {
        let n = self.rng.gen_range(5..=14);
        self.append_phrase(n, n, out);
        let terminal = match self.language {
            Language::MandarinChinese | Language::Cantonese | Language::Japanese => "。",
            Language::Hindi | Language::Marathi | Language::Nepali => "।",
            Language::ModernStandardArabic
            | Language::EgyptianArabic
            | Language::Urdu
            | Language::Persian => "؟",
            Language::Greek => ".",
            Language::Thai => "",
            _ => ".",
        };
        // Arabic question mark only sometimes; default full stop.
        if terminal == "؟" {
            out.push_str(if self.rng.gen_bool(0.1) { "؟" } else { "." });
        } else {
            out.push_str(terminal);
        }
    }

    /// A paragraph of `sentences` sentences.
    pub fn paragraph(&mut self, sentences: usize) -> String {
        let mut out = String::new();
        self.append_paragraph(sentences, &mut out);
        out
    }

    /// [`paragraph`](Self::paragraph) into a caller-owned buffer.
    pub fn append_paragraph(&mut self, sentences: usize, out: &mut String) {
        for i in 0..sentences {
            if i > 0 {
                out.push(' ');
            }
            self.append_sentence(out);
        }
    }

    /// A short headline (2–7 words, no terminal punctuation).
    pub fn headline(&mut self) -> String {
        let mut out = String::new();
        self.append_headline(&mut out);
        out
    }

    /// [`headline`](Self::headline) into a caller-owned buffer.
    pub fn append_headline(&mut self, out: &mut String) {
        if self.language == Language::English {
            // Headline grammar: [adj] noun verb [adj] noun. The words are
            // `&'static str`, so staging them in a fixed array keeps the
            // zero-alloc property while preserving the draw order.
            let with_adj1 = self.rng.gen_bool(0.6);
            let with_adj2 = self.rng.gen_bool(0.5);
            let mut words: [&str; 5] = [""; 5];
            let mut n = 0;
            if with_adj1 {
                words[n] = self.pick(english::ADJECTIVES);
                n += 1;
            }
            words[n] = self.pick(english::NOUNS);
            n += 1;
            words[n] = self.pick(english::VERBS);
            n += 1;
            if with_adj2 {
                words[n] = self.pick(english::ADJECTIVES);
                n += 1;
            }
            words[n] = self.pick(english::NOUNS);
            n += 1;
            for (i, word) in words[..n].iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                out.push_str(word);
            }
            return;
        }
        self.append_phrase(2, 7, out);
    }

    /// A descriptive alt text: what a photo depicts, in this language.
    /// English alt texts use the concrete subject bank for realism.
    pub fn alt_text(&mut self) -> String {
        let mut out = String::new();
        self.append_alt_text(&mut out);
        out
    }

    /// [`alt_text`](Self::alt_text) into a caller-owned buffer.
    pub fn append_alt_text(&mut self, out: &mut String) {
        if self.language == Language::English {
            let subject = self.pick(english::IMAGE_SUBJECTS);
            out.push_str(subject);
            return;
        }
        self.append_phrase(3, 8, out);
    }

    /// An informative section/navigation label (1–3 words; English uses the
    /// curated multi-word section names so the single-word filter keeps it).
    pub fn section_label(&mut self) -> String {
        let mut out = String::new();
        self.append_section_label(&mut out);
        out
    }

    /// [`section_label`](Self::section_label) into a caller-owned buffer.
    pub fn append_section_label(&mut self, out: &mut String) {
        if self.language == Language::English {
            let section = self.pick(english::UI_SECTIONS);
            out.push_str(section);
            return;
        }
        self.append_phrase(1, 3, out);
    }
}

fn alpha_pool_for(lang: Language) -> AlphaPool {
    match lang {
        Language::English => pools::LATIN,
        Language::Russian => pools::CYRILLIC,
        Language::Greek => pools::GREEK,
        Language::Hebrew => pools::HEBREW,
        Language::ModernStandardArabic | Language::EgyptianArabic => pools::ARABIC,
        Language::Urdu => pools::URDU,
        Language::Persian => pools::PERSIAN,
        Language::Hindi | Language::Nepali => pools::DEVANAGARI,
        Language::Marathi => pools::MARATHI,
        Language::Bangla => pools::BENGALI,
        Language::Punjabi => pools::GURMUKHI,
        Language::Gujarati => pools::GUJARATI,
        Language::Tamil => pools::TAMIL,
        Language::Telugu => pools::TELUGU,
        Language::Kannada => pools::KANNADA,
        Language::Malayalam => pools::MALAYALAM,
        Language::Sinhala => pools::SINHALA,
        Language::Thai => pools::THAI,
        Language::Burmese => pools::MYANMAR,
        Language::Georgian => pools::GEORGIAN,
        // Han/kana/hangul/ethiopic languages never reach here.
        Language::MandarinChinese
        | Language::Cantonese
        | Language::Japanese
        | Language::Korean
        | Language::Amharic => unreachable!("non-alphabetic language {lang:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_lang::script::ScriptHistogram;

    const ALL_LANGS: &[Language] = &[
        Language::English,
        Language::MandarinChinese,
        Language::Cantonese,
        Language::Japanese,
        Language::Korean,
        Language::Thai,
        Language::Hindi,
        Language::Bangla,
        Language::Russian,
        Language::Greek,
        Language::Hebrew,
        Language::ModernStandardArabic,
        Language::EgyptianArabic,
        Language::Urdu,
        Language::Tamil,
        Language::Telugu,
        Language::Marathi,
        Language::Amharic,
        Language::Burmese,
        Language::Sinhala,
        Language::Georgian,
        Language::Punjabi,
        Language::Gujarati,
        Language::Kannada,
        Language::Malayalam,
        Language::Persian,
        Language::Nepali,
    ];

    #[test]
    fn words_are_nonempty_for_all_languages() {
        for &lang in ALL_LANGS {
            let mut g = TextGenerator::new(lang, 1);
            for _ in 0..50 {
                assert!(!g.word().is_empty(), "{lang:?}");
            }
        }
    }

    #[test]
    fn append_variants_match_returning_variants() {
        // The allocation-diet path must be byte- and RNG-draw-identical.
        for &lang in ALL_LANGS {
            let mut returning = TextGenerator::new(lang, 321);
            let mut appending = TextGenerator::new(lang, 321);
            let mut scratch = String::new();
            for round in 0..5 {
                let expect = format!(
                    "{}|{}|{}|{}",
                    returning.words(3),
                    returning.phrase(2, 6),
                    returning.sentence(),
                    returning.paragraph(2)
                );
                scratch.clear();
                appending.append_words(3, &mut scratch);
                scratch.push('|');
                appending.append_phrase(2, 6, &mut scratch);
                scratch.push('|');
                appending.append_sentence(&mut scratch);
                scratch.push('|');
                appending.append_paragraph(2, &mut scratch);
                assert_eq!(scratch, expect, "{lang:?} round {round}");
            }
        }
    }

    #[test]
    fn append_word_headline_alt_label_match_returning_variants() {
        // Every converted API must be byte- AND RNG-draw-identical: the
        // trailing word() comparison fails if any append variant consumed
        // a different number of draws.
        for &lang in ALL_LANGS {
            let mut returning = TextGenerator::new(lang, 8181);
            let mut appending = TextGenerator::new(lang, 8181);
            let mut scratch = String::new();
            for round in 0..8 {
                let expect = format!(
                    "{}|{}|{}|{}",
                    returning.word(),
                    returning.headline(),
                    returning.alt_text(),
                    returning.section_label()
                );
                scratch.clear();
                appending.append_word(&mut scratch);
                scratch.push('|');
                appending.append_headline(&mut scratch);
                scratch.push('|');
                appending.append_alt_text(&mut scratch);
                scratch.push('|');
                appending.append_section_label(&mut scratch);
                assert_eq!(scratch, expect, "{lang:?} round {round}");
                assert_eq!(
                    returning.word(),
                    appending.word(),
                    "{lang:?} draws diverged"
                );
            }
        }
    }

    #[test]
    fn reseed_matches_fresh_generator() {
        for &lang in ALL_LANGS {
            let mut fresh = TextGenerator::new(lang, 4242);
            // A polluted generator reseeded in place must be
            // indistinguishable from a newly constructed one.
            let mut pooled = TextGenerator::new(Language::English, 1);
            let _ = pooled.paragraph(2);
            pooled.reseed(lang, 4242);
            assert_eq!(pooled.language(), lang);
            assert_eq!(fresh.paragraph(3), pooled.paragraph(3), "{lang:?}");
        }
    }

    #[test]
    fn append_into_nonempty_buffer_only_appends() {
        let mut a = TextGenerator::new(Language::Greek, 5);
        let mut b = TextGenerator::new(Language::Greek, 5);
        let mut buf = String::from("prefix|");
        a.append_headline(&mut buf);
        let expect = format!("prefix|{}", b.headline());
        assert_eq!(buf, expect);
    }

    #[test]
    fn generation_is_deterministic() {
        for &lang in ALL_LANGS {
            let mut a = TextGenerator::new(lang, 99);
            let mut b = TextGenerator::new(lang, 99);
            assert_eq!(a.paragraph(3), b.paragraph(3), "{lang:?}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = TextGenerator::new(Language::Russian, 1);
        let mut b = TextGenerator::new(Language::Russian, 2);
        assert_ne!(a.paragraph(3), b.paragraph(3));
    }

    #[test]
    fn words_carry_evidence_script() {
        for &lang in ALL_LANGS {
            let mut g = TextGenerator::new(lang, 7);
            let text = g.words(40);
            let hist = ScriptHistogram::of(&text);
            let evidence: usize = lang.evidence_scripts().iter().map(|&s| hist.count(s)).sum();
            let total = hist.distinguishing_total();
            assert!(
                evidence as f64 >= total as f64 * 0.95,
                "{lang:?}: evidence {evidence}/{total} in {text:?}"
            );
        }
    }

    #[test]
    fn scriptio_continua_has_no_spaces() {
        for lang in [
            Language::MandarinChinese,
            Language::Japanese,
            Language::Thai,
            Language::Cantonese,
        ] {
            let mut g = TextGenerator::new(lang, 3);
            let s = g.words(8);
            assert!(!s.contains(' '), "{lang:?}: {s:?}");
        }
    }

    #[test]
    fn spaced_languages_have_spaces() {
        for lang in [Language::English, Language::Russian, Language::Hindi] {
            let mut g = TextGenerator::new(lang, 3);
            let s = g.words(8);
            assert_eq!(s.split_whitespace().count(), 8, "{lang:?}");
        }
    }

    #[test]
    fn sentences_have_terminal_punctuation() {
        let mut g = TextGenerator::new(Language::Russian, 5);
        assert!(g.sentence().ends_with('.'));
        let mut g = TextGenerator::new(Language::MandarinChinese, 5);
        assert!(g.sentence().ends_with('。'));
        let mut g = TextGenerator::new(Language::Hindi, 5);
        assert!(g.sentence().ends_with('।'));
    }

    #[test]
    fn phrase_respects_bounds() {
        let mut g = TextGenerator::new(Language::Greek, 11);
        for _ in 0..30 {
            let p = g.phrase(2, 4);
            let n = p.split_whitespace().count();
            assert!((2..=4).contains(&n), "{p:?}");
        }
    }

    #[test]
    fn korean_syllables_are_valid_hangul() {
        let mut g = TextGenerator::new(Language::Korean, 13);
        for _ in 0..100 {
            for c in g.word().chars() {
                let cp = c as u32;
                assert!((0xAC00..=0xD7A3).contains(&cp), "{c}");
            }
        }
    }

    #[test]
    fn english_headline_looks_like_words() {
        let mut g = TextGenerator::new(Language::English, 17);
        for _ in 0..20 {
            let h = g.headline();
            assert!(h.split_whitespace().count() >= 3);
            assert!(h.chars().all(|c| c.is_ascii_lowercase() || c == ' '));
        }
    }

    #[test]
    fn alt_text_is_multiword_descriptive() {
        let mut g = TextGenerator::new(Language::English, 19);
        let alt = g.alt_text();
        assert!(alt.split_whitespace().count() >= 4);
    }
}
