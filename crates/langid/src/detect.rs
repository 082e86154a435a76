//! Whole-language detection.
//!
//! Two detectors:
//!
//! * [`detect`] — the paper's production method: Unicode script evidence
//!   plus language-specific disambiguation characters for scripts shared by
//!   several languages (Arabic ↔ Urdu ↔ Persian, Devanagari's Hindi ↔
//!   Marathi ↔ Nepali, Han's Mandarin ↔ Cantonese ↔ Japanese).
//! * [`TrigramDetector`] — a classical character-trigram cosine model, kept
//!   as the comparison point for the `ablation_langid` bench (the paper
//!   argues the Unicode heuristic is sufficient at scale; the ablation
//!   quantifies where the trigram model differs on short labels).

use langcrux_lang::script::{script_of, Script, ScriptHistogram};
use langcrux_lang::Language;
use std::collections::HashMap;

/// Candidate languages considered by [`detect`] (the pool plus English).
fn detection_candidates() -> impl Iterator<Item = Language> {
    Language::CANDIDATE_POOL
        .iter()
        .copied()
        .chain(std::iter::once(Language::English))
}

/// Detect the most likely language of `text` by script evidence.
///
/// Returns `None` when the text carries no distinguishing characters.
/// For shared scripts the tie is broken by disambiguation characters:
/// e.g. Arabic-script text containing `ٹ`/`ڑ`/`ے` resolves to Urdu, and
/// Han text containing kana resolves to Japanese.
pub fn detect(text: &str) -> Option<Language> {
    detect_with_histogram(&ScriptHistogram::of(text), text)
}

/// [`detect`] from a pre-computed histogram of `text` (e.g. the one the
/// crawler carries on `PageExtract` from its fused extraction walk).
///
/// For most dominant scripts this touches only the histogram; the text is
/// re-read solely when a shared script needs disambiguation characters
/// (Arabic ↔ Urdu/Persian, Devanagari's Hindi ↔ Marathi, Han-only pages
/// for Cantonese markers), and those passes are sorted-set binary probes.
pub fn detect_with_histogram(hist: &ScriptHistogram, text: &str) -> Option<Language> {
    if hist.distinguishing_total() == 0 {
        return None;
    }
    let dominant = hist.dominant()?;

    match dominant {
        Script::Arabic => Some(disambiguate_arabic(text)),
        Script::Devanagari => Some(disambiguate_devanagari(text)),
        Script::Han | Script::Hiragana | Script::Katakana => Some(disambiguate_cjk(hist, text)),
        script => detection_candidates().find(|l| l.primary_script() == script),
    }
}

/// Count how many chars of `text` are in `set`, which must be sorted by
/// codepoint so each char costs one binary search instead of a scan.
fn count_chars(text: &str, set: &[char]) -> usize {
    debug_assert!(set.windows(2).all(|w| w[0] < w[1]), "set must be sorted");
    text.chars()
        .filter(|c| set.binary_search(c).is_ok())
        .count()
}

/// Sorted-set membership for a single char.
#[inline]
fn in_set(c: char, set: &[char]) -> bool {
    set.binary_search(&c).is_ok()
}

fn disambiguate_arabic(text: &str) -> Language {
    // Urdu letters absent from Persian's shared Perso-Arabic additions
    // (sorted by codepoint for binary search).
    const URDU_ONLY: &[char] = &['ٹ', 'ڈ', 'ڑ', 'ں', 'ھ', 'ہ', 'ے'];
    let urdu_set = Language::Urdu.disambiguation_chars();
    let persian_set = Language::Persian.disambiguation_chars();
    // One pass over the text, counting all three sets simultaneously.
    let (mut urdu, mut persian, mut urdu_only) = (0usize, 0usize, 0usize);
    for c in text.chars() {
        if in_set(c, urdu_set) {
            urdu += 1;
            if in_set(c, URDU_ONLY) {
                urdu_only += 1;
            }
        }
        if in_set(c, persian_set) {
            persian += 1;
        }
    }
    // Urdu's set is a superset of Persian's four letters; require evidence
    // beyond the shared ones for Urdu.
    if urdu_only > 0 {
        Language::Urdu
    } else if persian > 0 && urdu == persian {
        Language::Persian
    } else if urdu > 0 {
        Language::Urdu
    } else {
        Language::ModernStandardArabic
    }
}

fn disambiguate_devanagari(text: &str) -> Language {
    if count_chars(text, Language::Marathi.disambiguation_chars()) > 0 {
        Language::Marathi
    } else {
        Language::Hindi
    }
}

fn disambiguate_cjk(hist: &ScriptHistogram, text: &str) -> Language {
    let kana = hist.count(Script::Hiragana) + hist.count(Script::Katakana);
    if kana > 0 {
        return Language::Japanese;
    }
    // Cantonese-specific characters distinguish Hong Kong pages (sorted by
    // codepoint for binary search).
    const CANTONESE_MARKERS: &[char] = &[
        '乜', '冇', '咁', '咗', '哋', '唔', '啲', '嗰', '嘅', '噉', '嚟', '畀', '睇',
    ];
    if count_chars(text, CANTONESE_MARKERS) > 0 {
        Language::Cantonese
    } else {
        Language::MandarinChinese
    }
}

/// A character-trigram language model with cosine similarity scoring.
///
/// Train with [`TrigramDetector::train`] on sample text per language, then
/// [`TrigramDetector::classify`]. Used by the langid ablation bench.
#[derive(Debug, Default)]
pub struct TrigramDetector {
    models: Vec<(Language, HashMap<[char; 3], f64>)>,
}

impl TrigramDetector {
    pub fn new() -> Self {
        Self::default()
    }

    fn trigrams(text: &str) -> HashMap<[char; 3], f64> {
        let chars: Vec<char> = text
            .chars()
            .map(|c| {
                if c.is_whitespace() {
                    ' '
                } else {
                    c.to_lowercase().next().unwrap_or(c)
                }
            })
            .collect();
        let mut counts: HashMap<[char; 3], f64> = HashMap::new();
        for w in chars.windows(3) {
            *counts.entry([w[0], w[1], w[2]]).or_insert(0.0) += 1.0;
        }
        // L2-normalise.
        let norm: f64 = counts.values().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 0.0 {
            for v in counts.values_mut() {
                *v /= norm;
            }
        }
        counts
    }

    /// Add (or extend) the model for `language` with sample text.
    pub fn train(&mut self, language: Language, sample: &str) {
        let grams = Self::trigrams(sample);
        match self.models.iter_mut().find(|(l, _)| *l == language) {
            Some((_, model)) => {
                for (g, w) in grams {
                    *model.entry(g).or_insert(0.0) += w;
                }
                let norm: f64 = model.values().map(|v| v * v).sum::<f64>().sqrt();
                if norm > 0.0 {
                    for v in model.values_mut() {
                        *v /= norm;
                    }
                }
            }
            None => self.models.push((language, grams)),
        }
    }

    /// Classify text; returns the best language and its cosine score.
    pub fn classify(&self, text: &str) -> Option<(Language, f64)> {
        let grams = Self::trigrams(text);
        if grams.is_empty() {
            return None;
        }
        let mut best: Option<(Language, f64)> = None;
        for (lang, model) in &self.models {
            let score: f64 = grams
                .iter()
                .filter_map(|(g, w)| model.get(g).map(|m| m * w))
                .sum();
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((*lang, score));
            }
        }
        best.filter(|(_, score)| *score > 0.0)
    }
}

/// Does `text` contain at least one character of the given script?
pub fn contains_script(text: &str, script: Script) -> bool {
    text.chars().any(|c| script_of(c) == script)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_unique_scripts() {
        assert_eq!(detect("Привет, мир"), Some(Language::Russian));
        assert_eq!(detect("Γειά σου κόσμε"), Some(Language::Greek));
        assert_eq!(detect("שלום עולם"), Some(Language::Hebrew));
        assert_eq!(detect("สวัสดีชาวโลก"), Some(Language::Thai));
        assert_eq!(detect("안녕하세요"), Some(Language::Korean));
        assert_eq!(detect("வணக்கம்"), Some(Language::Tamil));
        assert_eq!(detect("হ্যালো"), Some(Language::Bangla));
        assert_eq!(detect("hello there"), Some(Language::English));
    }

    #[test]
    fn arabic_vs_urdu_disambiguation() {
        assert_eq!(
            detect("مرحبا بالعالم"),
            Some(Language::ModernStandardArabic)
        );
        // Urdu with retroflex ٹ and final ے.
        assert_eq!(detect("ہیلو دنیا ٹھیک ہے"), Some(Language::Urdu));
    }

    #[test]
    fn hindi_vs_marathi() {
        assert_eq!(detect("नमस्ते दुनिया"), Some(Language::Hindi));
        assert_eq!(detect("नमस्कार जळगाव"), Some(Language::Marathi));
    }

    #[test]
    fn cjk_disambiguation() {
        assert_eq!(detect("你好世界"), Some(Language::MandarinChinese));
        assert_eq!(detect("こんにちは世界"), Some(Language::Japanese));
        assert_eq!(detect("世界です"), Some(Language::Japanese));
        assert_eq!(detect("你哋好嘅"), Some(Language::Cantonese));
    }

    #[test]
    fn no_evidence_returns_none() {
        assert_eq!(detect("12345 --- !!!"), None);
        assert_eq!(detect(""), None);
    }

    #[test]
    fn trigram_detector_separates_languages() {
        use langcrux_textgen_shim::sample;
        let mut det = TrigramDetector::new();
        det.train(Language::English, sample(Language::English));
        det.train(Language::Russian, sample(Language::Russian));
        let (lang, score) = det
            .classify("the government announced a new policy")
            .unwrap();
        assert_eq!(lang, Language::English);
        assert!(score > 0.0);
        let (lang, _) = det.classify("новости правительства и политика").unwrap();
        assert_eq!(lang, Language::Russian);
    }

    #[test]
    fn trigram_empty_input() {
        let det = TrigramDetector::new();
        assert!(det.classify("").is_none());
        assert!(det.classify("ab").is_none());
    }

    /// Minimal in-test "sample corpus" so langid does not depend on textgen
    /// (which would invert the workspace dependency order).
    mod langcrux_textgen_shim {
        use langcrux_lang::Language;

        pub fn sample(lang: Language) -> &'static str {
            match lang {
                Language::English => {
                    "the quick brown fox jumps over the lazy dog while the \
                     government announces new policies for the economy and \
                     education across the country"
                }
                Language::Russian => {
                    "быстрая коричневая лиса прыгает через ленивую собаку \
                     пока правительство объявляет новости политики экономики \
                     и образования по всей стране"
                }
                _ => unimplemented!(),
            }
        }
    }

    #[test]
    fn contains_script_works() {
        assert!(contains_script("abcক", Script::Bengali));
        assert!(!contains_script("abc", Script::Bengali));
    }
}
