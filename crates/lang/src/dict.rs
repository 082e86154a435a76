//! Multilingual UI dictionaries.
//!
//! Two of the Appendix H filtering categories depend on word lists that span
//! the study's languages:
//!
//! * **Generic Action** — "Common UI actions (e.g., 'close', 'search') in
//!   multiple languages are filtered if used alone without context."
//! * **Placeholder** — "Generic placeholders for images or UI components,
//!   such as 'image', 'icon', or 'button' … include translations in various
//!   languages."
//!
//! The same lists drive the website generator (to *plant* such labels at the
//! calibrated rates) and the filter (to *detect* them), mirroring how the
//! paper curated one shared vocabulary for both its generator-independent
//! filter and its examples.

use crate::language::Language;

/// A dictionary entry: the term and the language it belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Term {
    pub text: &'static str,
    pub language: Language,
}

const fn t(text: &'static str, language: Language) -> Term {
    Term { text, language }
}

/// Generic single-purpose UI action words. Used alone (no object, no
/// context) these carry no information for a screen-reader user.
pub const GENERIC_ACTIONS: &[Term] = &[
    // English
    t("close", Language::English),
    t("search", Language::English),
    t("submit", Language::English),
    t("login", Language::English),
    t("log in", Language::English),
    t("sign in", Language::English),
    t("send", Language::English),
    t("menu", Language::English),
    t("next", Language::English),
    t("previous", Language::English),
    t("prev", Language::English),
    t("back", Language::English),
    t("download", Language::English),
    t("share", Language::English),
    t("open", Language::English),
    t("home", Language::English),
    t("ok", Language::English),
    t("cancel", Language::English),
    t("more", Language::English),
    t("read more", Language::English),
    t("click here", Language::English),
    t("go", Language::English),
    t("toggle navigation", Language::English),
    // Korean
    t("닫기", Language::Korean),
    t("검색", Language::Korean),
    t("로그인", Language::Korean),
    t("메뉴", Language::Korean),
    t("다음", Language::Korean),
    t("이전", Language::Korean),
    t("보내기", Language::Korean),
    t("확인", Language::Korean),
    t("취소", Language::Korean),
    t("공유", Language::Korean),
    t("더보기", Language::Korean),
    // Japanese
    t("閉じる", Language::Japanese),
    t("検索", Language::Japanese),
    t("ログイン", Language::Japanese),
    t("メニュー", Language::Japanese),
    t("次へ", Language::Japanese),
    t("前へ", Language::Japanese),
    t("送信", Language::Japanese),
    t("キャンセル", Language::Japanese),
    t("もっと見る", Language::Japanese),
    // Mandarin (simplified)
    t("关闭", Language::MandarinChinese),
    t("搜索", Language::MandarinChinese),
    t("登录", Language::MandarinChinese),
    t("菜单", Language::MandarinChinese),
    t("下一页", Language::MandarinChinese),
    t("上一页", Language::MandarinChinese),
    t("提交", Language::MandarinChinese),
    t("取消", Language::MandarinChinese),
    t("分享", Language::MandarinChinese),
    t("更多", Language::MandarinChinese),
    // Cantonese (traditional forms)
    t("關閉", Language::Cantonese),
    t("搜尋", Language::Cantonese),
    t("登入", Language::Cantonese),
    t("選單", Language::Cantonese),
    t("下一頁", Language::Cantonese),
    t("上一頁", Language::Cantonese),
    t("更多", Language::Cantonese),
    // Russian
    t("закрыть", Language::Russian),
    t("поиск", Language::Russian),
    t("войти", Language::Russian),
    t("меню", Language::Russian),
    t("далее", Language::Russian),
    t("назад", Language::Russian),
    t("отправить", Language::Russian),
    t("отмена", Language::Russian),
    t("скачать", Language::Russian),
    t("ещё", Language::Russian),
    // Greek
    t("κλείσιμο", Language::Greek),
    t("αναζήτηση", Language::Greek),
    t("σύνδεση", Language::Greek),
    t("μενού", Language::Greek),
    t("επόμενο", Language::Greek),
    t("προηγούμενο", Language::Greek),
    t("υποβολή", Language::Greek),
    t("άκυρο", Language::Greek),
    t("αρχική", Language::Greek),
    // Hebrew
    t("סגור", Language::Hebrew),
    t("חיפוש", Language::Hebrew),
    t("התחברות", Language::Hebrew),
    t("תפריט", Language::Hebrew),
    t("הבא", Language::Hebrew),
    t("הקודם", Language::Hebrew),
    t("שלח", Language::Hebrew),
    t("ביטול", Language::Hebrew),
    t("בית", Language::Hebrew),
    // Modern Standard Arabic (shared by dz/eg vantage)
    t("إغلاق", Language::ModernStandardArabic),
    t("بحث", Language::ModernStandardArabic),
    t("تسجيل الدخول", Language::ModernStandardArabic),
    t("قائمة", Language::ModernStandardArabic),
    t("التالي", Language::ModernStandardArabic),
    t("السابق", Language::ModernStandardArabic),
    t("إرسال", Language::ModernStandardArabic),
    t("إلغاء", Language::ModernStandardArabic),
    t("الرئيسية", Language::ModernStandardArabic),
    t("تحميل", Language::ModernStandardArabic),
    t("المزيد", Language::EgyptianArabic),
    t("ابحث", Language::EgyptianArabic),
    // Hindi
    t("बंद करें", Language::Hindi),
    t("खोज", Language::Hindi),
    t("लॉगिन", Language::Hindi),
    t("मेनू", Language::Hindi),
    t("अगला", Language::Hindi),
    t("पिछला", Language::Hindi),
    t("भेजें", Language::Hindi),
    t("रद्द करें", Language::Hindi),
    t("होम", Language::Hindi),
    t("डाउनलोड", Language::Hindi),
    // Bangla
    t("বন্ধ", Language::Bangla),
    t("অনুসন্ধান", Language::Bangla),
    t("লগইন", Language::Bangla),
    t("মেনু", Language::Bangla),
    t("পরবর্তী", Language::Bangla),
    t("পূর্ববর্তী", Language::Bangla),
    t("পাঠান", Language::Bangla),
    t("বাতিল", Language::Bangla),
    t("হোম", Language::Bangla),
    // Thai
    t("ปิด", Language::Thai),
    t("ค้นหา", Language::Thai),
    t("เข้าสู่ระบบ", Language::Thai),
    t("เมนู", Language::Thai),
    t("ถัดไป", Language::Thai),
    t("ก่อนหน้า", Language::Thai),
    t("ส่ง", Language::Thai),
    t("ยกเลิก", Language::Thai),
    t("หน้าแรก", Language::Thai),
    t("ดาวน์โหลด", Language::Thai),
];

/// Generic placeholder nouns for images/components.
pub const PLACEHOLDERS: &[Term] = &[
    // English
    t("image", Language::English),
    t("img", Language::English),
    t("icon", Language::English),
    t("button", Language::English),
    t("picture", Language::English),
    t("logo", Language::English),
    t("banner", Language::English),
    t("thumbnail", Language::English),
    t("graphic", Language::English),
    t("untitled", Language::English),
    t("placeholder", Language::English),
    t("file", Language::English),
    t("link", Language::English),
    // Mandarin
    t("图像", Language::MandarinChinese),
    t("图片", Language::MandarinChinese),
    t("图标", Language::MandarinChinese),
    t("按钮", Language::MandarinChinese),
    t("标志", Language::MandarinChinese),
    // Cantonese (traditional)
    t("圖像", Language::Cantonese),
    t("圖片", Language::Cantonese),
    t("圖標", Language::Cantonese),
    t("按鈕", Language::Cantonese),
    // Japanese
    t("画像", Language::Japanese),
    t("アイコン", Language::Japanese),
    t("ボタン", Language::Japanese),
    t("ロゴ", Language::Japanese),
    t("サムネイル", Language::Japanese),
    // Korean
    t("이미지", Language::Korean),
    t("아이콘", Language::Korean),
    t("버튼", Language::Korean),
    t("사진", Language::Korean),
    t("로고", Language::Korean),
    // Russian
    t("изображение", Language::Russian),
    t("иконка", Language::Russian),
    t("кнопка", Language::Russian),
    t("картинка", Language::Russian),
    t("фото", Language::Russian),
    t("логотип", Language::Russian),
    // Greek
    t("εικόνα", Language::Greek),
    t("εικονίδιο", Language::Greek),
    t("κουμπί", Language::Greek),
    t("φωτογραφία", Language::Greek),
    // Hebrew
    t("תמונה", Language::Hebrew),
    t("סמל", Language::Hebrew),
    t("כפתור", Language::Hebrew),
    t("לוגו", Language::Hebrew),
    // Arabic
    t("صورة", Language::ModernStandardArabic),
    t("أيقونة", Language::ModernStandardArabic),
    t("زر", Language::ModernStandardArabic),
    t("شعار", Language::ModernStandardArabic),
    // Egyptian Arabic (colloquial spellings)
    t("صوره", Language::EgyptianArabic),
    t("لينك", Language::EgyptianArabic),
    t("زرار", Language::EgyptianArabic),
    // Hindi
    t("छवि", Language::Hindi),
    t("चित्र", Language::Hindi),
    t("आइकन", Language::Hindi),
    t("बटन", Language::Hindi),
    t("फोटो", Language::Hindi),
    // Bangla
    t("ছবি", Language::Bangla),
    t("আইকন", Language::Bangla),
    t("বোতাম", Language::Bangla),
    t("লোগো", Language::Bangla),
    // Thai
    t("รูปภาพ", Language::Thai),
    t("ไอคอน", Language::Thai),
    t("ปุ่ม", Language::Thai),
    t("รูปถ่าย", Language::Thai),
    t("โลโก้", Language::Thai),
];

/// Case-insensitive (for Latin/Greek/Cyrillic) exact-match lookup against a
/// term list. Matching is whole-string after trimming, per Appendix H:
/// actions/placeholders are only discarded when "used alone without context".
pub fn matches_term_list(text: &str, list: &[Term]) -> Option<Term> {
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return None;
    }
    let lowered = trimmed.to_lowercase();
    list.iter()
        .copied()
        .find(|term| term.text == trimmed || term.text.to_lowercase() == lowered)
}

/// A dictionary index: terms sorted by text for binary-search lookup of a
/// [`Folded`] text. Terms are stored folded (a test checks), so they are
/// their own keys. Built once per list; `matches_term_list` re-lowers
/// every term on every call, which made dictionary checks the single most
/// expensive step of accessibility-text filtering at crawl scale.
struct TermIndex {
    /// Sorted by text; a duplicate text keeps its first list occurrence,
    /// matching `matches_term_list` priority.
    terms: Vec<Term>,
}

impl TermIndex {
    fn build(list: &[Term]) -> TermIndex {
        let mut terms: Vec<Term> = Vec::with_capacity(list.len());
        for term in list {
            if !terms.iter().any(|t| t.text == term.text) {
                terms.push(*term);
            }
        }
        terms.sort_by_key(|t| t.text);
        TermIndex { terms }
    }

    /// The term spelled `folded` (byte order is `str` order).
    fn get(&self, folded: &[u8]) -> Option<Term> {
        self.terms
            .binary_search_by(|t| t.text.as_bytes().cmp(folded))
            .ok()
            .map(|i| self.terms[i])
    }
}

fn action_index() -> &'static TermIndex {
    static INDEX: std::sync::OnceLock<TermIndex> = std::sync::OnceLock::new();
    INDEX.get_or_init(|| TermIndex::build(GENERIC_ACTIONS))
}

fn placeholder_index() -> &'static TermIndex {
    static INDEX: std::sync::OnceLock<TermIndex> = std::sync::OnceLock::new();
    INDEX.get_or_init(|| TermIndex::build(PLACEHOLDERS))
}

/// Characters of the longest term in either list (17 today). Folding never
/// shortens a text, since every character folds to one or more, so a
/// longer text matches no term.
pub const MAX_TERM_CHARS: usize = longest_term();

/// [`Folded`]'s buffer: four UTF-8 bytes for each char of the longest
/// term, so every term fits; a fold that does not fit matches none.
const FOLD_BYTES: usize = 4 * MAX_TERM_CHARS;

const fn longest_term() -> usize {
    let lists = [GENERIC_ACTIONS, PLACEHOLDERS];
    let mut longest = 0;
    let mut l = 0;
    while l < lists.len() {
        let mut t = 0;
        while t < lists[l].len() {
            let bytes = lists[l][t].text.as_bytes();
            // Count the bytes that start a character.
            let mut chars = 0;
            let mut b = 0;
            while b < bytes.len() {
                chars += (bytes[b] & 0xC0 != 0x80) as usize;
                b += 1;
            }
            if chars > longest {
                longest = chars;
            }
            t += 1;
        }
        l += 1;
    }
    longest
}

/// A trimmed text case-folded once, in a stack buffer, for lookups in
/// both term lists.
///
/// The fold is `str::to_lowercase` except for `Σ`, which always folds to
/// `σ` here; `to_lowercase` makes it `ς` at the end of a word. No term
/// contains `ς`, and every `σ` in a term is followed by a Greek small
/// letter, which is cased and not case-ignorable, so a `Σ` in that place
/// is never word-final: both folds match the same terms (a test checks
/// the lists keep that shape).
pub struct Folded {
    bytes: [u8; FOLD_BYTES],
    len: usize,
}

impl Folded {
    /// Fold `trimmed`, or `None` when it cannot match a term: it has more
    /// than [`MAX_TERM_CHARS`] characters or folds to more bytes than any
    /// term has.
    pub fn of(trimmed: &str) -> Option<Folded> {
        let mut folded = Folded {
            bytes: [0; FOLD_BYTES],
            len: 0,
        };
        for (n, c) in trimmed.chars().enumerate() {
            if n == MAX_TERM_CHARS {
                return None;
            }
            if c.is_ascii() {
                folded.push(c.to_ascii_lowercase())?;
            } else if c == 'Σ' {
                folded.push('σ')?;
            } else {
                for lower in c.to_lowercase() {
                    folded.push(lower)?;
                }
            }
        }
        Some(folded)
    }

    fn push(&mut self, c: char) -> Option<()> {
        let end = self.len + c.len_utf8();
        c.encode_utf8(self.bytes.get_mut(self.len..end)?);
        self.len = end;
        Some(())
    }

    /// The generic-action term this text is, if any.
    pub fn generic_action(&self) -> Option<Term> {
        action_index().get(&self.bytes[..self.len])
    }

    /// The placeholder term this text is, if any.
    pub fn placeholder(&self) -> Option<Term> {
        placeholder_index().get(&self.bytes[..self.len])
    }
}

/// Look up a generic-action term.
pub fn generic_action(text: &str) -> Option<Term> {
    Folded::of(text.trim())?.generic_action()
}

/// Look up a placeholder term.
pub fn placeholder(text: &str) -> Option<Term> {
    Folded::of(text.trim())?.placeholder()
}

/// All generic actions in a given language (used by the generator to plant
/// calibrated uninformative labels). Allocation-free: a filter over the
/// static list, cheap to clone for a count-then-pick.
pub fn actions_in(language: Language) -> impl Iterator<Item = &'static str> + Clone {
    terms_in(GENERIC_ACTIONS, language)
}

/// All placeholders in a given language.
pub fn placeholders_in(language: Language) -> impl Iterator<Item = &'static str> + Clone {
    terms_in(PLACEHOLDERS, language)
}

fn terms_in(
    list: &'static [Term],
    language: Language,
) -> impl Iterator<Item = &'static str> + Clone {
    list.iter()
        .filter(move |term| term.language == language)
        .map(|term| term.text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::{script_of, Script};

    #[test]
    fn index_agrees_with_linear_term_scan() {
        // The binary-search index must return exactly what the reference
        // linear scan returns, for every term and some case variants.
        for list in [GENERIC_ACTIONS, PLACEHOLDERS] {
            for term in list {
                for probe in [
                    term.text.to_string(),
                    term.text.to_uppercase(),
                    format!("  {}  ", term.text),
                ] {
                    assert_eq!(
                        matches_term_list(&probe, list),
                        if list == GENERIC_ACTIONS {
                            generic_action(&probe)
                        } else {
                            placeholder(&probe)
                        },
                        "{probe:?}"
                    );
                }
            }
        }
        assert_eq!(generic_action("no such term"), None);
        assert_eq!(placeholder(""), None);
    }

    #[test]
    fn english_actions_match_case_insensitively() {
        assert!(generic_action("Close").is_some());
        assert!(generic_action("SEARCH").is_some());
        assert!(generic_action("  submit  ").is_some());
        assert!(generic_action("close the modal dialog").is_none());
    }

    #[test]
    fn native_actions_match_exactly() {
        assert_eq!(
            generic_action("닫기").map(|t| t.language),
            Some(Language::Korean)
        );
        assert_eq!(
            generic_action("検索").map(|t| t.language),
            Some(Language::Japanese)
        );
        assert_eq!(
            generic_action("поиск").map(|t| t.language),
            Some(Language::Russian)
        );
        assert_eq!(
            generic_action("ค้นหา").map(|t| t.language),
            Some(Language::Thai)
        );
    }

    #[test]
    fn placeholders_match() {
        assert!(placeholder("image").is_some());
        assert!(placeholder("图像").is_some());
        assert!(placeholder("תמונה").is_some());
        assert!(placeholder("an image of a cat").is_none());
    }

    #[test]
    fn empty_and_whitespace_match_nothing() {
        assert!(generic_action("").is_none());
        assert!(generic_action("   ").is_none());
        assert!(placeholder("").is_none());
    }

    #[test]
    fn every_included_language_has_actions_and_placeholders() {
        for lang in Language::INCLUDED {
            assert!(
                actions_in(lang).next().is_some(),
                "no generic actions for {:?}",
                lang
            );
            assert!(
                placeholders_in(lang).next().is_some(),
                "no placeholders for {:?}",
                lang
            );
        }
    }

    #[test]
    fn terms_are_written_in_their_languages_script() {
        for term in GENERIC_ACTIONS.iter().chain(PLACEHOLDERS.iter()) {
            let evidence = term.language.evidence_scripts();
            let ok = term.text.chars().any(|c| {
                let s = script_of(c);
                evidence.contains(&s)
            });
            // Loan words written in Latin (e.g. none currently) would fail
            // here; the dictionaries intentionally keep scripts pure.
            assert!(
                ok,
                "{:?} term {:?} has no {:?} evidence",
                term.language, term.text, evidence
            );
            // And no term may be pure-Common.
            assert!(term.text.chars().any(|c| script_of(c) != Script::Common));
        }
    }

    #[test]
    fn terms_are_stored_folded() {
        // The index looks folded texts up by the terms' own spelling.
        for term in GENERIC_ACTIONS.iter().chain(PLACEHOLDERS.iter()) {
            assert_eq!(term.text, term.text.to_lowercase(), "{:?}", term.text);
        }
        assert_eq!(MAX_TERM_CHARS, "toggle navigation".chars().count());
    }

    #[test]
    fn sigma_folds_cannot_change_a_match() {
        // The shape `Folded` relies on to fold every `Σ` to `σ`.
        for term in GENERIC_ACTIONS.iter().chain(PLACEHOLDERS.iter()) {
            assert!(!term.text.contains('ς'), "{:?}", term.text);
            let mut chars = term.text.chars().peekable();
            while let Some(c) = chars.next() {
                if c == 'σ' {
                    let next = chars.peek().copied();
                    assert!(
                        next.is_some_and(|n| ('\u{3AC}'..='\u{3CE}').contains(&n)),
                        "{:?}: σ before {next:?}",
                        term.text
                    );
                }
            }
        }
        assert!(generic_action("ΣΎΝΔΕΣΗ").is_some());
        assert!(generic_action("ΚΛΕΊΣΙΜΟ").is_some());
    }

    #[test]
    fn fold_agrees_with_to_lowercase() {
        for text in [
            "Close",
            "İstanbul",
            "ΜΕΝΟΎ",
            "ПОИСК",
            "닫기",
            "ẞ",
            "\u{212A}ELVIN",
        ] {
            let folded = Folded::of(text).expect("short text folds");
            assert_eq!(&folded.bytes[..folded.len], text.to_lowercase().as_bytes());
        }
        // More characters than the longest term: no term can match, so
        // nothing is folded.
        assert!(Folded::of("toggle navigations").is_none());
        assert!(Folded::of("toggle navigation").is_some());
        assert!(Folded::of("İİİİİİİİİİİİİİİİİ").is_some());
    }

    #[test]
    fn russian_cyrillic_case_folding() {
        assert!(generic_action("Закрыть").is_some());
        assert!(generic_action("ПОИСК").is_some());
    }
}
