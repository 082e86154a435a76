//! One analysis per page.
//!
//! The paper judges every accessibility text three ways: Appendix H's
//! uninformative filter, Figure 4's Native/English/Mixed label against the
//! study language, and Kizuki's §4 check against the page's content
//! language. [`PageAnalysis`] makes all three from one
//! [`langcrux_filter::scan`] per text and detects the page language once,
//! so the dataset record, Kizuki's checks and the screen reader's speak
//! order read the same verdicts instead of re-classifying the texts.

use crate::engine::page_language;
use langcrux_crawl::{ExtractedElement, PageExtract};
use langcrux_filter::{scan, DiscardCategory};
use langcrux_lang::a11y::ElementKind;
use langcrux_lang::Language;
use langcrux_langid::{classify_histogram, classify_label, LabelLanguage};

/// Every element of one page, analysed once, in document order (parallel
/// to [`PageExtract::elements`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PageAnalysis {
    /// The page's content language ([`page_language`]), unless the caller
    /// fixed it. Labels are judged against it, or against English when it
    /// is undetermined.
    pub language: Option<Language>,
    pub elements: Vec<ElementAnalysis>,
}

/// One element's analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElementAnalysis {
    pub kind: ElementKind,
    /// The present, non-blank accessibility text, analysed; `None` when
    /// the text is missing or blank.
    pub text: Option<TextAnalysis>,
    /// Label of the accessible name against the page language: the text's
    /// own label when it is present, else the visible fallback's. `None`
    /// when the element has no accessible name.
    pub name_label: Option<LabelLanguage>,
}

/// The verdicts on one present accessibility text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TextAnalysis {
    /// Filter verdict; `None` means informative.
    pub discard: Option<DiscardCategory>,
    /// Label against the study language.
    pub study_label: LabelLanguage,
    /// Characters and words (Table 2).
    pub chars: u32,
    pub words: u32,
}

impl ElementAnalysis {
    /// The page-language label of an informative text; `None` when the
    /// text is missing, blank or uninformative. Language checks judge only
    /// these, as the paper's filtering step does: "button" in English on a
    /// Thai page is a quality problem, not a translation problem.
    pub fn informative_label(&self) -> Option<LabelLanguage> {
        self.text
            .filter(|text| text.discard.is_none())
            .and(self.name_label)
    }
}

impl PageAnalysis {
    /// Analyse `extract`, detecting its content language. `study` is the
    /// language the measurement asks about (a country's target language in
    /// a dataset build); `None` judges against the page language, as a
    /// standalone audit does.
    pub fn new(extract: &PageExtract, study: Option<Language>) -> PageAnalysis {
        PageAnalysis::with_language(extract, study, page_language(extract))
    }

    /// [`Self::new`] with the page language fixed by the caller instead of
    /// detected.
    pub fn with_language(
        extract: &PageExtract,
        study: Option<Language>,
        language: Option<Language>,
    ) -> PageAnalysis {
        let page = language.unwrap_or(Language::English);
        let study = study.unwrap_or(page);
        PageAnalysis {
            language,
            elements: extract
                .elements
                .iter()
                .map(|element| analyse(element, study, page))
                .collect(),
        }
    }

    /// Elements of one kind.
    pub fn of_kind(&self, kind: ElementKind) -> impl Iterator<Item = &ElementAnalysis> {
        self.elements.iter().filter(move |e| e.kind == kind)
    }
}

fn analyse(element: &ExtractedElement, study: Language, page: Language) -> ElementAnalysis {
    let Some(text) = element.content() else {
        return ElementAnalysis {
            kind: element.kind,
            text: None,
            name_label: element
                .accessible_name()
                .map(|name| classify_label(name, page)),
        };
    };
    let scan = scan(text);
    let study_label = classify_histogram(&scan.hist, study);
    let page_label = if page == study {
        study_label
    } else {
        classify_histogram(&scan.hist, page)
    };
    ElementAnalysis {
        kind: element.kind,
        text: Some(TextAnalysis {
            discard: scan.discard,
            study_label,
            chars: scan.chars() as u32,
            words: scan.words as u32,
        }),
        name_label: Some(page_label),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use langcrux_crawl::extract_streaming;
    use langcrux_filter::classify;
    use langcrux_oracle::{char_len, word_count};

    const PAGE: &str = r#"<html lang="th"><head><title>ข่าววันนี้</title></head><body>
        <p>ข่าววันนี้ของประเทศไทยทั้งหมดและเหตุการณ์สำคัญ</p>
        <img src=a alt="ตลาดน้ำยามเช้าที่คึกคัก">
        <img src=b alt="floating market at dawn">
        <img src=c alt="icon"><img src=d alt="  "><img src=e>
        <button>  ค้นหาข่าว  </button><a href="/x"></a>
        </body></html>"#;

    #[test]
    fn elements_carry_the_per_text_verdicts() {
        let page = extract_streaming(PAGE);
        let analysis = PageAnalysis::new(&page, Some(Language::Thai));
        assert_eq!(analysis.language, Some(Language::Thai));
        assert_eq!(analysis.elements.len(), page.elements.len());
        for (element, analysed) in page.elements.iter().zip(&analysis.elements) {
            assert_eq!(analysed.kind, element.kind);
            let name = element.accessible_name();
            assert_eq!(
                analysed.name_label,
                name.map(|n| classify_label(n, Language::Thai))
            );
            match element.content() {
                Some(text) => {
                    let analysed = analysed.text.expect("present text is analysed");
                    assert_eq!(analysed.discard, classify(text));
                    assert_eq!(analysed.study_label, classify_label(text, Language::Thai));
                    assert_eq!(analysed.chars as usize, char_len(text));
                    assert_eq!(analysed.words as usize, word_count(text));
                }
                None => assert_eq!(analysed.text, None),
            }
        }
    }

    #[test]
    fn study_and_page_labels_differ_when_the_languages_do() {
        let page = extract_streaming(PAGE);
        // Judged for a Bangla study on a page fixed as Thai: the Thai alt is
        // Native to the page but other-language to the study.
        let analysis =
            PageAnalysis::with_language(&page, Some(Language::Bangla), Some(Language::Thai));
        let thai_alt = analysis.of_kind(ElementKind::ImageAlt).next().unwrap();
        assert_eq!(thai_alt.name_label, Some(LabelLanguage::Native));
        assert_eq!(
            thai_alt.text.unwrap().study_label,
            LabelLanguage::OtherLanguage
        );
    }

    #[test]
    fn informative_labels_skip_missing_blank_and_filtered_texts() {
        let page = extract_streaming(PAGE);
        let analysis = PageAnalysis::new(&page, None);
        let alts: Vec<_> = analysis
            .of_kind(ElementKind::ImageAlt)
            .map(ElementAnalysis::informative_label)
            .collect();
        assert_eq!(
            alts,
            [
                Some(LabelLanguage::Native),
                Some(LabelLanguage::English),
                None, // "icon" is a placeholder
                None, // blank
                None, // missing
            ]
        );
        // A fallback-named button has a name label but no text to judge.
        let button = analysis.of_kind(ElementKind::ButtonName).next().unwrap();
        assert_eq!(button.text, None);
        assert_eq!(button.name_label, Some(LabelLanguage::Native));
        assert_eq!(button.informative_label(), None);
    }

    #[test]
    fn element_analyses_keep_no_histogram() {
        assert_eq!(std::mem::size_of::<ElementAnalysis>(), 16);
    }

    #[test]
    fn undetermined_pages_judge_names_against_english() {
        let page = extract_streaming(r#"<p>123</p><img src=a alt="harbour at night">"#);
        let analysis = PageAnalysis::new(&page, None);
        assert_eq!(analysis.language, None);
        let alt = analysis.of_kind(ElementKind::ImageAlt).next().unwrap();
        assert_eq!(alt.name_label, Some(LabelLanguage::Native));
    }
}
