//! The audit service: raw HTML in, deterministic JSON report out.
//!
//! One [`AuditService`] call runs the same fused engine the offline
//! pipeline uses — the streaming tokenize→extract pass (visible text +
//! script histogram straight from tokenizer events, no DOM
//! materialisation), `audit::rules` page scoring, Kizuki's
//! language-aware rescoring via the carried histogram
//! (`detect_with_histogram`), and the screen-reader speak-order pass.
//! The serialized bytes are byte-identical to serializing the same
//! structures from a direct library call: the engine is deterministic and
//! the serde shim writes fields in declaration order, which is what lets
//! the response cache store bytes and what the API determinism test pins.

use langcrux_audit::{audit_page, gap_report, AuditReport, GapReport};
use langcrux_crawl::extract_streaming;
use langcrux_kizuki::{GapSpeech, Kizuki, KizukiReport, PageAnalysis, ScreenReader, Utterance};
use langcrux_lang::script::Script;
use serde::Serialize;

/// 64-bit FNV-1a over arbitrary bytes: the response's `content_hash`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Per-script character counts of the page's visible text (only scripts
/// actually present are listed, in the fixed `ALL_DISTINGUISHING` order).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScriptSlice {
    pub script: String,
    pub chars: usize,
    /// Share of distinguishing characters, 0–1.
    pub share: f64,
}

/// The `POST /v1/audit` response document.
#[derive(Debug, Clone, Serialize)]
pub struct AuditResponse {
    /// Hex FNV-1a of the submitted HTML, a stable identity clients can
    /// compute themselves. The response cache keys on a faster hash of
    /// its own (`serve::cache`).
    pub content_hash: String,
    pub html_bytes: usize,
    /// Characters of visible text (the fused walk's histogram total).
    pub visible_chars: usize,
    /// `<html lang=…>` declaration, if any.
    pub declared_lang: Option<String>,
    /// Content language detected from the carried script histogram.
    pub page_language: Option<String>,
    /// Script composition of the visible text.
    pub scripts: Vec<ScriptSlice>,
    /// Lighthouse-semantics audit (the paper's Table 1 rules).
    pub audit: AuditReport,
    /// Kizuki language-aware rescoring.
    pub kizuki: KizukiReport,
    /// Screen-reader announcements in document (speak) order.
    pub speak_order: Vec<Utterance>,
    /// Translation-gap verdict: which subtrees disagree with the page's
    /// declared/inherited language, with script evidence per region.
    pub gaps: GapReport,
    /// What the reader would do with each flagged gap region.
    pub gap_speech: GapSpeech,
}

/// The shared audit engine: Kizuki checks and the screen-reader profile
/// are built once and reused by every connection thread.
///
/// ```
/// use langcrux_serve::AuditService;
///
/// let service = AuditService::new();
/// let report = service.audit(r#"<html lang="th"><body><p>สวัสดี</p></body></html>"#);
/// assert_eq!(report.declared_lang.as_deref(), Some("th"));
/// assert_eq!(report.page_language.as_deref(), Some("th"));
/// // The serialized bytes are what POST /v1/audit answers with (and what
/// // the response cache stores).
/// assert!(!service.audit_json("<p>x</p>").is_empty());
/// ```
pub struct AuditService {
    kizuki: Kizuki,
    reader: ScreenReader,
}

impl Default for AuditService {
    fn default() -> Self {
        AuditService::new()
    }
}

impl AuditService {
    /// The paper's configuration: standard Kizuki + VoiceOver-like reader.
    pub fn new() -> Self {
        AuditService {
            kizuki: Kizuki::standard(),
            reader: ScreenReader::voiceover_like(),
        }
    }

    /// Audit one page. Pure and deterministic in `html`.
    pub fn audit(&self, html: &str) -> AuditResponse {
        self.audit_extract(extract_streaming(html), html)
    }

    /// Audit an already-extracted page (the extraction path is the only
    /// thing [`audit`](Self::audit) adds — tests use this to pin the
    /// streaming path byte-identical to the `langcrux-oracle` DOM
    /// extractor).
    fn audit_extract(&self, page: langcrux_crawl::PageExtract, html: &str) -> AuditResponse {
        // One pass per text and one language detection, shared by Kizuki,
        // gap speech and the speak order.
        let analysis = PageAnalysis::new(&page, None);
        let language = analysis.language;
        let base = audit_page(&page);
        let kizuki = self.kizuki.evaluate_analysis(&analysis, &base);
        // Translation-gap pass: always computed here (the service has no
        // corpus flag to honour — a submitted page either has gap regions
        // or it doesn't).
        let gaps = gap_report(&page);
        let gap_speech = self.reader.gap_speech(&gaps, language);
        // Speak-order pass: announce against the detected content
        // language; undetermined pages are announced with an English
        // engine (the reader's default voice).
        let speak_order = self.reader.speak_order(&page, &analysis);

        let total = page.visible_hist.distinguishing_total().max(1);
        let scripts = Script::ALL_DISTINGUISHING
            .iter()
            .filter_map(|&script| {
                let chars = page.visible_hist.count(script);
                (chars > 0).then(|| ScriptSlice {
                    script: script.name().to_string(),
                    chars,
                    share: chars as f64 / total as f64,
                })
            })
            .collect();

        AuditResponse {
            content_hash: format!("{:016x}", fnv1a64(html.as_bytes())),
            html_bytes: html.len(),
            visible_chars: page.visible_hist.total,
            declared_lang: page.declared_lang.clone(),
            page_language: language.map(|l| l.tag().to_string()),
            scripts,
            audit: base,
            kizuki,
            speak_order,
            gaps,
            gap_speech,
        }
    }

    /// The serialized response bytes `POST /v1/audit` answers with.
    pub fn audit_json(&self, html: &str) -> Vec<u8> {
        serde_json::to_string(&self.audit(html))
            .expect("audit response serializes")
            .into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: &str = r#"<html lang="bn"><head><title>শিক্ষক বাতায়ন</title></head><body>
        <p>বাংলাদেশের শিক্ষকদের জন্য জাতীয় প্ল্যাটফর্মে স্বাগতম। এখানে পাঠ
        পরিকল্পনা এবং প্রশিক্ষণ উপকরণ পাওয়া যায়।</p>
        <img src="a.jpg" alt="teacher training workshop session">
        <button>অনুসন্ধান</button></body></html>"#;

    #[test]
    fn audit_response_reflects_the_engine() {
        let service = AuditService::new();
        let resp = service.audit(PAGE);
        assert_eq!(resp.html_bytes, PAGE.len());
        assert_eq!(resp.declared_lang.as_deref(), Some("bn"));
        assert_eq!(resp.page_language.as_deref(), Some("bn"));
        assert!(resp.visible_chars > 0);
        assert!(resp
            .scripts
            .iter()
            .any(|s| s.script == "Bengali" && s.share > 0.5));
        // English alt on a Bangla page: base passes, Kizuki downgrades.
        assert!(resp.audit.score > resp.kizuki.new_score);
        assert!(!resp.speak_order.is_empty());
    }

    #[test]
    fn audit_json_is_deterministic() {
        let service = AuditService::new();
        let a = service.audit_json(PAGE);
        let b = service.audit_json(PAGE);
        assert_eq!(a, b);
        // A fresh service (fresh Kizuki/reader) produces the same bytes.
        let c = AuditService::new().audit_json(PAGE);
        assert_eq!(a, c);
    }

    #[test]
    fn streaming_audit_bytes_match_dom_oracle() {
        // The switch to extract_streaming must not change a single cached
        // or served byte: run the same engine over the DOM-extracted page
        // and compare full serialized responses.
        let service = AuditService::new();
        for html in [
            PAGE,
            "",
            "<button>অনুসন্ধান</button><img src=x>",
            "<ul><li>ข่าววันนี้<li>อ่านต่อ</ul><script>skip()</script>",
        ] {
            let dom_page = langcrux_oracle::extract(&langcrux_oracle::parse(html));
            let dom_bytes = serde_json::to_string(&service.audit_extract(dom_page, html)).unwrap();
            assert_eq!(dom_bytes.into_bytes(), service.audit_json(html), "{html:?}");
        }
    }

    #[test]
    fn gap_verdict_flags_english_chrome_on_a_bengali_page() {
        // A partially localised page: translated body, untranslated nav.
        let html = r#"<html lang="bn"><body>
            <nav><a href="/">Home page overview</a>
            <a href="/shop">Product catalogue listing</a>
            <a href="/help">Customer support center</a></nav>
            <p>বাংলাদেশের শিক্ষকদের জন্য জাতীয় প্ল্যাটফর্মে স্বাগতম। এখানে
            পাঠ পরিকল্পনা এবং প্রশিক্ষণ উপকরণ পাওয়া যায়। প্রতিটি জেলার
            শিক্ষকরা এখানে নিজেদের অভিজ্ঞতা ভাগ করে নেন।</p>
            </body></html>"#;
        let service = AuditService::new();
        let resp = service.audit(html);
        assert_eq!(resp.gaps.regions.len(), 1, "{:?}", resp.gaps);
        let gap = &resp.gaps.regions[0];
        assert_eq!(gap.role, "nav");
        assert_eq!(gap.kind.label(), "chrome");
        // VoiceOver has a Bangla engine: the English nav is read aloud
        // with it, i.e. mispronounced rather than skipped.
        assert_eq!(resp.gap_speech.regions, 1);
        assert_eq!(resp.gap_speech.mispronounced, 1);
        assert_eq!(resp.gap_speech.skipped, 0);
        // The fully localised test page has no gaps at all.
        let clean = service.audit(PAGE);
        assert!(clean.gaps.is_clean(), "{:?}", clean.gaps);
        assert_eq!(clean.gap_speech, GapSpeech::default());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn content_hash_is_the_fnv1a_hex_of_the_body() {
        let service = AuditService::new();
        // The published FNV-1a 64-bit vector of "foobar".
        assert_eq!(service.audit("foobar").content_hash, "85944171f73967e8");
        let resp = service.audit(PAGE);
        assert_eq!(
            resp.content_hash,
            format!("{:016x}", fnv1a64(PAGE.as_bytes()))
        );
    }

    #[test]
    fn empty_page_audits_cleanly() {
        let resp = AuditService::new().audit("");
        assert_eq!(resp.visible_chars, 0);
        assert!(resp.scripts.is_empty());
        assert!(resp.page_language.is_none());
        // Only the document-title slot is announced.
        assert_eq!(resp.speak_order.len(), 1);
    }

    #[test]
    fn script_shares_sum_to_one_when_text_present() {
        let resp = AuditService::new().audit(PAGE);
        let sum: f64 = resp.scripts.iter().map(|s| s.share).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum {sum}");
    }
}
