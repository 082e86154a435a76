//! What does a blind visitor actually *hear*?
//!
//! Simulates a VoiceOver-like screen reader over the same bilingual page
//! under three conditions: as authored (English metadata on a Bangla
//! page), with metadata removed, and with properly localized metadata —
//! making the paper's §1 motivation audible, element by element.
//!
//! ```sh
//! cargo run --example screen_reader
//! ```

use langcrux::crawl::extract_streaming;
use langcrux::kizuki::{ScreenReader, SpeechOutcome, SpeechStats};
use langcrux::lang::Language;

const AS_AUTHORED: &str = r#"<html lang="bn"><head><title>দৈনিক সংবাদ</title></head><body>
<p>আজকের প্রধান খবর: দেশের উত্তরাঞ্চলে বন্যা পরিস্থিতির উন্নতি হয়েছে এবং
ত্রাণ কার্যক্রম পুরোদমে চলছে।</p>
<img src="/f.jpg" alt="volunteers distributing relief supplies after the flood">
<img src="/g.jpg">
<img src="/h.jpg" alt="IMG_2047.jpg">
<a href="/news">সব খবর</a>
<button type="button">অনুসন্ধান</button>
</body></html>"#;

const LOCALIZED: &str = r#"<html lang="bn"><head><title>দৈনিক সংবাদ</title></head><body>
<p>আজকের প্রধান খবর: দেশের উত্তরাঞ্চলে বন্যা পরিস্থিতির উন্নতি হয়েছে এবং
ত্রাণ কার্যক্রম পুরোদমে চলছে।</p>
<img src="/f.jpg" alt="বন্যার পরে ত্রাণ বিতরণ করছেন স্বেচ্ছাসেবকেরা">
<img src="/g.jpg" alt="উত্তরাঞ্চলের প্লাবিত গ্রামের দৃশ্য">
<img src="/h.jpg" alt="নৌকায় করে ত্রাণ নিয়ে যাওয়া হচ্ছে">
<a href="/news">সব খবর</a>
<button type="button">অনুসন্ধান</button>
</body></html>"#;

fn narrate(title: &str, html: &str, reader: &ScreenReader) {
    println!("— {title} —");
    let page = extract_streaming(html);
    let utterances = reader.announce_page(&page, Language::Bangla);
    for u in &utterances {
        let marker = match u.outcome {
            SpeechOutcome::Spoken => "spoken    ",
            SpeechOutcome::Mispronounced => "garbled   ",
            SpeechOutcome::Skipped => "SKIPPED   ",
            SpeechOutcome::GenericAnnouncement => "generic   ",
        };
        println!(
            "  [{marker}] {:<16} \"{}\"",
            u.kind.audit_id(),
            u.text.chars().take(48).collect::<String>()
        );
    }
    let stats = SpeechStats::of(&utterances);
    println!(
        "  => {}/{} announcements degraded ({:.0}%)\n",
        stats.total() - stats.spoken,
        stats.total(),
        stats.degraded_pct()
    );
}

fn main() {
    let voiceover = ScreenReader::voiceover_like();
    println!(
        "screen reader profile: {} (partial Bangla voice — §1 of the paper)\n",
        voiceover.name()
    );
    narrate(
        "as authored: English + placeholder metadata",
        AS_AUTHORED,
        &voiceover,
    );
    narrate("properly localized metadata", LOCALIZED, &voiceover);

    println!("same localized page under an English-only reader:");
    narrate(
        "english-only engine",
        LOCALIZED,
        &ScreenReader::english_only(),
    );
}
