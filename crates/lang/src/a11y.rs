//! The language-sensitive accessibility elements (paper Table 1).
//!
//! Twelve element kinds "for which the presence, clarity, and
//! appropriateness of natural language directly influence accessibility
//! outcomes", selected in §2 from the Lighthouse/Axe-core audit catalogue.
//! This vocabulary is shared by the website generator (which plants
//! accessibility text into these slots), the crawler (which extracts it),
//! the audit engine (whose rules target them) and the analysis layer
//! (Table 2 is indexed by them).

use serde::{Deserialize, Serialize};

/// One of the twelve language-sensitive accessibility element kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ElementKind {
    ButtonName,
    DocumentTitle,
    ImageAlt,
    FrameTitle,
    SummaryName,
    Label,
    InputImageAlt,
    SelectName,
    LinkName,
    InputButtonName,
    SvgImgAlt,
    ObjectAlt,
}

impl ElementKind {
    /// All twelve kinds, in the paper's Table 1 reading order.
    pub const ALL: [ElementKind; 12] = [
        ElementKind::ButtonName,
        ElementKind::DocumentTitle,
        ElementKind::ImageAlt,
        ElementKind::FrameTitle,
        ElementKind::SummaryName,
        ElementKind::Label,
        ElementKind::InputImageAlt,
        ElementKind::SelectName,
        ElementKind::LinkName,
        ElementKind::InputButtonName,
        ElementKind::SvgImgAlt,
        ElementKind::ObjectAlt,
    ];

    /// The eleven kinds reported in Table 2 (DocumentTitle is a singleton
    /// per page and is excluded from the per-element statistics).
    pub const TABLE2: [ElementKind; 11] = [
        ElementKind::ButtonName,
        ElementKind::FrameTitle,
        ElementKind::ImageAlt,
        ElementKind::InputButtonName,
        ElementKind::InputImageAlt,
        ElementKind::Label,
        ElementKind::LinkName,
        ElementKind::ObjectAlt,
        ElementKind::SelectName,
        ElementKind::SummaryName,
        ElementKind::SvgImgAlt,
    ];

    /// The Lighthouse audit id this kind corresponds to (Table 1 labels).
    pub fn audit_id(self) -> &'static str {
        match self {
            ElementKind::ButtonName => "button-name",
            ElementKind::DocumentTitle => "document-title",
            ElementKind::ImageAlt => "image-alt",
            ElementKind::FrameTitle => "frame-title",
            ElementKind::SummaryName => "summary-name",
            ElementKind::Label => "label",
            ElementKind::InputImageAlt => "input-image-alt",
            ElementKind::SelectName => "select-name",
            ElementKind::LinkName => "link-name",
            ElementKind::InputButtonName => "input-button-name",
            ElementKind::SvgImgAlt => "svg-img-alt",
            ElementKind::ObjectAlt => "object-alt",
        }
    }

    /// Parse an audit id back to a kind.
    pub fn from_audit_id(id: &str) -> Option<ElementKind> {
        ElementKind::ALL
            .iter()
            .copied()
            .find(|k| k.audit_id() == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_kinds_eleven_in_table2() {
        assert_eq!(ElementKind::ALL.len(), 12);
        assert_eq!(ElementKind::TABLE2.len(), 11);
        assert!(!ElementKind::TABLE2.contains(&ElementKind::DocumentTitle));
        for k in ElementKind::TABLE2 {
            assert!(ElementKind::ALL.contains(&k));
        }
    }

    #[test]
    fn audit_ids_round_trip() {
        for k in ElementKind::ALL {
            assert_eq!(ElementKind::from_audit_id(k.audit_id()), Some(k));
        }
        assert_eq!(ElementKind::from_audit_id("video-caption"), None);
    }

    #[test]
    fn audit_ids_match_table1() {
        let ids: Vec<&str> = ElementKind::ALL.iter().map(|k| k.audit_id()).collect();
        for expected in [
            "button-name",
            "document-title",
            "image-alt",
            "frame-title",
            "summary-name",
            "label",
            "input-image-alt",
            "select-name",
            "link-name",
            "input-button-name",
            "svg-img-alt",
            "object-alt",
        ] {
            assert!(ids.contains(&expected), "{expected} missing");
        }
    }
}
