//! Plain-text rendering of every table and figure.
//!
//! The `repro` binary prints these. Rendering is purely presentational —
//! all numbers come from `analysis`.

use crate::analysis::{
    DeclaredLangRow, DiscardDistribution, ElementStatsRow, Headlines, KizukiShift, LangDistRow,
    MismatchCdfs,
};
use crate::dataset::{Dataset, ExtremeExample, MismatchExample};
use crate::stats::CountGrid;
use langcrux_audit::MatrixRow;
use langcrux_filter::DiscardCategory;
use std::fmt::Write as _;

fn hr(width: usize) -> String {
    "-".repeat(width)
}

/// Render Table 2.
pub fn table2(rows: &[ElementStatsRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} | {:>23} | {:>23} | {:>23} | {:>23}",
        "Element",
        "Missing % (med/sd/mean)",
        "Empty % (med/sd/mean)",
        "Text len (med/sd/mean)",
        "Words (med/sd/mean)"
    );
    let _ = writeln!(out, "{}", hr(122));
    for row in rows {
        let f = |s: &crate::stats::Summary| {
            format!("{:>6.2}/{:>6.2}/{:>6.2}", s.median, s.std_dev, s.mean)
        };
        let _ = writeln!(
            out,
            "{:<18} | {:>23} | {:>23} | {:>23} | {:>23}",
            row.kind.audit_id(),
            f(&row.missing),
            f(&row.empty),
            f(&row.text_len),
            f(&row.word_count),
        );
    }
    out
}

/// Render Table 3 (the Lighthouse pass/fail matrix).
pub fn table3(matrix: &[MatrixRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} | {:^15} | {:^11} | {:^18}",
        "Accessibility Rule", "Missing Element", "Empty Value", "Incorrect Language"
    );
    let _ = writeln!(out, "{}", hr(72));
    let tick = |pass: bool| if pass { "pass" } else { "FAIL" };
    for row in matrix {
        let _ = writeln!(
            out,
            "{:<18} | {:^15} | {:^11} | {:^18}",
            row.kind.audit_id(),
            tick(row.pass_missing),
            tick(row.pass_empty),
            tick(row.pass_wrong_language),
        );
    }
    out
}

/// Render a discard distribution table (Figures 3 and 9 share the shape).
pub fn discards(rows: &[DiscardDistribution]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<18}", "");
    for cat in DiscardCategory::ALL {
        let _ = write!(out, " | {:>7}", short_cat(cat));
    }
    let _ = writeln!(out, " | {:>7}", "useful");
    let _ = writeln!(out, "{}", hr(18 + 12 * 10));
    for row in rows {
        let _ = write!(out, "{:<18}", row.label);
        for pct in row.pct {
            let _ = write!(out, " | {pct:>6.2}%");
        }
        let _ = writeln!(out, " | {:>6.2}%", row.informative_pct);
    }
    out
}

fn short_cat(cat: DiscardCategory) -> &'static str {
    match cat {
        DiscardCategory::Emoji => "emoji",
        DiscardCategory::TooShort => "short",
        DiscardCategory::FileName => "file",
        DiscardCategory::UrlOrFilePath => "url",
        DiscardCategory::GenericAction => "action",
        DiscardCategory::Placeholder => "plchld",
        DiscardCategory::DevLabel => "devlbl",
        DiscardCategory::LabelNumberPattern => "lblnum",
        DiscardCategory::SingleWord => "1word",
        DiscardCategory::MixedAlnum => "alnum",
        DiscardCategory::OrdinalPhrase => "ordnl",
    }
}

/// Render Figure 4.
pub fn lang_distribution(rows: &[LangDistRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} | {:>8} | {:>8} | {:>8} | {:>10}",
        "country", "native%", "english%", "mixed%", "texts"
    );
    let _ = writeln!(out, "{}", hr(54));
    for row in rows {
        let _ = writeln!(
            out,
            "{:<8} | {:>7.1}% | {:>7.1}% | {:>7.1}% | {:>10}",
            row.country_code, row.native_pct, row.english_pct, row.mixed_pct, row.informative_texts
        );
    }
    out
}

/// Render Figure 5 (CDFs on a 10-point grid, plus the mismatch headline).
pub fn mismatch_cdfs(rows: &[MismatchCdfs]) -> String {
    let grid: Vec<f64> = (0..=10).map(|i| f64::from(i) * 10.0).collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "CDF of native-language share (V = visible text, A = accessibility text)"
    );
    let _ = write!(out, "{:<10}", "country");
    for g in &grid {
        let _ = write!(out, " {:>5}", format!("≤{g:.0}"));
    }
    let _ = writeln!(out, "  | <10% native a11y");
    let _ = writeln!(out, "{}", hr(10 + 11 * 6 + 20));
    for row in rows {
        let _ = write!(out, "{:<8} V", row.country_code);
        for g in &grid {
            let _ = write!(out, " {:>5.2}", row.visible.at(*g));
        }
        let _ = writeln!(out);
        let _ = write!(out, "{:<8} A", "");
        for g in &grid {
            let _ = write!(out, " {:>5.2}", row.a11y.at(*g));
        }
        let _ = writeln!(
            out,
            "  | {:>5.1}% of sites",
            row.sites_below_10pct_native_a11y
        );
    }
    out
}

/// Render Figure 6 (score histograms before/after Kizuki).
pub fn kizuki_shift(shift: &KizukiShift) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Kizuki rescoring over {} eligible sites in {:?}:",
        shift.eligible_sites, shift.countries
    );
    let _ = writeln!(
        out,
        "  above 90: {:>5.1}% -> {:>5.1}%   perfect: {:>4.1}% -> {:>4.1}%",
        shift.old_above_90_pct,
        shift.new_above_90_pct,
        shift.old_perfect_pct,
        shift.new_perfect_pct
    );
    let _ = writeln!(out, "  {:>9} | {:>6} | {:>6}", "score bin", "old", "new");
    let _ = writeln!(out, "  {}", hr(29));
    for i in 0..shift.old_scores.counts.len() {
        let lo = shift.old_scores.edges[i];
        let hi = shift.old_scores.edges[i + 1];
        let _ = writeln!(
            out,
            "  {:>4.0}-{:<4.0} | {:>6} | {:>6}",
            lo, hi, shift.old_scores.counts[i], shift.new_scores.counts[i]
        );
    }
    out
}

/// Render Figure 7 (rank heatmap).
pub fn rank_heatmap(grid: &CountGrid) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<8}", "rank");
    for col in &grid.cols {
        let _ = write!(out, " {col:>6}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", hr(8 + grid.cols.len() * 7));
    for (r, row_label) in grid.rows.iter().enumerate() {
        let _ = write!(out, "{row_label:<8}");
        for c in 0..grid.cols.len() {
            let _ = write!(out, " {:>6}", grid.get(r, c));
        }
        let _ = writeln!(out);
    }
    out
}

/// Render a scatter (Figures 2 and 8) as a 10×10 density grid.
///
/// `x_range`/`y_range` are (lo, hi); each cell prints the point count.
pub fn scatter_density(
    title: &str,
    points: &[(f64, f64)],
    x_range: (f64, f64),
    y_range: (f64, f64),
) -> String {
    const BINS: usize = 10;
    let mut cells = [[0u32; BINS]; BINS];
    for &(x, y) in points {
        let fx = ((x - x_range.0) / (x_range.1 - x_range.0)).clamp(0.0, 0.999);
        let fy = ((y - y_range.0) / (y_range.1 - y_range.0)).clamp(0.0, 0.999);
        cells[(fy * BINS as f64) as usize][(fx * BINS as f64) as usize] += 1;
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title} ({} sites)", points.len());
    for row in (0..BINS).rev() {
        let y_lo = y_range.0 + (y_range.1 - y_range.0) * row as f64 / BINS as f64;
        let _ = write!(out, "{y_lo:>5.0} |");
        for &n in &cells[row] {
            let _ = match n {
                0 => write!(out, "    ."),
                n => write!(out, "{n:>5}"),
            };
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "      ");
    for col in 0..BINS {
        let x_lo = x_range.0 + (x_range.1 - x_range.0) * col as f64 / BINS as f64;
        let _ = write!(out, "{x_lo:>5.0}");
    }
    let _ = writeln!(out);
    out
}

/// Render Table 4 (extreme examples).
pub fn extreme_examples(examples: &[ExtremeExample]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} | {:<4} | {:>8} | {:>6} | preview",
        "host", "cc", "chars", "words"
    );
    let _ = writeln!(out, "{}", hr(100));
    for e in examples {
        let _ = writeln!(
            out,
            "{:<22} | {:<4} | {:>8} | {:>6} | {}…",
            e.host,
            e.country.code(),
            e.chars,
            e.words,
            e.preview.chars().take(48).collect::<String>()
        );
    }
    out
}

/// Render Table 5 (mismatch examples).
pub fn mismatch_examples(examples: &[MismatchExample]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} | {:<4} | {:>9} | English alt text on a native-language page",
        "host", "cc", "native %"
    );
    let _ = writeln!(out, "{}", hr(110));
    for m in examples {
        let _ = writeln!(
            out,
            "{:<22} | {:<4} | {:>8.1}% | \"{}\"",
            m.host,
            m.country.code(),
            m.visible_native_pct,
            m.alt_preview.chars().take(60).collect::<String>()
        );
    }
    out
}

/// Render the declared-language consistency table (extension X3).
pub fn declared_lang(rows: &[DeclaredLangRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} | {:>9} | {:>9} | {:>10} | {:>8}",
        "country", "declared", "correct", "incorrect", "absent"
    );
    let _ = writeln!(out, "{}", hr(58));
    for row in rows {
        let _ = writeln!(
            out,
            "{:<8} | {:>8.1}% | {:>8.1}% | {:>9.1}% | {:>7.1}%",
            row.country_code, row.declared_pct, row.correct_pct, row.incorrect_pct, row.absent_pct
        );
    }
    out
}

/// Render the headline findings.
pub fn headlines(h: &Headlines) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Dataset: {} sites", h.sites);
    let _ = writeln!(
        out,
        "Share of accessibility texts discarded as uninformative: {:.1}%",
        h.discarded_share_pct
    );
    let _ = writeln!(out, "Sites with <10% native accessibility text:");
    for (code, pct) in &h.mismatch_share {
        let _ = writeln!(out, "  {code:<4} {pct:>5.1}%");
    }
    out
}

/// Render the per-country crawl provenance.
pub fn crawl_summaries(ds: &Dataset) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<8} | {:>9} | {:>8} | {:>10} | {:>6} | {:>10}",
        "country", "attempted", "selected", "rejected", "failed", "restricted"
    );
    let _ = writeln!(out, "{}", hr(66));
    for s in &ds.crawl_summaries {
        let _ = writeln!(
            out,
            "{:<8} | {:>9} | {:>8} | {:>10} | {:>6} | {:>10}",
            s.country_code,
            s.attempted,
            s.selected,
            s.rejected_threshold,
            s.failed_fetch,
            s.restricted
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::stats::Histogram;

    #[test]
    fn table3_render_contains_quirks() {
        let matrix = langcrux_audit::lighthouse_matrix();
        let text = table3(&matrix);
        assert!(text.contains("image-alt"));
        assert!(text.contains("FAIL"));
        assert!(text.contains("pass"));
        // 12 rows + header + rule.
        assert_eq!(text.lines().count(), 14);
    }

    #[test]
    fn scatter_density_renders() {
        let points = vec![(10.0, 90.0), (15.0, 85.0), (90.0, 10.0)];
        let text = scatter_density("test", &points, (0.0, 100.0), (0.0, 100.0));
        assert!(text.contains("(3 sites)"));
        assert!(text.lines().count() >= 11);
    }

    #[test]
    fn kizuki_render_shape() {
        let shift = analysis::KizukiShift {
            countries: vec!["bd".into(), "th".into()],
            eligible_sites: 10,
            old_scores: Histogram::uniform(30.0, 100.0, 14),
            new_scores: Histogram::uniform(30.0, 100.0, 14),
            old_above_90_pct: 43.0,
            new_above_90_pct: 15.8,
            old_perfect_pct: 5.6,
            new_perfect_pct: 1.8,
        };
        let text = kizuki_shift(&shift);
        assert!(text.contains("43.0%"));
        assert!(text.contains("15.8%"));
    }

    #[test]
    fn declared_lang_render() {
        let rows = vec![crate::analysis::DeclaredLangRow {
            country_code: "bd".into(),
            declared_pct: 75.0,
            correct_pct: 50.0,
            incorrect_pct: 25.0,
            absent_pct: 25.0,
        }];
        let text = declared_lang(&rows);
        assert!(text.contains("bd"));
        assert!(text.contains("75.0%"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn empty_examples_render_headers_only() {
        assert_eq!(extreme_examples(&[]).lines().count(), 2);
        assert_eq!(mismatch_examples(&[]).lines().count(), 2);
    }
}
