//! The render sweep: 204 pages over every study country, whose bytes
//! `serialization_pins` pins and whose allocations `render_allocs`
//! counts.

use langcrux::lang::Country;
use langcrux::net::ContentVariant;
use langcrux::webgen::SitePlan;

/// The sweep's `(plan, variant)` pairs, each rendered at path `/`.
pub fn pages() -> Vec<(SitePlan, ContentVariant)> {
    let mut pages = Vec::new();
    // Three plans per country, qualification left to the plan, in all
    // three variants (108 pages).
    for country in Country::STUDY {
        for index in 0..3u32 {
            let plan = SitePlan::build(97, country, index, None);
            for variant in [
                ContentVariant::Localized,
                ContentVariant::Global,
                ContentVariant::Restricted,
            ] {
                pages.push((plan.clone(), variant));
            }
        }
    }
    // Four plans per country, alternately forced to qualify and not, in
    // both served variants (96 pages).
    for country in Country::STUDY {
        for index in 0..4u32 {
            let plan = SitePlan::build(7, country, index, Some(index % 2 == 0));
            for variant in [ContentVariant::Localized, ContentVariant::Global] {
                pages.push((plan.clone(), variant));
            }
        }
    }
    pages
}
