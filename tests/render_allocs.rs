//! Allocation contract of the pooled render path.
//!
//! `render_into` reuses one `RenderScratch` arena (pooled generators,
//! builder and text buffers) for every page. Once a pass over the render
//! sweep has warmed the arena, the next pass allocates only the term
//! lists that `dict::actions_in` and `dict::placeholders_in` collect for
//! each planted generic-action or placeholder label. The pass total is
//! pinned: one more allocation per page moves it by the sweep's 204
//! pages. The count is the same in debug and release builds.

mod common;
mod render_sweep;

use common::counted;
use langcrux::webgen::{render_into, RenderScratch};
use std::hint::black_box;

/// Allocations of the second pass over the render sweep.
const PINNED_PASS_ALLOCS: u64 = 0;

#[test]
fn warm_render_allocations_are_pinned() {
    let pages = render_sweep::pages();
    assert_eq!(pages.len(), 204);
    let mut scratch = RenderScratch::new();
    let mut out = String::new();
    // First pass: warm the arena and the output buffer.
    for (plan, variant) in &pages {
        out.clear();
        black_box(render_into(plan, *variant, "/", &mut scratch, &mut out));
    }
    let mut total = 0;
    for (plan, variant) in &pages {
        out.clear();
        let (truth, allocs) = counted(|| render_into(plan, *variant, "/", &mut scratch, &mut out));
        black_box(truth);
        total += allocs;
    }
    assert_eq!(total, PINNED_PASS_ALLOCS);
}
