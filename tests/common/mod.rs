//! Helpers shared by the integration tests that pin answers and work
//! counters as literals.

use jcr::core::state::fnv1a;
use jcr::ctx::SolverContext;

/// Hex FNV-1a over the little-endian bit patterns of `values`, in order.
pub fn checksum(values: impl IntoIterator<Item = f64>) -> String {
    let bytes: Vec<u8> = values
        .into_iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    format!("{:016x}", fnv1a(&bytes))
}

/// Runs `work` on a fresh context at pool widths 1 and 2 and asserts
/// both runs return `want_checksum` and count `want_counters` (pivots,
/// refactorizations, Dijkstra calls, CG columns, decomposition paths,
/// rounding passes). Equal values at both widths are the pool's
/// deterministic-merge contract.
pub fn assert_pinned(
    want_checksum: &str,
    want_counters: [u64; 6],
    work: impl Fn(&SolverContext) -> String,
) {
    for workers in [1, 2] {
        let ctx = SolverContext::new().with_workers(workers);
        let got = work(&ctx);
        assert_eq!(got, want_checksum, "checksum at {workers} worker(s)");
        assert_eq!(
            ctx.stats().counters(),
            want_counters,
            "counters at {workers} worker(s)"
        );
    }
}
