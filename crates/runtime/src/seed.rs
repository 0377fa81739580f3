//! Domain-separated RNG stream derivation.
//!
//! A parallel run is only reproducible if every worker owns its own
//! random stream: a shared generator would interleave draws in scheduling
//! order. Each worker therefore derives a private seed from the run's
//! master seed, a *domain* tag (orchestration, training, or per-round), and
//! its RA index. The derivation is a double SplitMix64 finalizer over the
//! mixed words — stateless, collision-resistant in practice, and
//! independent of how many workers exist or which thread runs them.

/// Domain tag for per-RA orchestration streams (traffic draws during
/// coordination rounds).
pub const DOMAIN_ORCH: u64 = 0x0E5E_0001_0000_0001;

/// Domain tag for per-RA offline-training streams.
pub const DOMAIN_TRAIN: u64 = 0x0E5E_0002_0000_0001;

/// Domain tag for per-round re-derivation of a worker's stream: seeding
/// round `r` from `derive_stream_seed(worker_stream, DOMAIN_ROUND, r)`
/// makes a worker's RNG state a pure function of `(master, ra, round)` —
/// the property that lets a resumed or respawned worker rejoin mid-run
/// with bit-identical draws, without replaying every earlier round.
pub const DOMAIN_ROUND: u64 = 0x0E5E_0004_0000_0001;

/// Derives the seed of stream `index` in `domain` from `master`.
///
/// Properties relied on by the runtime:
/// * deterministic — a pure function of its three inputs;
/// * domain-separated — the same `(master, index)` yields unrelated
///   streams under different domains, so training draws never alias
///   orchestration draws;
/// * index-separated — adjacent indices yield unrelated seeds (SplitMix64
///   finalizers scramble single-bit input differences across all 64 bits).
#[must_use]
pub fn derive_stream_seed(master: u64, domain: u64, index: u64) -> u64 {
    let mut z = master
        ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    // Two rounds of the SplitMix64 finalizer.
    for _ in 0..2 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(
            derive_stream_seed(7, DOMAIN_ORCH, 3),
            derive_stream_seed(7, DOMAIN_ORCH, 3)
        );
    }

    #[test]
    fn domains_and_indices_separate_streams() {
        let base = derive_stream_seed(7, DOMAIN_ORCH, 0);
        assert_ne!(base, derive_stream_seed(7, DOMAIN_TRAIN, 0));
        assert_ne!(base, derive_stream_seed(7, DOMAIN_ROUND, 0));
        assert_ne!(base, derive_stream_seed(7, DOMAIN_ORCH, 1));
        assert_ne!(base, derive_stream_seed(8, DOMAIN_ORCH, 0));
    }

    #[test]
    fn no_collisions_over_a_small_grid() {
        let mut seen = std::collections::BTreeSet::new();
        for master in 0..8u64 {
            for domain in [DOMAIN_ORCH, DOMAIN_TRAIN, DOMAIN_ROUND] {
                for index in 0..64u64 {
                    assert!(
                        seen.insert(derive_stream_seed(master, domain, index)),
                        "collision at ({master}, {domain:#x}, {index})"
                    );
                }
            }
        }
    }
}
