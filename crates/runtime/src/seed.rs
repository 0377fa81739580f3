//! Domain-separated RNG stream derivation.
//!
//! A parallel run is only reproducible if every worker owns its own
//! random stream: a shared generator would interleave draws in scheduling
//! order. Each worker therefore derives a private seed from the run's
//! master seed, a [`Stream`] tag, and its RA index. The derivation is a
//! double SplitMix64 finalizer over the mixed words — stateless,
//! collision-resistant in practice, and independent of how many workers
//! exist or which thread runs them.
//!
//! Where each stream rule is held:
//! * every tag is a distinct [`Stream`] discriminant — rustc rejects a
//!   duplicate value (E0081);
//! * every product generator names its stream — `clippy.toml` in `core`,
//!   `runtime` and `netsim` bans `SeedableRng::seed_from_u64`, and the one
//!   constructor allowed to call it, `edgeslice`'s `stream_rng`, takes a
//!   [`Stream`].

/// The tag of every RNG stream the product draws from. The discriminants
/// are today's wire-stable values: changing one moves every draw of its
/// stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum Stream {
    /// Per-RA orchestration streams (traffic draws during coordination
    /// rounds), one per RA index.
    Orch = 0x0E5E_0001_0000_0001,
    /// Per-RA offline-training streams, one per RA index.
    Train = 0x0E5E_0002_0000_0001,
    /// Per-round re-derivation of a worker's stream: seeding round `r`
    /// from `derive_stream_seed(worker_stream, Stream::Round, r)` makes a
    /// worker's RNG state a pure function of `(master, ra, round)` — the
    /// property that lets a resumed or respawned worker rejoin mid-run
    /// with bit-identical draws, without replaying every earlier round.
    Round = 0x0E5E_0004_0000_0001,
    /// The workload plan's arrival process: one stream per run.
    Workload = 0x51C3_0000_0000_0007,
    /// The workload plan's resize decisions, apart from the arrivals so
    /// that toggling resizes never shifts the arrival schedule: one stream
    /// per run.
    Resize = 0x51C3_0000_0000_0008,
    /// The generated fault plan: one stream per run.
    Fault = 0xFA17_0000_0000_0001,
}

impl Stream {
    /// The seed of stream `index` of `self` under `master`. A per-RA or
    /// per-round stream (`Orch`, `Train`, `Round`) is
    /// [`derive_stream_seed`]`(master, self, index)`. A whole-run stream
    /// (`Workload`, `Resize`, `Fault`) is the one stream `master ^ tag`
    /// and has no index: pass 0.
    #[must_use]
    pub fn seed(self, master: u64, index: u64) -> u64 {
        match self {
            Stream::Orch | Stream::Train | Stream::Round => derive_stream_seed(master, self, index),
            Stream::Workload | Stream::Resize | Stream::Fault => {
                debug_assert_eq!(index, 0, "{self:?} is one stream per run");
                master ^ self as u64
            }
        }
    }
}

/// [`Stream::Orch`] under its former name. The benchmark's hand-driven
/// twin of the round loop still imports it; it goes when the twin does.
pub const DOMAIN_ORCH: Stream = Stream::Orch;

/// [`Stream::Train`] under its former name, kept for the benchmark's
/// hand-driven twin; it goes when the twin does.
pub const DOMAIN_TRAIN: Stream = Stream::Train;

/// [`Stream::Round`] under its former name, kept for the benchmark's
/// hand-driven twin; it goes when the twin does.
pub const DOMAIN_ROUND: Stream = Stream::Round;

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
pub fn derive_stream_seed(master: u64, domain: Stream, index: u64) -> u64 {
    let mut z = master
        ^ (domain as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
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
            derive_stream_seed(7, Stream::Orch, 3),
            derive_stream_seed(7, Stream::Orch, 3)
        );
    }

    #[test]
    fn domains_and_indices_separate_streams() {
        let base = derive_stream_seed(7, Stream::Orch, 0);
        assert_ne!(base, derive_stream_seed(7, Stream::Train, 0));
        assert_ne!(base, derive_stream_seed(7, Stream::Round, 0));
        assert_ne!(base, derive_stream_seed(7, Stream::Orch, 1));
        assert_ne!(base, derive_stream_seed(8, Stream::Orch, 0));
    }

    #[test]
    fn no_collisions_over_a_small_grid() {
        let mut seen = std::collections::BTreeSet::new();
        for master in 0..8u64 {
            for domain in [Stream::Orch, Stream::Train, Stream::Round] {
                for index in 0..64u64 {
                    assert!(
                        seen.insert(derive_stream_seed(master, domain, index)),
                        "collision at ({master}, {domain:?}, {index})"
                    );
                }
            }
        }
    }

    #[test]
    fn seeds_keep_the_tags_bits() {
        // The seeds the product drew from before the tags were one enum.
        assert_eq!(Stream::Workload.seed(11, 0), 11 ^ 0x51C3_0000_0000_0007);
        assert_eq!(Stream::Resize.seed(11, 0), 11 ^ 0x51C3_0000_0000_0008);
        assert_eq!(Stream::Fault.seed(11, 0), 11 ^ 0xFA17_0000_0000_0001);
        assert_eq!(
            derive_stream_seed(0, Stream::Orch, 0),
            0x337B_AA5F_0F90_1549
        );
        assert_eq!(Stream::Round.seed(11, 4), 0xA5B0_D70A_6ED2_C1E7);
    }
}
