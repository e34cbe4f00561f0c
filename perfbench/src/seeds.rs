//! Seed derivation: every input of a run comes from its `--seed`.

/// SplitMix64 finalizer: a well-mixed 64-bit value from any input.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `stream`-th independent seed derived from the run's seed.
pub fn derive(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream))
}
