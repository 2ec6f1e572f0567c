//! Known-bad fixture: governance violations.

#[derive(Clone, Debug)]
pub struct SimConfig {
    pub cores: usize,
    pub seed: u64,
}

/// Revision history:
/// 1. initial model;
/// 2. second revision.
pub const MODEL_REVISION: u32 = 3;
