//! Clean fixture: fully governed config.

#[derive(Clone, Debug)]
pub struct SimConfig {
    pub cores: usize,
    pub seed: u64,
}

/// Revision history:
/// 1. initial model.
pub const MODEL_REVISION: u32 = 1;
