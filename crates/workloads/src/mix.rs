//! The multi-programmed SPEC mixes of Table 4.
//!
//! Heterogeneous workloads model a multi-programming environment: each of
//! the 16 cores runs its own program, and the listed 8-program mixes are
//! instantiated twice ("× 2" in Table 4) to fill the machine.

use crate::spec::SpecProgram;

/// Which mix from Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs, reason = "variants are the Table 4 mix names")]
pub enum SpecMix {
    Mix1,
    Mix2,
    Mix3,
}

impl SpecMix {
    /// All mixes in figure order.
    pub const ALL: [SpecMix; 3] = [SpecMix::Mix1, SpecMix::Mix2, SpecMix::Mix3];

    /// Display name ("mix1" ...).
    pub fn name(&self) -> &'static str {
        match self {
            SpecMix::Mix1 => "mix1",
            SpecMix::Mix2 => "mix2",
            SpecMix::Mix3 => "mix3",
        }
    }

    /// The 8 programs of this mix (Table 4); assign to cores round-robin,
    /// repeating the list to cover all cores ("× 2" for 16 cores).
    pub fn programs(&self) -> [SpecProgram; 8] {
        match self {
            SpecMix::Mix1 => [
                SpecProgram::Libquantum,
                SpecProgram::Mcf,
                SpecProgram::Soplex,
                SpecProgram::Milc,
                SpecProgram::Bwaves,
                SpecProgram::Lbm,
                SpecProgram::Omnetpp,
                SpecProgram::Gcc,
            ],
            SpecMix::Mix2 => [
                SpecProgram::Libquantum,
                SpecProgram::Mcf,
                SpecProgram::Soplex,
                SpecProgram::Milc,
                SpecProgram::Lbm,
                SpecProgram::Omnetpp,
                SpecProgram::Gems,
                SpecProgram::Bzip2,
            ],
            SpecMix::Mix3 => [
                SpecProgram::Mcf,
                SpecProgram::Soplex,
                SpecProgram::Milc,
                SpecProgram::Bwaves,
                SpecProgram::Gcc,
                SpecProgram::Lbm,
                SpecProgram::Leslie,
                SpecProgram::Cactus,
            ],
        }
    }

    /// The program core `core_id` runs.
    pub fn program_for_core(&self, core_id: usize) -> SpecProgram {
        self.programs()[core_id % 8]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_match_table4() {
        // Spot-check the Table 4 contents.
        assert_eq!(SpecMix::Mix1.programs()[0], SpecProgram::Libquantum);
        assert_eq!(SpecMix::Mix1.programs()[7], SpecProgram::Gcc);
        assert!(SpecMix::Mix2.programs().contains(&SpecProgram::Gems));
        assert!(SpecMix::Mix2.programs().contains(&SpecProgram::Bzip2));
        assert!(SpecMix::Mix3.programs().contains(&SpecProgram::Leslie));
        assert!(SpecMix::Mix3.programs().contains(&SpecProgram::Cactus));
        // Mix2 and Mix3 do not contain bwaves/gcc respectively per Table 4.
        assert!(!SpecMix::Mix2.programs().contains(&SpecProgram::Bwaves));
        assert!(!SpecMix::Mix3.programs().contains(&SpecProgram::Omnetpp));
    }

    #[test]
    fn sixteen_cores_run_each_program_twice() {
        let mut counts = banshee_common::FnvHashMap::default();
        for core in 0..16 {
            *counts
                .entry(SpecMix::Mix1.program_for_core(core))
                .or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 8);
        assert!(counts.values().all(|&c| c == 2));
    }

    #[test]
    fn names() {
        assert_eq!(SpecMix::ALL.map(|m| m.name()), ["mix1", "mix2", "mix3"]);
    }
}
