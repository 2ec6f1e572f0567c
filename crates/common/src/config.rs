//! Shared configuration helpers.
//!
//! The simulator works in **CPU cycles** at a configurable core frequency
//! (2.7 GHz in the paper's Table 2). DRAM timing parameters are specified in
//! DRAM bus cycles and converted; OS costs (interrupt handlers, TLB
//! shootdowns) are specified in microseconds and converted. The helpers here
//! keep those conversions in one place.

use serde::{Deserialize, Serialize};

/// A memory capacity in bytes with convenient constructors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MemSize(pub u64);

impl MemSize {
    /// `n` bytes.
    pub const fn bytes(n: u64) -> Self {
        MemSize(n)
    }

    /// `n` kibibytes.
    pub const fn kib(n: u64) -> Self {
        MemSize(n * 1024)
    }

    /// `n` mebibytes.
    pub const fn mib(n: u64) -> Self {
        MemSize(n * 1024 * 1024)
    }

    /// `n` gibibytes.
    pub const fn gib(n: u64) -> Self {
        MemSize(n * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Number of 64-byte cache lines this capacity holds.
    pub const fn lines(self) -> u64 {
        self.0 / crate::addr::CACHE_LINE_SIZE
    }

    /// Number of 4 KiB pages this capacity holds.
    pub const fn pages(self) -> u64 {
        self.0 / crate::addr::PAGE_SIZE
    }
}

impl core::fmt::Display for MemSize {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = self.0;
        if b >= 1 << 30 && b.is_multiple_of(1 << 30) {
            write!(f, "{} GiB", b >> 30)
        } else if b >= 1 << 20 && b.is_multiple_of(1 << 20) {
            write!(f, "{} MiB", b >> 20)
        } else if b >= 1 << 10 && b.is_multiple_of(1 << 10) {
            write!(f, "{} KiB", b >> 10)
        } else {
            write!(f, "{b} B")
        }
    }
}

/// The core clock of the paper's Table 2 (2.7 GHz): the unit of every
/// [`Cycle`](crate::Cycle) in the simulator.
pub const CPU_CLOCK: CyclesPerSec = CyclesPerSec::ghz(2.7);

/// A clock frequency expressed in cycles per second, with time→cycle helpers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CyclesPerSec(pub f64);

impl CyclesPerSec {
    /// `n` gigahertz.
    pub const fn ghz(n: f64) -> Self {
        CyclesPerSec(n * 1e9)
    }

    /// `n` megahertz.
    pub const fn mhz(n: f64) -> Self {
        CyclesPerSec(n * 1e6)
    }

    /// Raw frequency in Hz.
    pub fn hz(self) -> f64 {
        self.0
    }

    /// Number of cycles (rounded) in `us` microseconds at this frequency.
    pub fn cycles_in_us(self, us: f64) -> u64 {
        (self.0 * us / 1e6).round() as u64
    }

    /// Convert a cycle count at frequency `other` into a cycle count at this
    /// frequency (e.g. DRAM bus cycles → CPU cycles).
    pub fn convert_cycles_from(self, cycles: u64, other: CyclesPerSec) -> u64 {
        ((cycles as f64) * self.0 / other.0).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memsize_constructors() {
        assert_eq!(MemSize::kib(4).as_bytes(), 4096);
        assert_eq!(MemSize::mib(8).as_bytes(), 8 * 1024 * 1024);
        assert_eq!(MemSize::gib(1).as_bytes(), 1 << 30);
        assert_eq!(MemSize::gib(1).pages(), 262_144);
        assert_eq!(MemSize::kib(4).lines(), 64);
    }

    #[test]
    fn memsize_display() {
        assert_eq!(MemSize::gib(16).to_string(), "16 GiB");
        assert_eq!(MemSize::mib(8).to_string(), "8 MiB");
        assert_eq!(MemSize::kib(32).to_string(), "32 KiB");
        assert_eq!(MemSize::bytes(100).to_string(), "100 B");
    }

    #[test]
    fn frequency_conversions() {
        let cpu = CPU_CLOCK;
        assert_eq!(cpu, CyclesPerSec::ghz(2.7));
        assert_eq!(cpu.hz(), 2.7e9);
        // 20 microseconds at 2.7 GHz is 54,000 cycles (Table 3 tag buffer
        // flush overhead).
        assert_eq!(cpu.cycles_in_us(20.0), 54_000);
        assert_eq!(cpu.cycles_in_us(4.0), 10_800);
        assert_eq!(cpu.cycles_in_us(1.0), 2_700);
    }

    #[test]
    fn cross_clock_conversion() {
        let cpu = CPU_CLOCK;
        let dram_bus = CyclesPerSec::mhz(667.0);
        // 10 DRAM bus cycles (tCAS) ≈ 40.5 CPU cycles.
        let cpu_cycles = cpu.convert_cycles_from(10, dram_bus);
        assert!((39..=42).contains(&cpu_cycles), "got {cpu_cycles}");
    }
}
