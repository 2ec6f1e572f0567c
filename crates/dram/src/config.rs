//! DRAM timing, scheduling and organization configuration.

use banshee_common::{Cycle, CyclesPerSec, MemSize};
use serde::{Deserialize, Serialize};

/// Raw DRAM timing parameters, expressed in DRAM *bus* clock cycles (the
/// paper's Table 2 lists 10-10-10-24 at a 667 MHz bus clock).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramTiming {
    /// Column access strobe latency (read command → first data beat).
    pub t_cas: u64,
    /// Row-to-column delay (activate → read command).
    pub t_rcd: u64,
    /// Row precharge time (precharge → activate).
    pub t_rp: u64,
    /// Row active time (activate → precharge allowed).
    pub t_ras: u64,
    /// Refresh interval (one all-bank refresh per `t_refi` bus cycles;
    /// 0 disables refresh). DDR3's 7.8 µs is ≈ 5200 cycles at 667 MHz.
    pub t_refi: u64,
    /// Refresh cycle time: how long every bank is blocked per refresh
    /// (≈ 160 ns = 107 bus cycles at 667 MHz).
    pub t_rfc: u64,
}

impl DramTiming {
    /// The paper's default access timing, tCAS-tRCD-tRP-tRAS = 10-10-10-24,
    /// plus DDR3-class refresh (tREFI = 7.8 µs, tRFC = 160 ns).
    pub const fn paper_default() -> Self {
        DramTiming {
            t_cas: 10,
            t_rcd: 10,
            t_rp: 10,
            t_ras: 24,
            t_refi: 5200,
            t_rfc: 107,
        }
    }

    /// The paper's timing with refresh disabled (the pre-refresh model the
    /// timing-pinning tests use).
    #[cfg(test)]
    pub const fn no_refresh() -> Self {
        DramTiming {
            t_refi: 0,
            ..Self::paper_default()
        }
    }
}

impl Default for DramTiming {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// How a channel's memory controller orders the requests it has queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// First-come-first-served: queued writes drain oldest-first.
    Fcfs,
    /// First-ready FCFS: among queued requests, row-buffer hits are serviced
    /// before older row misses (Rixner et al., ISCA 2000).
    FrFcfs,
}

/// What happens to a DRAM row after a column access completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PagePolicy {
    /// The row stays open until a conflicting access or refresh closes it
    /// (exploits row-buffer locality; conflicts pay precharge + activate).
    Open,
    /// Every access auto-precharges its row (no row hits, but also no
    /// conflict penalty — better under low-locality traffic).
    Closed,
}

/// Full configuration of one DRAM device (a set of identical channels).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Number of banks per channel.
    pub banks_per_channel: usize,
    /// Row-buffer (DRAM page) size per bank, in bytes.
    pub row_buffer_bytes: u64,
    /// Bus width in bytes per channel (128 bits = 16 B in the paper).
    pub bus_bytes: u64,
    /// DRAM bus clock frequency. Data rate is double (DDR).
    pub bus_clock: CyclesPerSec,
    /// CPU core clock, used to convert DRAM timing into CPU cycles.
    pub cpu_clock: CyclesPerSec,
    /// Minimum data-transfer granule in bytes (32 B for HBM-like links;
    /// this is why a 64 B line + 8 B tag costs 96 B).
    pub min_transfer_bytes: u64,
    /// Multiplier applied to the row access latency portion (1.0 = paper
    /// default). Figure 8(b) sweeps DRAM-cache latency to 66% and 50%.
    pub latency_scale: f64,
    /// Raw command timing (bus cycles).
    pub timing: DramTiming,
    /// Request-ordering policy of the per-channel memory controller.
    pub scheduler: SchedulerKind,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Bounded per-bank read queue: at most this many requests may be
    /// outstanding (unfinished) per bank; excess arrivals are back-pressured
    /// to when a slot frees.
    pub read_queue_depth: usize,
    /// Per-channel write-queue capacity. Writes are posted into the queue
    /// and drained in scheduler order; 0 services every write immediately
    /// (no buffering).
    pub write_queue_depth: usize,
    /// Queue occupancy at which a write drain starts.
    pub write_high_watermark: usize,
    /// Queue occupancy at which a running write drain stops.
    pub write_low_watermark: usize,
    /// Total device capacity (used for sanity checks / cache sizing, not for
    /// timing).
    pub capacity: MemSize,
}

impl DramConfig {
    /// The paper's off-package DRAM: 1 channel of DDR-1333 with a 128-bit bus
    /// (≈ 21.3 GB/s peak).
    pub fn off_package_default() -> Self {
        DramConfig {
            channels: 1,
            banks_per_channel: 8,
            row_buffer_bytes: 8 * 1024,
            bus_bytes: 16,
            bus_clock: CyclesPerSec::mhz(667.0),
            cpu_clock: CyclesPerSec::ghz(2.7),
            min_transfer_bytes: 32,
            latency_scale: 1.0,
            timing: DramTiming::paper_default(),
            scheduler: SchedulerKind::FrFcfs,
            page_policy: PagePolicy::Open,
            read_queue_depth: 8,
            write_queue_depth: 32,
            write_high_watermark: 24,
            write_low_watermark: 8,
            capacity: MemSize::gib(16),
        }
    }

    /// The paper's in-package DRAM: 4 channels of the same technology
    /// (≈ 85 GB/s peak), 1 GB capacity.
    pub fn in_package_default() -> Self {
        DramConfig {
            channels: 4,
            capacity: MemSize::gib(1),
            ..Self::off_package_default()
        }
    }

    /// Resize the per-channel write queue and keep the default watermark
    /// shape: a drain starts at ¾ of the depth (clamped to [1, depth]) and
    /// stops at ¼ of it, below the start. A depth of 0 services writes
    /// immediately and zeroes both watermarks.
    pub fn set_write_queue_depth(&mut self, depth: usize) {
        let high = (depth * 3 / 4).max(1).min(depth);
        self.write_queue_depth = depth;
        self.write_high_watermark = high;
        self.write_low_watermark = (depth / 4).min(high.saturating_sub(1));
    }

    /// Peak bandwidth in bytes per second (DDR: two beats per bus clock).
    pub fn peak_bandwidth_bytes_per_sec(&self) -> f64 {
        self.channels as f64 * self.bus_bytes as f64 * 2.0 * self.bus_clock.hz()
    }

    /// Peak bandwidth in GB/s (decimal gigabytes, as the paper quotes).
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.peak_bandwidth_bytes_per_sec() / 1e9
    }

    /// How many CPU cycles one channel's bus is occupied to move `bytes`
    /// (after rounding up to the minimum transfer granule).
    ///
    /// Because `min_transfer_bytes` is a multiple of the bytes moved per bus
    /// clock (32 B on the default 16 B DDR link), the bus-clock count is
    /// exact; only the final bus→CPU clock conversion rounds (to nearest),
    /// which `transfer_cycles_exact_at_min_granule` pins in tests.
    pub fn transfer_cycles(&self, bytes: u64) -> Cycle {
        let bytes = self.round_to_min_transfer(bytes);
        // Bytes moved per bus clock: bus width × 2 (DDR).
        let bytes_per_bus_clock = self.bus_bytes * 2;
        let bus_clocks = bytes.div_ceil(bytes_per_bus_clock);
        self.cpu_clock
            .convert_cycles_from(bus_clocks, self.bus_clock)
            .max(1)
    }

    /// Round a byte count up to the link's minimum transfer granule.
    pub fn round_to_min_transfer(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        bytes.div_ceil(self.min_transfer_bytes) * self.min_transfer_bytes
    }

    /// Row-buffer-hit access latency (CAS only) in CPU cycles, with the
    /// latency scale applied.
    pub fn row_hit_latency(&self) -> Cycle {
        self.scale_bus_cycles(self.timing.t_cas)
    }

    /// Latency for an access to a closed row (activate + CAS) in CPU cycles.
    pub fn row_closed_latency(&self) -> Cycle {
        self.scale_bus_cycles(self.timing.t_rcd + self.timing.t_cas)
    }

    /// Latency for a row-buffer conflict with no outstanding tRAS debt
    /// (precharge + activate + CAS) in CPU cycles.
    pub fn row_conflict_latency(&self) -> Cycle {
        self.precharge_latency() + self.row_closed_latency()
    }

    /// Precharge duration (tRP) in CPU cycles.
    pub fn precharge_latency(&self) -> Cycle {
        self.scale_bus_cycles(self.timing.t_rp)
    }

    /// Minimum activate → precharge spacing (tRAS) in CPU cycles.
    pub fn bank_busy_after_activate(&self) -> Cycle {
        self.scale_bus_cycles(self.timing.t_ras)
    }

    /// Refresh interval (tREFI) in CPU cycles; 0 = refresh disabled. Not
    /// subject to `latency_scale` (Figure 8b scales access latency, not the
    /// retention requirement).
    pub fn refresh_interval_cycles(&self) -> Cycle {
        self.cpu_clock
            .convert_cycles_from(self.timing.t_refi, self.bus_clock)
    }

    /// Refresh duration (tRFC) in CPU cycles.
    pub fn refresh_duration_cycles(&self) -> Cycle {
        self.cpu_clock
            .convert_cycles_from(self.timing.t_rfc, self.bus_clock)
    }

    fn scale_bus_cycles(&self, bus_cycles: u64) -> Cycle {
        let cpu = self
            .cpu_clock
            .convert_cycles_from(bus_cycles, self.bus_clock) as f64;
        (cpu * self.latency_scale).round().max(1.0) as Cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bandwidths_match_table2() {
        let off = DramConfig::off_package_default();
        let inp = DramConfig::in_package_default();
        // Paper: 21 GB/s off-package, 85 GB/s in-package.
        assert!(
            (off.peak_bandwidth_gbps() - 21.3).abs() < 0.5,
            "{}",
            off.peak_bandwidth_gbps()
        );
        assert!(
            (inp.peak_bandwidth_gbps() - 85.3).abs() < 2.0,
            "{}",
            inp.peak_bandwidth_gbps()
        );
    }

    #[test]
    fn min_transfer_rounding() {
        let c = DramConfig::in_package_default();
        assert_eq!(c.round_to_min_transfer(0), 0);
        assert_eq!(c.round_to_min_transfer(1), 32);
        assert_eq!(c.round_to_min_transfer(32), 32);
        assert_eq!(c.round_to_min_transfer(64), 64);
        assert_eq!(c.round_to_min_transfer(72), 96);
        // 64B line + tag = 96B, the paper's headline overhead example.
        assert_eq!(c.round_to_min_transfer(64 + 8), 96);
    }

    #[test]
    fn transfer_cycles_scale_with_bytes() {
        let c = DramConfig::off_package_default();
        let t64 = c.transfer_cycles(64);
        let t4096 = c.transfer_cycles(4096);
        assert!(t64 >= 1);
        assert!(
            t4096 > t64 * 32,
            "page transfer should dominate: {t64} vs {t4096}"
        );
    }

    /// Pin the exact bus-occupancy numbers of the default link (16 B bus,
    /// DDR, 667 MHz → 2.7 GHz conversion): the bus-clock count is exact at
    /// the 32 B granule, only the clock-domain conversion rounds.
    #[test]
    fn transfer_cycles_exact_at_min_granule() {
        let c = DramConfig::in_package_default();
        // 32 B = 1 bus clock = 4.048 CPU cycles → 4.
        assert_eq!(c.transfer_cycles(32), 4);
        // 64 B = 2 bus clocks = 8.096 → 8.
        assert_eq!(c.transfer_cycles(64), 8);
        // 96 B = 3 bus clocks = 12.14 → 12 (the 64 B + tag unit).
        assert_eq!(c.transfer_cycles(96), 12);
        // 4 KiB = 128 bus clocks = 518.14 → 518.
        assert_eq!(c.transfer_cycles(4096), 518);
        // Sub-granule payloads are rounded up to the granule first.
        assert_eq!(c.transfer_cycles(1), c.transfer_cycles(32));
        assert_eq!(c.transfer_cycles(65), c.transfer_cycles(96));
    }

    #[test]
    fn latency_ordering_hit_lt_closed_lt_conflict() {
        let c = DramConfig::in_package_default();
        assert!(c.row_hit_latency() < c.row_closed_latency());
        assert!(c.row_closed_latency() < c.row_conflict_latency());
    }

    /// Pin the paper's 10-10-10-24 timing in CPU cycles at 2.7 GHz / 667 MHz.
    #[test]
    fn paper_latencies_in_cpu_cycles() {
        let c = DramConfig::in_package_default();
        assert_eq!(c.row_hit_latency(), 40); // tCAS = 10 bus = 40.48
        assert_eq!(c.row_closed_latency(), 81); // tRCD+tCAS = 20 bus = 80.96
        assert_eq!(c.precharge_latency(), 40); // tRP = 10 bus
        assert_eq!(c.row_conflict_latency(), 121); // tRP + (tRCD+tCAS)
        assert_eq!(c.bank_busy_after_activate(), 97); // tRAS = 24 bus = 97.2
        assert_eq!(c.refresh_interval_cycles(), 21_049); // 5200 bus
        assert_eq!(c.refresh_duration_cycles(), 433); // 107 bus
    }

    #[test]
    fn latency_scale_reduces_latency() {
        let mut c = DramConfig::in_package_default();
        let base = c.row_conflict_latency();
        c.latency_scale = 0.5;
        let scaled = c.row_conflict_latency();
        assert!(scaled < base);
        assert!(scaled >= base / 2 - 2);
        // Refresh timing is not sensitive to the Figure 8b latency knob.
        assert_eq!(
            c.refresh_interval_cycles(),
            DramConfig::in_package_default().refresh_interval_cycles()
        );
    }

    #[test]
    fn timing_default_is_paper_default() {
        assert_eq!(DramTiming::default(), DramTiming::paper_default());
        let t = DramTiming::default();
        assert_eq!((t.t_cas, t.t_rcd, t.t_rp, t.t_ras), (10, 10, 10, 24));
        assert_eq!((t.t_refi, t.t_rfc), (5200, 107));
        assert_eq!(DramTiming::no_refresh().t_refi, 0);
        assert_eq!(DramTiming::no_refresh().t_cas, 10);
    }

    #[test]
    fn watermarks_fit_the_queue() {
        for c in [
            DramConfig::in_package_default(),
            DramConfig::off_package_default(),
        ] {
            assert!(c.write_low_watermark < c.write_high_watermark);
            assert!(c.write_high_watermark <= c.write_queue_depth);
            assert!(c.read_queue_depth >= 1);
        }
    }
}
