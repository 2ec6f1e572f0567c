//! A multi-channel DRAM device and the in-/off-package pair.

use crate::channel::{Channel, ChannelAccess};
use crate::config::DramConfig;
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::telemetry::DramTelemetry;
use banshee_common::{Addr, Cycle, DramKind, FastDivMod, TrafficClass, TrafficStats, PAGE_SIZE};

/// Result of an access at the device level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Cycle the access started being serviced.
    pub start: Cycle,
    /// Cycle the data finished transferring (posted writes: the posting
    /// cycle).
    pub finish: Cycle,
    /// Which channel serviced it.
    pub channel: usize,
}

impl AccessOutcome {
    /// Service latency (queueing + access + transfer).
    pub fn latency(&self, issued_at: Cycle) -> Cycle {
        self.finish.saturating_sub(issued_at)
    }
}

/// A DRAM device made of identical channels, with traffic accounting at two
/// levels:
///
/// * **logical** ([`DramDevice::traffic`]) — bytes recorded per
///   (class) at the moment an operation is issued; this is what simulation
///   results report.
/// * **device-level** ([`DramDevice::transferred_traffic`] /
///   [`DramDevice::pending_write_traffic`]) — bytes the channels actually
///   moved across their buses, plus what still sits in write queues.
///
/// The conservation invariant `logical == transferred + pending + untimed`
/// holds per class at all times and is what the cross-design
/// traffic-conservation test checks end to end.
#[derive(Debug, Clone)]
pub struct DramDevice {
    kind: DramKind,
    config: DramConfig,
    channels: Vec<Channel>,
    channel_div: FastDivMod,
    traffic: TrafficStats,
    untimed: TrafficStats,
    access_count: u64,
    total_latency: u64,
}

impl DramDevice {
    /// Build a device of the given kind from its configuration.
    pub fn new(kind: DramKind, config: DramConfig) -> Self {
        assert!(config.channels > 0, "device needs at least one channel");
        let channels = (0..config.channels)
            .map(|_| Channel::new(&config))
            .collect();
        DramDevice {
            kind,
            channels,
            channel_div: FastDivMod::new(config.channels as u64),
            traffic: TrafficStats::new(),
            untimed: TrafficStats::new(),
            access_count: 0,
            total_latency: 0,
            config,
        }
    }

    /// Which DRAM this device models.
    pub fn kind(&self) -> DramKind {
        self.kind
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Accumulated traffic by class, recorded when operations are issued
    /// (posted writes count immediately).
    pub fn traffic(&self) -> &TrafficStats {
        &self.traffic
    }

    /// Traffic recorded without a timed device access (see
    /// [`DramDevice::record_untimed_traffic`]). Also included in
    /// [`DramDevice::traffic`].
    pub fn untimed_traffic(&self) -> &TrafficStats {
        &self.untimed
    }

    /// Bytes the channels actually transferred across their data buses,
    /// by class.
    pub fn transferred_traffic(&self) -> TrafficStats {
        let mut t = TrafficStats::new();
        for ch in &self.channels {
            for class in TrafficClass::ALL {
                t.add(self.kind, class, ch.transferred_by_class()[class.index()]);
            }
        }
        t
    }

    /// Bytes posted into write queues and not yet drained, by class.
    pub fn pending_write_traffic(&self) -> TrafficStats {
        let mut t = TrafficStats::new();
        for ch in &self.channels {
            for class in TrafficClass::ALL {
                t.add(self.kind, class, ch.queued_by_class()[class.index()]);
            }
        }
        t
    }

    /// Total number of accesses issued to the device (posted writes count
    /// when issued).
    pub fn access_count(&self) -> u64 {
        self.access_count
    }

    /// Mean service latency (cycles) over all accesses. Posted writes are
    /// acknowledged instantly, so only timed (read / unbuffered) accesses
    /// contribute latency.
    pub fn mean_latency(&self) -> f64 {
        if self.access_count == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.access_count as f64
        }
    }

    /// All-bank refreshes performed across the device's channels.
    pub fn refresh_count(&self) -> u64 {
        self.channels.iter().map(|c| c.refresh_count()).sum()
    }

    /// Write-drain bursts across the device's channels.
    pub fn write_drain_count(&self) -> u64 {
        self.channels.iter().map(|c| c.write_drain_count()).sum()
    }

    /// Channel index for an address. Channels are interleaved at page (4 KiB)
    /// granularity, matching the paper's static page-granularity mapping of
    /// physical addresses to memory controllers.
    pub fn channel_for(&self, addr: Addr) -> usize {
        self.channel_div.rem(addr.raw() / PAGE_SIZE) as usize
    }

    /// Perform an access of `bytes` at `addr`, issued at cycle `now`,
    /// attributed to traffic class `class`. Writes (`write == true`) are
    /// posted into the channel's write queue when one is configured.
    pub fn access(
        &mut self,
        now: Cycle,
        addr: Addr,
        bytes: u64,
        class: TrafficClass,
        write: bool,
    ) -> AccessOutcome {
        let rounded = self.config.round_to_min_transfer(bytes);
        self.traffic.add(self.kind, class, rounded);
        let ch_idx = self.channel_for(addr);
        let ChannelAccess { start, finish, .. } = if write {
            self.channels[ch_idx].write(now, addr, bytes, class)
        } else {
            self.channels[ch_idx].read(now, addr, bytes, class)
        };
        self.access_count += 1;
        self.total_latency += finish.saturating_sub(now);
        AccessOutcome {
            start,
            finish,
            channel: ch_idx,
        }
    }

    /// Record traffic without modelling timing (used for idealized designs
    /// whose data movement happens "in the background" without occupying
    /// the modelled channels).
    pub fn record_untimed_traffic(&mut self, bytes: u64, class: TrafficClass) {
        let rounded = self.config.round_to_min_transfer(bytes);
        self.traffic.add(self.kind, class, rounded);
        self.untimed.add(self.kind, class, rounded);
    }

    /// Force every channel's write queue to drain (end-of-run accounting).
    pub fn drain_writes(&mut self, now: Cycle) {
        for ch in &mut self.channels {
            ch.drain_all_writes(now);
        }
    }

    /// Aggregate bus utilization across channels over `elapsed` cycles.
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        if self.channels.is_empty() || elapsed == 0 {
            return 0.0;
        }
        let sum: f64 = self.channels.iter().map(|c| c.utilization(elapsed)).sum();
        sum / self.channels.len() as f64
    }

    /// Gather the device's telemetry counters plus point-in-time queue
    /// occupancy at cycle `now`, for one time-series sample.
    pub fn telemetry(&self, now: Cycle) -> DramTelemetry {
        DramTelemetry {
            read_queue: self
                .channels
                .iter()
                .map(|c| c.read_queue_occupancy(now) as u64)
                .sum(),
            write_queue: self
                .channels
                .iter()
                .map(|c| c.pending_writes() as u64)
                .sum(),
            accesses: self.channels.iter().map(|c| c.access_count()).sum(),
            row_hits: self.channels.iter().map(|c| c.row_hit_count()).sum(),
            refreshes: self.refresh_count(),
            write_drains: self.write_drain_count(),
        }
    }

    /// Row-buffer hit rate across channels.
    pub fn row_hit_rate(&self) -> f64 {
        let hits: u64 = self.channels.iter().map(|c| c.row_hit_count()).sum();
        let total: u64 = self.channels.iter().map(|c| c.access_count()).sum();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Serialize the device's mutable state: every channel plus the
    /// device-level traffic and latency accounting. Kind and configuration
    /// are not written — the restoring device is built cold from the same
    /// configuration.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.usize(self.channels.len());
        for ch in &self.channels {
            ch.save_state(w);
        }
        self.traffic.save(w);
        self.untimed.save(w);
        w.u64(self.access_count);
        w.u64(self.total_latency);
    }

    /// Restore state saved by [`DramDevice::save_state`] into a device built
    /// from the same configuration.
    pub fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let channels = r.usize()?;
        if channels != self.channels.len() {
            return Err(SnapshotError::Corrupt(format!(
                "device image has {channels} channels, configuration has {}",
                self.channels.len()
            )));
        }
        for ch in &mut self.channels {
            ch.load_state(r)?;
        }
        self.traffic = TrafficStats::restore(r)?;
        self.untimed = TrafficStats::restore(r)?;
        self.access_count = r.u64()?;
        self.total_latency = r.u64()?;
        Ok(())
    }
}

/// The pair of DRAM devices every DRAM-cache design operates on.
#[derive(Debug, Clone)]
pub struct DualDram {
    /// The in-package (HBM-like) DRAM used as a cache.
    pub in_package: DramDevice,
    /// The off-package (DDR) backing DRAM.
    pub off_package: DramDevice,
}

impl DualDram {
    /// Build the paper's default configuration (Table 2).
    pub fn paper_default() -> Self {
        DualDram {
            in_package: DramDevice::new(DramKind::InPackage, DramConfig::in_package_default()),
            off_package: DramDevice::new(DramKind::OffPackage, DramConfig::off_package_default()),
        }
    }

    /// Build from explicit configurations.
    pub fn new(in_package: DramConfig, off_package: DramConfig) -> Self {
        DualDram {
            in_package: DramDevice::new(DramKind::InPackage, in_package),
            off_package: DramDevice::new(DramKind::OffPackage, off_package),
        }
    }

    /// Access the device of the given kind.
    pub fn device_mut(&mut self, kind: DramKind) -> &mut DramDevice {
        match kind {
            DramKind::InPackage => &mut self.in_package,
            DramKind::OffPackage => &mut self.off_package,
        }
    }

    /// Borrow the device of the given kind.
    pub fn device(&self, kind: DramKind) -> &DramDevice {
        match kind {
            DramKind::InPackage => &self.in_package,
            DramKind::OffPackage => &self.off_package,
        }
    }

    /// Combined traffic stats (merged copy).
    pub fn combined_traffic(&self) -> TrafficStats {
        let mut t = self.in_package.traffic().clone();
        t.merge(self.off_package.traffic());
        t
    }

    /// Serialize both devices' mutable state.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        self.in_package.save_state(w);
        self.off_package.save_state(w);
    }

    /// Restore state saved by [`DualDram::save_state`] into a pair built
    /// from the same configurations.
    pub fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.in_package.load_state(r)?;
        self.off_package.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_is_rounded_and_attributed() {
        let mut dev = DramDevice::new(DramKind::InPackage, DramConfig::in_package_default());
        dev.access(0, Addr::new(0), 64 + 8, TrafficClass::Tag, false);
        assert_eq!(
            dev.traffic().bytes(DramKind::InPackage, TrafficClass::Tag),
            96
        );
        assert_eq!(dev.access_count(), 1);
    }

    #[test]
    fn channel_interleaving_spreads_pages() {
        let dev = DramDevice::new(DramKind::InPackage, DramConfig::in_package_default());
        let c0 = dev.channel_for(Addr::new(0));
        let c1 = dev.channel_for(Addr::new(PAGE_SIZE));
        let c2 = dev.channel_for(Addr::new(2 * PAGE_SIZE));
        let c4 = dev.channel_for(Addr::new(4 * PAGE_SIZE));
        assert_ne!(c0, c1);
        assert_ne!(c1, c2);
        assert_eq!(c0, c4, "4 channels should wrap around");
        // Lines within one page stay on one channel.
        assert_eq!(dev.channel_for(Addr::new(64)), c0);
        assert_eq!(dev.channel_for(Addr::new(4032)), c0);
    }

    #[test]
    fn more_channels_give_more_bandwidth() {
        // Issue a burst of page-sized reads and compare finish times between
        // a 1-channel and a 4-channel device.
        let off = DramConfig::off_package_default();
        let inp = DramConfig::in_package_default();
        let mut one = DramDevice::new(DramKind::OffPackage, off);
        let mut four = DramDevice::new(DramKind::InPackage, inp);
        let mut one_finish = 0;
        let mut four_finish = 0;
        for i in 0..64u64 {
            let addr = Addr::new(i * PAGE_SIZE);
            one_finish = one
                .access(0, addr, 4096, TrafficClass::HitData, false)
                .finish;
            four_finish = four
                .access(0, addr, 4096, TrafficClass::HitData, false)
                .finish;
        }
        assert!(
            one_finish > 3 * four_finish,
            "1-channel {one_finish} vs 4-channel {four_finish}"
        );
    }

    #[test]
    fn mean_latency_grows_under_load() {
        let cfg = DramConfig::off_package_default();
        let mut idle = DramDevice::new(DramKind::OffPackage, cfg.clone());
        let mut loaded = DramDevice::new(DramKind::OffPackage, cfg);
        // Idle: accesses spaced far apart. Loaded: all at once.
        for i in 0..32u64 {
            idle.access(
                i * 10_000,
                Addr::new(i * PAGE_SIZE),
                64,
                TrafficClass::HitData,
                false,
            );
            loaded.access(
                0,
                Addr::new(i * PAGE_SIZE),
                64,
                TrafficClass::HitData,
                false,
            );
        }
        assert!(loaded.mean_latency() > idle.mean_latency());
    }

    #[test]
    fn telemetry_gauges_track_queues_and_counters() {
        let mut dev = DramDevice::new(DramKind::InPackage, DramConfig::in_package_default());
        let mut last_finish = 0;
        for i in 0..8u64 {
            last_finish = dev
                .access(
                    0,
                    Addr::new(i * PAGE_SIZE),
                    64,
                    TrafficClass::HitData,
                    false,
                )
                .finish
                .max(last_finish);
        }
        let busy = dev.telemetry(0);
        assert!(busy.read_queue > 0, "reads in flight at issue time");
        assert_eq!(busy.accesses, dev.access_count());
        assert_eq!(busy.refreshes, dev.refresh_count());
        assert_eq!(busy.write_drains, dev.write_drain_count());
        let idle = dev.telemetry(last_finish + 1);
        assert_eq!(idle.read_queue, 0, "all reads finished");
        assert_eq!(idle.accesses, busy.accesses);
    }

    #[test]
    fn untimed_traffic_counts_bytes_but_not_accesses() {
        let mut dev = DramDevice::new(DramKind::OffPackage, DramConfig::off_package_default());
        dev.record_untimed_traffic(4096, TrafficClass::Replacement);
        assert_eq!(
            dev.traffic()
                .bytes(DramKind::OffPackage, TrafficClass::Replacement),
            4096
        );
        assert_eq!(
            dev.untimed_traffic()
                .bytes(DramKind::OffPackage, TrafficClass::Replacement),
            4096
        );
        assert_eq!(dev.access_count(), 0);
    }

    /// The device-level conservation invariant: every logical byte is either
    /// transferred on a bus, still queued, or explicitly untimed.
    #[test]
    fn logical_traffic_reconciles_with_device_counters() {
        let mut dev = DramDevice::new(DramKind::InPackage, DramConfig::in_package_default());
        for i in 0..500u64 {
            let addr = Addr::new((i * 1237) % (1 << 24));
            if i % 3 == 0 {
                dev.access(i * 10, addr, 64, TrafficClass::Writeback, true);
            } else if i % 7 == 0 {
                dev.access(i * 10, addr, 4096, TrafficClass::Replacement, true);
            } else {
                dev.access(i * 10, addr, 64, TrafficClass::HitData, false);
            }
        }
        dev.record_untimed_traffic(100, TrafficClass::Counter);
        let transferred = dev.transferred_traffic();
        let pending = dev.pending_write_traffic();
        for class in TrafficClass::ALL {
            let logical = dev.traffic().bytes(DramKind::InPackage, class);
            let accounted = transferred.bytes(DramKind::InPackage, class)
                + pending.bytes(DramKind::InPackage, class)
                + dev.untimed_traffic().bytes(DramKind::InPackage, class);
            assert_eq!(logical, accounted, "class {class} leaked bytes");
        }
        // Draining moves everything to `transferred`.
        dev.drain_writes(1_000_000);
        assert_eq!(dev.pending_write_traffic().grand_total(), 0);
        assert_eq!(
            dev.transferred_traffic().grand_total() + dev.untimed_traffic().grand_total(),
            dev.traffic().grand_total()
        );
    }

    #[test]
    fn posted_writes_do_not_stall_the_issuer() {
        let mut dev = DramDevice::new(DramKind::InPackage, DramConfig::in_package_default());
        let w = dev.access(42, Addr::new(0), 64, TrafficClass::Writeback, true);
        assert_eq!(w.finish, 42, "posted write acknowledged instantly");
        let r = dev.access(42, Addr::new(64), 64, TrafficClass::HitData, false);
        assert!(r.finish > 42);
    }

    #[test]
    fn dual_dram_combined_traffic() {
        let mut d = DualDram::paper_default();
        d.in_package
            .access(0, Addr::new(0), 64, TrafficClass::HitData, false);
        d.off_package
            .access(0, Addr::new(0), 64, TrafficClass::MissData, false);
        let t = d.combined_traffic();
        assert_eq!(t.bytes(DramKind::InPackage, TrafficClass::HitData), 64);
        assert_eq!(t.bytes(DramKind::OffPackage, TrafficClass::MissData), 64);
        assert_eq!(t.grand_total(), 128);
    }

    /// A warmed device, snapshotted and restored into a cold-built twin,
    /// must behave identically on subsequent traffic — including queued
    /// writes, open rows and refresh phase.
    #[test]
    fn save_restore_round_trip_is_behavior_identical() {
        use banshee_common::persist::{SnapshotReader, SnapshotWriter};
        let mk = || DramDevice::new(DramKind::InPackage, DramConfig::in_package_default());
        let mut warm = mk();
        for i in 0..300u64 {
            let addr = Addr::new((i * 7919) % (1 << 22));
            warm.access(i * 13, addr, 64, TrafficClass::HitData, i % 4 == 0);
        }
        let mut w = SnapshotWriter::new();
        warm.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = mk();
        let mut r = SnapshotReader::new(&bytes);
        restored.load_state(&mut r).expect("restore");
        assert!(r.is_exhausted());

        // Same traffic after the snapshot point → same timing and counters.
        for i in 300..400u64 {
            let addr = Addr::new((i * 104_729) % (1 << 22));
            let a = warm.access(i * 17, addr, 64, TrafficClass::MissData, i % 3 == 0);
            let b = restored.access(i * 17, addr, 64, TrafficClass::MissData, i % 3 == 0);
            assert_eq!(a, b, "divergence at access {i}");
        }
        warm.drain_writes(1_000_000);
        restored.drain_writes(1_000_000);
        assert_eq!(warm.traffic(), restored.traffic());
        assert_eq!(warm.refresh_count(), restored.refresh_count());
        assert_eq!(warm.write_drain_count(), restored.write_drain_count());
        assert_eq!(warm.mean_latency(), restored.mean_latency());

        // save → restore → save is byte-identical.
        let mut again = SnapshotWriter::new();
        let mut second = mk();
        let mut r2 = SnapshotReader::new(&bytes);
        second.load_state(&mut r2).expect("restore twice");
        second.save_state(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    /// Restoring into a device with different geometry must fail with a
    /// typed error, not panic or silently mis-restore.
    #[test]
    fn restore_rejects_mismatched_geometry() {
        use banshee_common::persist::{SnapshotReader, SnapshotWriter};
        let warm = DramDevice::new(DramKind::InPackage, DramConfig::in_package_default());
        let mut w = SnapshotWriter::new();
        warm.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut other_cfg = DramConfig::in_package_default();
        other_cfg.channels += 1;
        let mut other = DramDevice::new(DramKind::InPackage, other_cfg);
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(
            other.load_state(&mut r),
            Err(banshee_common::SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn row_hit_rate_reflects_streaming() {
        let mut dev = DramDevice::new(DramKind::InPackage, DramConfig::in_package_default());
        // Stream 64 consecutive lines of one page: should be mostly row hits.
        for i in 0..64u64 {
            dev.access(i, Addr::new(i * 64), 64, TrafficClass::HitData, false);
        }
        assert!(
            dev.row_hit_rate() > 0.9,
            "row hit rate {}",
            dev.row_hit_rate()
        );
    }
}
