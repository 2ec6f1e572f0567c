//! A single DRAM channel: banks with row-buffer state, a shared data bus,
//! and a request-queue memory controller in front of them.
//!
//! The controller model per channel:
//!
//! * **Reads** (demand fetches, fills being read out, tag probes) are
//!   serviced on arrival, but respect three resources: the target bank's
//!   command timing (row hit / closed / conflict, tRAS/tRP debts), a
//!   **bounded per-bank queue** (at most `read_queue_depth` unfinished
//!   requests per bank — excess arrivals wait for a slot), and the shared
//!   data bus. Row hits pipeline at the bus rate; activates serialize on
//!   the bank.
//! * **Writes** are posted into a per-channel **write queue** and
//!   acknowledged immediately. When occupancy reaches the high watermark
//!   the controller drains down to the low watermark, picking row-buffer
//!   hits first under [`SchedulerKind::FrFcfs`] (oldest-first under
//!   [`SchedulerKind::Fcfs`]); each drained write occupies its bank and the
//!   bus like any access. With `write_queue_depth == 0` writes are serviced
//!   immediately (the pre-queue model).
//! * **Refresh**: every tREFI the whole channel performs an all-bank
//!   refresh — open rows are closed and every bank is blocked for tRFC.
//!
//! This is still not a full DDR protocol model (no command bus, no
//! tFAW/tWTR), but it now captures the three effects the paper's evaluation
//! depends on: *queueing under bandwidth pressure*, *row-buffer locality*
//! (sequential page fills are cheaper per byte than scattered line
//! accesses), and *write interference* (drain bursts delaying demand reads).
//!
//! All state is allocated at construction (queue and per-bank rings are
//! fixed-capacity); no access allocates. An op's bus occupancy comes from a
//! per-granule table built once from [`DramConfig::transfer_cycles`]. The
//! write queue is kept in `seq` (arrival) order — writes are appended,
//! drained ones are removed in place, and a restored queue is sorted by
//! `seq` — so FR-FCFS's oldest row hit is the first queued write whose row
//! is open, and the oldest write overall is the head.

use crate::config::{DramConfig, PagePolicy, SchedulerKind};
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::{Addr, Cycle, FastDivMod, TrafficClass, PAGE_SIZE};

/// What the row buffer did for an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBufferOutcome {
    /// The addressed row was already open.
    Hit,
    /// The bank had no open row (first access, after refresh, or always
    /// under the closed page policy).
    Closed,
    /// A different row was open and had to be precharged first.
    Conflict,
    /// A write was posted into the write queue; its row outcome is decided
    /// when the queue drains.
    Buffered,
}

/// Per-bank state: which row is open, command availability, and the bounded
/// queue of unfinished requests.
#[derive(Debug, Clone)]
pub struct Bank {
    open_row: Option<u64>,
    /// Earliest cycle the bank can accept its next command.
    busy_until: Cycle,
    /// Earliest cycle the open row's precharge may *begin* (activate time
    /// plus tRAS).
    ras_until: Cycle,
    /// Ring of the last `read_queue_depth` finish times; the slot at
    /// `ring_idx` is the finish time of the request `depth` requests ago,
    /// which a new request must wait for (bounded-queue backpressure).
    ring: Box<[Cycle]>,
    ring_idx: u32,
}

impl Bank {
    fn new(queue_depth: usize) -> Self {
        Bank {
            open_row: None,
            busy_until: 0,
            ras_until: 0,
            ring: vec![0; queue_depth.max(1)].into_boxed_slice(),
            ring_idx: 0,
        }
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// The cycle until which the bank is busy with its current access.
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }
}

/// Result of scheduling one access on a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelAccess {
    /// Cycle at which the access started being serviced (after queueing).
    pub start: Cycle,
    /// Cycle at which the requested data has fully crossed the bus (for
    /// buffered writes: the posting cycle — the transfer happens at drain).
    pub finish: Cycle,
    /// Row-buffer behaviour of this access.
    pub row_outcome: RowBufferOutcome,
    /// Bytes the access moves, rounded up to the link's minimum transfer
    /// granule.
    pub bytes: u64,
}

/// One pending entry of the write queue.
#[derive(Debug, Clone, Copy)]
struct WriteEntry {
    bank: u32,
    row: u64,
    /// Payload rounded to the link's minimum transfer granule.
    bytes: u64,
    class: TrafficClass,
    enqueued: Cycle,
    seq: u64,
}

/// Command timing pre-converted to CPU cycles (latency scale applied).
#[derive(Debug, Clone, Copy)]
struct TimingCpu {
    hit: Cycle,
    closed: Cycle,
    t_rp: Cycle,
    t_ras: Cycle,
    t_refi: Cycle,
    t_rfc: Cycle,
}

/// One DRAM channel with its memory-controller front end.
#[derive(Debug, Clone)]
pub struct Channel {
    config: DramConfig,
    timing: TimingCpu,
    /// `transfer[g]` is `config.transfer_cycles(g × min_transfer_bytes)`:
    /// the bus cycles of a `g`-granule transfer, for every size up to one
    /// page. Larger transfers fall back to the same formula.
    transfer: Box<[Cycle]>,
    granule_div: FastDivMod,
    banks: Vec<Bank>,
    row_div: FastDivMod,
    bank_div: FastDivMod,
    bus_free: Cycle,
    /// Posted writes in `seq` order (oldest first).
    write_queue: Vec<WriteEntry>,
    next_refresh: Cycle,
    write_seq: u64,
    // Counters.
    busy_cycles: u64,
    accesses: u64,
    row_hits: u64,
    row_conflicts: u64,
    refreshes: u64,
    write_drains: u64,
    /// Bytes actually moved across the data bus, per traffic class (rounded
    /// to the minimum transfer granule). Writes count at drain time.
    transferred: [u64; TrafficClass::ALL.len()],
    /// Bytes posted into the write queue and not yet drained, per class.
    queued: [u64; TrafficClass::ALL.len()],
}

impl Channel {
    /// Create a channel from a device configuration.
    pub fn new(cfg: &DramConfig) -> Self {
        assert!(
            cfg.banks_per_channel > 0,
            "a channel needs at least one bank"
        );
        assert!(
            cfg.write_queue_depth == 0 || cfg.write_low_watermark < cfg.write_high_watermark,
            "write watermarks must satisfy low < high"
        );
        assert!(
            cfg.write_queue_depth == 0 || cfg.write_high_watermark <= cfg.write_queue_depth,
            "write high watermark must fit in the queue"
        );
        let timing = TimingCpu {
            hit: cfg.row_hit_latency(),
            closed: cfg.row_closed_latency(),
            t_rp: cfg.precharge_latency(),
            t_ras: cfg.bank_busy_after_activate(),
            t_refi: cfg.refresh_interval_cycles(),
            t_rfc: cfg.refresh_duration_cycles(),
        };
        let granule = cfg.min_transfer_bytes;
        Channel {
            timing,
            transfer: (0..=PAGE_SIZE.div_ceil(granule))
                .map(|g| cfg.transfer_cycles(g * granule))
                .collect(),
            granule_div: FastDivMod::new(granule),
            banks: (0..cfg.banks_per_channel)
                .map(|_| Bank::new(cfg.read_queue_depth))
                .collect(),
            row_div: FastDivMod::new(cfg.row_buffer_bytes),
            bank_div: FastDivMod::new(cfg.banks_per_channel as u64),
            bus_free: 0,
            write_queue: Vec::with_capacity(cfg.write_queue_depth),
            next_refresh: timing.t_refi,
            write_seq: 0,
            busy_cycles: 0,
            accesses: 0,
            row_hits: 0,
            row_conflicts: 0,
            refreshes: 0,
            write_drains: 0,
            transferred: [0; TrafficClass::ALL.len()],
            queued: [0; TrafficClass::ALL.len()],
            config: cfg.clone(),
        }
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Total cycles the data bus has been occupied.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Number of accesses serviced on the banks/bus (buffered writes count
    /// when they drain).
    pub fn access_count(&self) -> u64 {
        self.accesses
    }

    /// Row-buffer hit count.
    pub fn row_hit_count(&self) -> u64 {
        self.row_hits
    }

    /// Row-buffer conflict count.
    pub fn row_conflict_count(&self) -> u64 {
        self.row_conflicts
    }

    /// Number of all-bank refreshes performed.
    pub fn refresh_count(&self) -> u64 {
        self.refreshes
    }

    /// Number of drain bursts (watermark or forced).
    pub fn write_drain_count(&self) -> u64 {
        self.write_drains
    }

    /// Writes currently sitting in the write queue.
    pub fn pending_writes(&self) -> usize {
        self.write_queue.len()
    }

    /// Reads still in flight at cycle `now`, summed over banks. Each bank's
    /// ring holds the finish times of its last `queue_depth` requests, so an
    /// entry strictly after `now` is a request still occupying a queue slot
    /// — exactly the occupancy the bounded-read-queue admission test uses.
    pub fn read_queue_occupancy(&self, now: Cycle) -> usize {
        self.banks
            .iter()
            .map(|b| b.ring.iter().filter(|&&finish| finish > now).count())
            .sum()
    }

    /// Earliest cycle at which the data bus is free.
    pub fn bus_free_at(&self) -> Cycle {
        self.bus_free
    }

    /// Bytes actually transferred on the bus, per traffic class index
    /// (see [`TrafficClass::index`]).
    pub fn transferred_by_class(&self) -> &[u64; TrafficClass::ALL.len()] {
        &self.transferred
    }

    /// Bytes posted to the write queue but not yet drained, per class index.
    pub fn queued_by_class(&self) -> &[u64; TrafficClass::ALL.len()] {
        &self.queued
    }

    #[inline]
    fn decode(&self, addr: Addr) -> (usize, u64) {
        // Interleave banks at row-buffer granularity so a page fill streams
        // within one row.
        let row_id = self.row_div.div(addr.raw());
        (
            self.bank_div.rem(row_id) as usize,
            self.bank_div.div(row_id),
        )
    }

    /// Round `bytes` up to the minimum transfer granule and return the
    /// rounded size with its bus occupancy in CPU cycles.
    #[inline]
    fn sized(&self, bytes: u64) -> (u64, Cycle) {
        let granules = self.granule_div.div(bytes) + u64::from(self.granule_div.rem(bytes) != 0);
        let rounded = granules * self.granule_div.n();
        let transfer = match self.transfer.get(granules as usize) {
            Some(&cycles) => cycles,
            None => self.config.transfer_cycles(rounded),
        };
        (rounded, transfer)
    }

    /// Apply every all-bank refresh scheduled before `now`: close all rows
    /// and block every bank for tRFC.
    fn advance_refresh(&mut self, now: Cycle) {
        let t_refi = self.timing.t_refi;
        if t_refi == 0 || self.next_refresh > now {
            return;
        }
        // Fast-forward long idle gaps: only the refresh nearest `now` can
        // still affect bank availability, the earlier ones just count.
        let behind = now - self.next_refresh;
        if behind > t_refi {
            let skipped = behind / t_refi;
            self.refreshes += skipped;
            self.next_refresh += skipped * t_refi;
        }
        while self.next_refresh <= now {
            let end = self.next_refresh + self.timing.t_rfc;
            for bank in &mut self.banks {
                bank.open_row = None;
                bank.busy_until = bank.busy_until.max(end);
            }
            self.refreshes += 1;
            self.next_refresh += t_refi;
        }
    }

    /// Service one request of `bytes` (already rounded) taking `transfer`
    /// bus cycles on its bank and the bus, returning its timing.
    fn service(
        &mut self,
        now: Cycle,
        bank_idx: usize,
        row: u64,
        (bytes, transfer): (u64, Cycle),
        class: TrafficClass,
    ) -> ChannelAccess {
        let t = self.timing;
        let bank = &mut self.banks[bank_idx];

        // Bounded queue: wait for the request `depth` ago to finish, and for
        // the bank to accept a command.
        let slot_free = bank.ring[bank.ring_idx as usize];
        let start = now.max(bank.busy_until).max(slot_free);

        let closed_policy = self.config.page_policy == PagePolicy::Closed;
        let (outcome, activate_at, data_ready) = match bank.open_row {
            Some(open) if open == row && !closed_policy => {
                (RowBufferOutcome::Hit, None, start + t.hit)
            }
            Some(_) => {
                // Precharge may begin only once tRAS from the activate that
                // opened the row has elapsed; the new activate follows tRP
                // later, and data is ready tRCD + tCAS after that.
                let precharge_at = start.max(bank.ras_until);
                let activate = precharge_at + t.t_rp;
                (
                    RowBufferOutcome::Conflict,
                    Some(activate),
                    activate + t.closed,
                )
            }
            None => (RowBufferOutcome::Closed, Some(start), start + t.closed),
        };

        let bus_start = data_ready.max(self.bus_free);
        let finish = bus_start + transfer;

        // Bus accounting.
        self.bus_free = finish;
        self.busy_cycles += transfer;
        self.transferred[class.index()] += bytes;
        self.accesses += 1;
        match outcome {
            RowBufferOutcome::Hit => self.row_hits += 1,
            RowBufferOutcome::Conflict => self.row_conflicts += 1,
            _ => {}
        }

        // Bank bookkeeping.
        bank.ring[bank.ring_idx as usize] = finish;
        bank.ring_idx += 1;
        if bank.ring_idx as usize == bank.ring.len() {
            bank.ring_idx = 0;
        }
        if closed_policy {
            // Auto-precharge: the row closes, and the next activate must
            // respect tRAS + tRP from this one.
            bank.open_row = None;
            let activate = activate_at.unwrap_or(start);
            bank.busy_until = data_ready.max(activate + t.t_ras + t.t_rp);
        } else {
            bank.open_row = Some(row);
            match outcome {
                // Row hits pipeline: the next column command only needs the
                // bus spacing; the bus itself serializes the data.
                RowBufferOutcome::Hit => bank.busy_until = start + transfer,
                _ => {
                    let activate = activate_at.expect("activate set for non-hit");
                    bank.busy_until = data_ready;
                    bank.ras_until = activate + t.t_ras;
                }
            }
        }

        ChannelAccess {
            start,
            finish,
            row_outcome: outcome,
            bytes,
        }
    }

    /// Schedule a read of `bytes` at `addr`, arriving at `now`.
    pub fn read(
        &mut self,
        now: Cycle,
        addr: Addr,
        bytes: u64,
        class: TrafficClass,
    ) -> ChannelAccess {
        self.advance_refresh(now);
        let (bank, row) = self.decode(addr);
        let sized = self.sized(bytes);
        self.service(now, bank, row, sized, class)
    }

    /// Post a write of `bytes` at `addr` at `now`. With a write queue the
    /// write is acknowledged immediately and drained later; without one it
    /// is serviced like a read.
    pub fn write(
        &mut self,
        now: Cycle,
        addr: Addr,
        bytes: u64,
        class: TrafficClass,
    ) -> ChannelAccess {
        self.advance_refresh(now);
        let (bank, row) = self.decode(addr);
        let sized = self.sized(bytes);
        if self.config.write_queue_depth == 0 {
            return self.service(now, bank, row, sized, class);
        }
        if self.write_queue.len() == self.config.write_queue_depth {
            // Queue full (possible when the low watermark equals capacity
            // minus one burst): force a drain before accepting the write.
            self.drain_writes_to(now, self.config.write_low_watermark);
        }
        let rounded = sized.0;
        self.queued[class.index()] += rounded;
        self.write_queue.push(WriteEntry {
            bank: bank as u32,
            row,
            bytes: rounded,
            class,
            enqueued: now,
            seq: self.write_seq,
        });
        self.write_seq += 1;
        if self.write_queue.len() >= self.config.write_high_watermark {
            self.drain_writes_to(now, self.config.write_low_watermark);
        }
        ChannelAccess {
            start: now,
            finish: now,
            row_outcome: RowBufferOutcome::Buffered,
            bytes: rounded,
        }
    }

    /// Drain queued writes until at most `target` remain, picking row-buffer
    /// hits first under FR-FCFS (oldest first under FCFS).
    fn drain_writes_to(&mut self, now: Cycle, target: usize) {
        if self.write_queue.len() > target {
            self.write_drains += 1;
        }
        while self.write_queue.len() > target {
            // The queue is in `seq` order, so the first row hit is the
            // oldest one and the head is the oldest write overall.
            let pick = match self.config.scheduler {
                SchedulerKind::FrFcfs => self
                    .write_queue
                    .iter()
                    .position(|e| self.banks[e.bank as usize].open_row == Some(e.row))
                    .unwrap_or(0),
                SchedulerKind::Fcfs => 0,
            };
            let e = self.write_queue.remove(pick);
            self.queued[e.class.index()] -= e.bytes;
            let sized = self.sized(e.bytes);
            self.service(now.max(e.enqueued), e.bank as usize, e.row, sized, e.class);
        }
    }

    /// Force the write queue empty (end-of-run accounting, tests).
    pub fn drain_all_writes(&mut self, now: Cycle) {
        self.drain_writes_to(now, 0);
    }

    /// Bus utilization over `elapsed` cycles (clamped to [0, 1]).
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            (self.busy_cycles as f64 / elapsed as f64).min(1.0)
        }
    }

    /// Serialize the channel's mutable state (bank rows and timing debts,
    /// write queue, refresh phase, counters). Configuration and the derived
    /// dividers are not written — the restoring channel is built cold from
    /// the same [`DramConfig`].
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.seq_with(&self.banks, |w, bank| {
            match bank.open_row {
                Some(row) => {
                    w.bool(true);
                    w.u64(row);
                }
                None => w.bool(false),
            }
            w.u64(bank.busy_until);
            w.u64(bank.ras_until);
            w.seq_with(&bank.ring, |w, t| w.u64(*t));
            w.u32(bank.ring_idx);
        });
        w.u64(self.bus_free);
        // The write queue is in `seq` order; a restore re-sorts by `seq`, so
        // images whose queue is in another order drain the same way.
        w.seq_with(&self.write_queue, |w, e| {
            w.u32(e.bank);
            w.u64(e.row);
            w.u64(e.bytes);
            e.class.save(w);
            w.u64(e.enqueued);
            w.u64(e.seq);
        });
        w.u64(self.next_refresh);
        w.u64(self.write_seq);
        w.u64(self.busy_cycles);
        w.u64(self.accesses);
        w.u64(self.row_hits);
        w.u64(self.row_conflicts);
        w.u64(self.refreshes);
        w.u64(self.write_drains);
        for v in self.transferred.iter().chain(self.queued.iter()) {
            w.u64(*v);
        }
    }

    /// Restore mutable state saved by [`Channel::save_state`] into a channel
    /// built from the same configuration. Geometry mismatches and internally
    /// inconsistent images return [`SnapshotError::Corrupt`].
    pub fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let bank_count = r.seq_len(22)?;
        if bank_count != self.banks.len() {
            return Err(SnapshotError::Corrupt(format!(
                "channel image has {bank_count} banks, configuration has {}",
                self.banks.len()
            )));
        }
        for bank in &mut self.banks {
            bank.open_row = if r.bool()? { Some(r.u64()?) } else { None };
            bank.busy_until = r.u64()?;
            bank.ras_until = r.u64()?;
            let ring_len = r.seq_len(8)?;
            if ring_len != bank.ring.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "bank ring holds {ring_len} slots, configuration has {}",
                    bank.ring.len()
                )));
            }
            for slot in bank.ring.iter_mut() {
                *slot = r.u64()?;
            }
            let ring_idx = r.u32()?;
            if ring_idx as usize >= bank.ring.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "bank ring index {ring_idx} out of range"
                )));
            }
            bank.ring_idx = ring_idx;
        }
        self.bus_free = r.u64()?;
        let queued_writes = r.seq_len(34)?;
        if self.config.write_queue_depth == 0 && queued_writes > 0 {
            return Err(SnapshotError::Corrupt(
                "image has queued writes but the write queue is disabled".to_string(),
            ));
        }
        if queued_writes > self.config.write_queue_depth {
            return Err(SnapshotError::Corrupt(format!(
                "image has {queued_writes} queued writes, queue depth is {}",
                self.config.write_queue_depth
            )));
        }
        self.write_queue.clear();
        for _ in 0..queued_writes {
            let bank = r.u32()?;
            if bank as usize >= self.banks.len() {
                return Err(SnapshotError::Corrupt(format!(
                    "queued write targets bank {bank}, channel has {}",
                    self.banks.len()
                )));
            }
            self.write_queue.push(WriteEntry {
                bank,
                row: r.u64()?,
                bytes: r.u64()?,
                class: TrafficClass::restore(r)?,
                enqueued: r.u64()?,
                seq: r.u64()?,
            });
        }
        self.write_queue.sort_by_key(|e| e.seq);
        self.next_refresh = r.u64()?;
        self.write_seq = r.u64()?;
        self.busy_cycles = r.u64()?;
        self.accesses = r.u64()?;
        self.row_hits = r.u64()?;
        self.row_conflicts = r.u64()?;
        self.refreshes = r.u64()?;
        self.write_drains = r.u64()?;
        for v in self.transferred.iter_mut().chain(self.queued.iter_mut()) {
            *v = r.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[path = "channel_reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::ReferenceChannel;
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> DramConfig {
        DramConfig::in_package_default()
    }

    /// A config with refresh off and unbuffered writes: every access is
    /// serviced immediately, which the timing-pinning tests rely on.
    fn bare(banks: usize) -> DramConfig {
        DramConfig {
            banks_per_channel: banks,
            write_queue_depth: 0,
            write_high_watermark: 0,
            write_low_watermark: 0,
            timing: crate::DramTiming::no_refresh(),
            ..cfg()
        }
    }

    #[test]
    fn first_access_is_row_closed() {
        let mut ch = Channel::new(&bare(8));
        let a = ch.read(0, Addr::new(0x1000), 64, TrafficClass::HitData);
        assert_eq!(a.row_outcome, RowBufferOutcome::Closed);
        assert!(a.finish > a.start);
    }

    #[test]
    fn read_queue_occupancy_counts_in_flight_requests() {
        let mut ch = Channel::new(&bare(2));
        assert_eq!(ch.read_queue_occupancy(0), 0);
        let a = ch.read(0, Addr::new(0), 64, TrafficClass::HitData);
        let b = ch.read(0, Addr::new(64), 64, TrafficClass::HitData);
        // Both requests occupy slots until their finish times pass.
        assert_eq!(ch.read_queue_occupancy(0), 2);
        let first_done = a.finish.min(b.finish);
        let last_done = a.finish.max(b.finish);
        assert_eq!(ch.read_queue_occupancy(first_done), 1);
        assert_eq!(ch.read_queue_occupancy(last_done), 0);
    }

    #[test]
    fn same_row_hits_after_first_access() {
        let mut ch = Channel::new(&bare(8));
        let first = ch.read(0, Addr::new(0x0), 64, TrafficClass::HitData);
        let second = ch.read(first.finish, Addr::new(0x40), 64, TrafficClass::HitData);
        assert_eq!(second.row_outcome, RowBufferOutcome::Hit);
        // Row hit latency should be shorter than the closed access.
        assert!(second.finish - second.start <= first.finish - first.start);
    }

    /// Pin the exact closed / hit / conflict service times of the paper
    /// timing (tCAS 40, tRCD+tCAS 81, tRP 40, tRAS 97 CPU cycles; 64 B
    /// transfer 8 cycles).
    #[test]
    fn access_latencies_pinned() {
        let c = bare(2);
        let mut ch = Channel::new(&c);
        // Closed: activate at 0, data at 81, transfer 8 → finish 89.
        let closed = ch.read(0, Addr::new(0), 64, TrafficClass::HitData);
        assert_eq!((closed.start, closed.finish), (0, 89));
        // Hit on the open row, issued after the bus is free: data at
        // 1000 + 40, transfer 8 → 1048.
        let hit = ch.read(1000, Addr::new(64), 64, TrafficClass::HitData);
        assert_eq!(hit.row_outcome, RowBufferOutcome::Hit);
        assert_eq!((hit.start, hit.finish), (1000, 1048));
        // Conflict long after tRAS expired: precharge 40 + activate+CAS 81
        // + transfer 8 → 129 cycles of service time.
        let conflict_addr = Addr::new(2 * c.row_buffer_bytes);
        let conflict = ch.read(5000, conflict_addr, 64, TrafficClass::HitData);
        assert_eq!(conflict.row_outcome, RowBufferOutcome::Conflict);
        assert_eq!((conflict.start, conflict.finish), (5000, 5129));
    }

    /// Back-to-back conflicts to one bank: the second conflict's precharge
    /// must wait for the first activate's tRAS window, and the new tRAS debt
    /// is anchored at the *new activate* (tRP after the precharge), not at
    /// the request start.
    #[test]
    fn back_to_back_conflict_timing_respects_ras_and_rp() {
        let c = bare(1); // one bank: every row maps to it
        let row = c.row_buffer_bytes;
        let mut ch = Channel::new(&c);
        // Open row 0: activate at 0 → ras_until = 97.
        ch.read(0, Addr::new(0), 64, TrafficClass::HitData);
        // Conflict at t=10 (bank busy until data_ready=81): start 81, but
        // precharge may only begin at ras_until 97 → activate at 137, data
        // at 218, finish 226.
        let second = ch.read(10, Addr::new(row), 64, TrafficClass::HitData);
        assert_eq!(second.row_outcome, RowBufferOutcome::Conflict);
        assert_eq!(second.finish, 226);
        // Third conflict right away: start at data_ready 218; the second
        // activate happened at 137, so precharge waits until 137+97=234,
        // activate 274, data 355, finish 363. If tRAS were anchored at the
        // request start (the pre-fix bug), this would finish 40 cycles
        // earlier.
        let third = ch.read(220, Addr::new(2 * row), 64, TrafficClass::HitData);
        assert_eq!(third.row_outcome, RowBufferOutcome::Conflict);
        assert_eq!(third.finish, 363);
    }

    #[test]
    fn row_hits_stream_at_bus_rate() {
        let c = bare(8);
        let mut ch = Channel::new(&c);
        let mut finishes = Vec::new();
        finishes.push(ch.read(0, Addr::new(0), 64, TrafficClass::HitData));
        for i in 1..16u64 {
            let a = ch.read(0, Addr::new(i * 64), 64, TrafficClass::HitData);
            assert_eq!(a.row_outcome, RowBufferOutcome::Hit);
            finishes.push(a);
        }
        // After the one-time CAS ramp, consecutive hits transfer
        // back-to-back on the bus (8 CPU cycles per 64 B line).
        let step = c.transfer_cycles(64);
        for w in finishes.windows(2).skip(2) {
            assert_eq!(w[1].finish, w[0].finish + step);
        }
    }

    #[test]
    fn back_to_back_accesses_queue_on_the_bus() {
        let c = bare(8);
        let mut ch = Channel::new(&c);
        // Two accesses to different banks issued at the same time must
        // serialize on the data bus.
        let a = ch.read(0, Addr::new(0), 64, TrafficClass::HitData);
        let b = ch.read(0, Addr::new(c.row_buffer_bytes), 64, TrafficClass::HitData);
        assert!(b.finish >= a.finish + c.transfer_cycles(64));
    }

    #[test]
    fn bounded_bank_queue_backpressures() {
        let mut c = bare(1);
        c.read_queue_depth = 2;
        let mut ch = Channel::new(&c);
        // Saturate one bank with same-row hits from t=0. With a depth-2
        // queue, request i must wait for request i-2 to finish.
        let mut finishes = Vec::new();
        for i in 0..8u64 {
            let a = ch.read(0, Addr::new(i * 64), 64, TrafficClass::HitData);
            finishes.push(a);
        }
        for i in 2..8usize {
            assert!(
                finishes[i].start >= finishes[i - 2].finish,
                "request {i} started at {} before request {} finished at {}",
                finishes[i].start,
                i - 2,
                finishes[i - 2].finish
            );
        }
    }

    #[test]
    fn large_transfers_occupy_bus_longer() {
        let mut ch_small = Channel::new(&bare(8));
        let mut ch_big = Channel::new(&bare(8));
        let small = ch_small.read(0, Addr::new(0), 64, TrafficClass::HitData);
        let big = ch_big.read(0, Addr::new(0), 4096, TrafficClass::HitData);
        assert!(big.finish - big.start > small.finish - small.start);
        assert!(ch_big.busy_cycles() > ch_small.busy_cycles());
    }

    #[test]
    fn writes_are_posted_and_drain_at_the_high_watermark() {
        let mut c = bare(8);
        c.write_queue_depth = 8;
        c.write_high_watermark = 4;
        c.write_low_watermark = 1;
        let mut ch = Channel::new(&c);
        for i in 0..3u64 {
            let w = ch.write(0, Addr::new(i * 64), 64, TrafficClass::Writeback);
            assert_eq!(w.row_outcome, RowBufferOutcome::Buffered);
            assert_eq!(w.finish, 0, "posted writes are acknowledged instantly");
        }
        assert_eq!(ch.pending_writes(), 3);
        assert_eq!(ch.access_count(), 0, "nothing drained yet");
        // The 4th write trips the high watermark: drain down to 1.
        ch.write(0, Addr::new(3 * 64), 64, TrafficClass::Writeback);
        assert_eq!(ch.pending_writes(), 1);
        assert_eq!(ch.access_count(), 3);
        assert_eq!(ch.write_drain_count(), 1);
        assert!(ch.busy_cycles() > 0);
    }

    #[test]
    fn fr_fcfs_drains_row_hits_first() {
        // One bank; queue writes to rows 0,1,0,0 then force a drain. Under
        // FR-FCFS the row-0 writes coalesce (1 conflict); under FCFS the
        // drain ping-pongs (2 conflicts).
        let mk = |sched| {
            let mut c = bare(1);
            c.write_queue_depth = 8;
            c.write_high_watermark = 8;
            c.write_low_watermark = 0;
            c.scheduler = sched;
            c
        };
        let row = cfg().row_buffer_bytes;
        let run = |c: &DramConfig| {
            let mut ch = Channel::new(c);
            // Open row 0.
            ch.read(0, Addr::new(0), 64, TrafficClass::HitData);
            for (i, r) in [0u64, 1, 0, 0].iter().enumerate() {
                ch.write(
                    100,
                    Addr::new(r * row + i as u64 * 64),
                    64,
                    TrafficClass::Writeback,
                );
            }
            ch.drain_all_writes(100);
            (ch.row_hit_count(), ch.row_conflict_count())
        };
        let (fr_hits, fr_conflicts) = run(&mk(SchedulerKind::FrFcfs));
        let (fcfs_hits, fcfs_conflicts) = run(&mk(SchedulerKind::Fcfs));
        assert!(fr_hits > fcfs_hits, "{fr_hits} vs {fcfs_hits}");
        assert!(
            fr_conflicts < fcfs_conflicts,
            "{fr_conflicts} vs {fcfs_conflicts}"
        );
    }

    #[test]
    fn queued_bytes_reconcile_with_transfers() {
        let mut c = bare(4);
        c.write_queue_depth = 16;
        c.write_high_watermark = 12;
        c.write_low_watermark = 2;
        let mut ch = Channel::new(&c);
        let mut posted = 0u64;
        for i in 0..40u64 {
            ch.write(
                i,
                Addr::new(i * 4096),
                64 + (i % 3) * 8,
                TrafficClass::Writeback,
            );
            posted += c.round_to_min_transfer(64 + (i % 3) * 8);
        }
        let wb = TrafficClass::Writeback.index();
        assert_eq!(
            ch.transferred_by_class()[wb] + ch.queued_by_class()[wb],
            posted
        );
        ch.drain_all_writes(10_000);
        assert_eq!(ch.queued_by_class()[wb], 0);
        assert_eq!(ch.transferred_by_class()[wb], posted);
    }

    #[test]
    fn refresh_blocks_banks_and_closes_rows() {
        let mut c = bare(2);
        c.timing = crate::DramTiming::paper_default();
        let refi = c.refresh_interval_cycles();
        let rfc = c.refresh_duration_cycles();
        let mut ch = Channel::new(&c);
        // Open a row well before the first refresh.
        ch.read(0, Addr::new(0), 64, TrafficClass::HitData);
        assert_eq!(ch.refresh_count(), 0);
        // Just past the refresh boundary: the row was closed by the refresh
        // (Closed outcome, not Hit) and service starts no earlier than the
        // refresh window's end.
        let a = ch.read(refi + 1, Addr::new(64), 64, TrafficClass::HitData);
        assert_eq!(ch.refresh_count(), 1);
        assert_eq!(a.row_outcome, RowBufferOutcome::Closed);
        assert!(a.start >= refi + rfc);
        // A long idle gap accounts all missed refreshes.
        ch.read(10 * refi + 5, Addr::new(128), 64, TrafficClass::HitData);
        assert_eq!(ch.refresh_count(), 10);
    }

    #[test]
    fn closed_page_policy_never_hits() {
        let mut c = bare(8);
        c.page_policy = PagePolicy::Closed;
        let mut ch = Channel::new(&c);
        let first = ch.read(0, Addr::new(0), 64, TrafficClass::HitData);
        let second = ch.read(first.finish, Addr::new(64), 64, TrafficClass::HitData);
        assert_eq!(second.row_outcome, RowBufferOutcome::Closed);
        assert_eq!(ch.row_hit_count(), 0);
        assert_eq!(ch.row_conflict_count(), 0);
        // Under the open policy the same pair is a hit.
        let mut open = Channel::new(&bare(8));
        let f = open.read(0, Addr::new(0), 64, TrafficClass::HitData);
        assert_eq!(
            open.read(f.finish, Addr::new(64), 64, TrafficClass::HitData)
                .row_outcome,
            RowBufferOutcome::Hit
        );
    }

    #[test]
    fn utilization_bounded() {
        let mut ch = Channel::new(&bare(8));
        for i in 0..100u64 {
            ch.read(i, Addr::new(i * 64), 64, TrafficClass::HitData);
        }
        let u = ch.utilization(ch.bus_free_at());
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        assert_eq!(ch.utilization(0), 0.0);
        assert_eq!(ch.access_count(), 100);
    }

    #[test]
    fn unbuffered_mode_accepts_default_watermarks() {
        // Disabling the write queue must not require zeroing the watermarks
        // too: depth 0 leaves them unused.
        let mut c = cfg();
        c.write_queue_depth = 0;
        let mut ch = Channel::new(&c);
        let w = ch.write(0, Addr::new(0), 64, TrafficClass::Writeback);
        assert_ne!(w.row_outcome, RowBufferOutcome::Buffered);
        assert_eq!(ch.pending_writes(), 0);
        assert_eq!(ch.access_count(), 1);
    }

    #[test]
    #[should_panic]
    fn channel_requires_banks() {
        let mut c = cfg();
        c.banks_per_channel = 0;
        let _ = Channel::new(&c);
    }

    #[test]
    #[should_panic]
    fn watermarks_must_be_ordered() {
        let mut c = cfg();
        c.write_low_watermark = c.write_high_watermark;
        let _ = Channel::new(&c);
    }

    fn image(ch: &Channel) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        ch.save_state(&mut w);
        w.into_bytes()
    }

    /// One FR-FCFS drain over a queue holding, oldest first, a row miss
    /// and two hits on the open row: the older hit drains first.
    #[test]
    fn fr_fcfs_drains_the_oldest_row_hit_first() {
        let mut c = bare(1);
        c.write_queue_depth = 8;
        c.write_high_watermark = 8;
        c.write_low_watermark = 0;
        let row = c.row_buffer_bytes;
        let mut ch = Channel::new(&c);
        ch.read(0, Addr::new(0), 64, TrafficClass::HitData);
        ch.write(0, Addr::new(row), 64, TrafficClass::Writeback);
        ch.write(0, Addr::new(64), 64, TrafficClass::Writeback);
        ch.write(0, Addr::new(128), 96, TrafficClass::Writeback);
        // Drain one write: the 64 B hit (seq 1), not the 96 B one (seq 2).
        ch.drain_writes_to(0, 2);
        let wb = TrafficClass::Writeback.index();
        assert_eq!(ch.transferred_by_class()[wb], 64);
        assert_eq!(ch.row_hit_count(), 1);
        assert_eq!(
            ch.write_queue.iter().map(|e| e.seq).collect::<Vec<_>>(),
            [0, 2]
        );
    }

    /// Every size from 1 B to past the end of the transfer table costs
    /// what `DramConfig::transfer_cycles` says and is rounded as
    /// `round_to_min_transfer` rounds it.
    #[test]
    fn transfer_table_matches_the_formula() {
        for granule in [32, 64, 48] {
            let c = DramConfig {
                min_transfer_bytes: granule,
                ..bare(8)
            };
            let ch = Channel::new(&c);
            for bytes in (0..=PAGE_SIZE + 3 * granule).chain([1 << 21, (1 << 21) + 1]) {
                assert_eq!(
                    ch.sized(bytes),
                    (c.round_to_min_transfer(bytes), c.transfer_cycles(bytes)),
                    "{bytes} B at a {granule} B granule"
                );
            }
        }
    }

    /// A queue saved in `swap_remove` order (the order images written
    /// before the queue was kept sorted have) drains, once restored, the
    /// same writes in the same order as the channel that saved it.
    #[test]
    fn restored_swap_removed_queue_picks_the_parents_writes() {
        for scheduler in [SchedulerKind::FrFcfs, SchedulerKind::Fcfs] {
            let mut c = bare(2);
            c.scheduler = scheduler;
            c.set_write_queue_depth(8);
            let row = c.row_buffer_bytes;
            let mut parent = ReferenceChannel::new(&c);
            let mut now = 0;
            let mut i = 0u64;
            // Post writes until a drain has left the queue out of `seq`
            // order.
            let unsorted =
                |p: &ReferenceChannel| p.0.write_queue.windows(2).any(|w| w[0].seq > w[1].seq);
            while !unsorted(&parent) {
                assert!(i < 1000, "no unsorted queue under {scheduler:?}");
                let addr = Addr::new((i * 7 % 5) * row + i % 64 * 64);
                parent.write(now, addr, 64, TrafficClass::Writeback);
                now += 3;
                i += 1;
            }
            let (bytes, _) = parent.images();
            let mut restored = Channel::new(&c);
            restored
                .load_state(&mut SnapshotReader::new(&bytes))
                .expect("restore");
            for j in 0..64u64 {
                let addr = Addr::new((j * 3 % 7) * row + j % 64 * 64);
                assert_eq!(
                    restored.write(now, addr, 32, TrafficClass::Replacement),
                    parent.write(now, addr, 32, TrafficClass::Replacement),
                );
                now += 5;
            }
            restored.drain_all_writes(now);
            parent.drain_all_writes(now);
            assert_eq!(image(&restored), parent.images().0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The table-driven channel matches the scan-and-f64 reference on
        /// every access, under both schedulers, both page policies and write
        /// queues of depth 0, 1, 8 and 32, for sizes from 1 B to past the
        /// table's end. Images agree at every forced drain and at the end,
        /// up to the order of the queued writes.
        #[test]
        fn prop_matches_reference_channel(
            policies in (0u8..2, 0u8..2),
            shape in (0usize..4, 1usize..5, 1usize..9),
            ops in proptest::collection::vec((0u8..12, 0u64..1 << 17, 0u64..6000, 0u64..300), 1..400),
        ) {
            let ((fr_fcfs, closed), (depth, banks, read_depth)) = (policies, shape);
            let mut c = DramConfig {
                banks_per_channel: banks,
                read_queue_depth: read_depth,
                scheduler: if fr_fcfs == 1 { SchedulerKind::FrFcfs } else { SchedulerKind::Fcfs },
                page_policy: if closed == 1 { PagePolicy::Closed } else { PagePolicy::Open },
                ..cfg()
            };
            c.set_write_queue_depth([0, 1, 8, 32][depth]);
            let mut ch = Channel::new(&c);
            let mut reference = ReferenceChannel::new(&c);
            let mut now = 0;
            for (op, addr, size, gap) in ops {
                now += gap;
                let addr = Addr::new(addr);
                let bytes = match size % 4 {
                    0 => [32, 64, 96, 4096][(size / 4 % 4) as usize],
                    _ => size / 4 * 5 + 1,
                };
                let class = TrafficClass::ALL[(size % TrafficClass::ALL.len() as u64) as usize];
                match op {
                    0 => {
                        ch.drain_all_writes(now);
                        reference.drain_all_writes(now);
                        prop_assert_eq!(image(&ch), reference.images().0);
                    }
                    1..=5 => prop_assert_eq!(
                        ch.write(now, addr, bytes, class),
                        reference.write(now, addr, bytes, class)
                    ),
                    _ => prop_assert_eq!(
                        ch.read(now, addr, bytes, class),
                        reference.read(now, addr, bytes, class)
                    ),
                }
            }
            prop_assert_eq!(image(&ch), reference.images().1);
            ch.drain_all_writes(now);
            reference.drain_all_writes(now);
            prop_assert_eq!(image(&ch), reference.images().0);
        }
    }
}
