//! The channel's scheduling and bus arithmetic as they were before the
//! transfer table and the `seq`-ordered write queue: every op rounds its
//! size and converts it to bus cycles through the f64 clock conversion, the
//! write queue drains with `swap_remove`, and each pick scans the whole
//! queue for the minimum `(row_miss, seq)` (FR-FCFS) or `seq` (FCFS).
//!
//! It wraps a [`Channel`] for its state and reuses the unchanged refresh and
//! address decode, so [`Channel::save_state`] writes the old image bytes
//! (its queue in `swap_remove` order). The differential tests hold the
//! table-driven channel to it.

use super::*;

pub(super) struct ReferenceChannel(pub(super) Channel);

impl ReferenceChannel {
    pub(super) fn new(cfg: &DramConfig) -> Self {
        ReferenceChannel(Channel::new(cfg))
    }

    fn service(
        &mut self,
        now: Cycle,
        bank_idx: usize,
        row: u64,
        bytes: u64,
        class: TrafficClass,
    ) -> ChannelAccess {
        let ch = &mut self.0;
        let t = ch.timing;
        let bank = &mut ch.banks[bank_idx];
        let slot_free = bank.ring[bank.ring_idx as usize];
        let start = now.max(bank.busy_until).max(slot_free);
        let closed_policy = ch.config.page_policy == PagePolicy::Closed;
        let (outcome, activate_at, data_ready) = match bank.open_row {
            Some(open) if open == row && !closed_policy => {
                (RowBufferOutcome::Hit, None, start + t.hit)
            }
            Some(_) => {
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
        let transfer = ch.config.transfer_cycles(bytes);
        let bus_start = data_ready.max(ch.bus_free);
        let finish = bus_start + transfer;
        ch.bus_free = finish;
        ch.busy_cycles += transfer;
        let rounded = ch.config.round_to_min_transfer(bytes);
        ch.transferred[class.index()] += rounded;
        ch.accesses += 1;
        match outcome {
            RowBufferOutcome::Hit => ch.row_hits += 1,
            RowBufferOutcome::Conflict => ch.row_conflicts += 1,
            _ => {}
        }
        bank.ring[bank.ring_idx as usize] = finish;
        bank.ring_idx = (bank.ring_idx + 1) % bank.ring.len() as u32;
        if closed_policy {
            bank.open_row = None;
            let activate = activate_at.unwrap_or(start);
            bank.busy_until = data_ready.max(activate + t.t_ras + t.t_rp);
        } else {
            bank.open_row = Some(row);
            match outcome {
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
            bytes: rounded,
        }
    }

    pub(super) fn read(
        &mut self,
        now: Cycle,
        addr: Addr,
        bytes: u64,
        class: TrafficClass,
    ) -> ChannelAccess {
        self.0.advance_refresh(now);
        let (bank, row) = self.0.decode(addr);
        self.service(now, bank, row, bytes, class)
    }

    pub(super) fn write(
        &mut self,
        now: Cycle,
        addr: Addr,
        bytes: u64,
        class: TrafficClass,
    ) -> ChannelAccess {
        self.0.advance_refresh(now);
        let (bank, row) = self.0.decode(addr);
        if self.0.config.write_queue_depth == 0 {
            return self.service(now, bank, row, bytes, class);
        }
        if self.0.write_queue.len() == self.0.config.write_queue_depth {
            self.drain_writes_to(now, self.0.config.write_low_watermark);
        }
        let ch = &mut self.0;
        let rounded = ch.config.round_to_min_transfer(bytes);
        ch.queued[class.index()] += rounded;
        ch.write_queue.push(WriteEntry {
            bank: bank as u32,
            row,
            bytes: rounded,
            class,
            enqueued: now,
            seq: ch.write_seq,
        });
        ch.write_seq += 1;
        if ch.write_queue.len() >= ch.config.write_high_watermark {
            self.drain_writes_to(now, self.0.config.write_low_watermark);
        }
        ChannelAccess {
            start: now,
            finish: now,
            row_outcome: RowBufferOutcome::Buffered,
            bytes: rounded,
        }
    }

    fn drain_writes_to(&mut self, now: Cycle, target: usize) {
        if self.0.write_queue.len() > target {
            self.0.write_drains += 1;
        }
        while self.0.write_queue.len() > target {
            let pick = match self.0.config.scheduler {
                SchedulerKind::FrFcfs => self.pick_fr_fcfs(),
                SchedulerKind::Fcfs => self.pick_oldest(),
            };
            let e = self.0.write_queue.swap_remove(pick);
            self.0.queued[e.class.index()] -= e.bytes;
            self.service(
                now.max(e.enqueued),
                e.bank as usize,
                e.row,
                e.bytes,
                e.class,
            );
        }
    }

    fn pick_oldest(&self) -> usize {
        let queue = &self.0.write_queue;
        let mut best = 0;
        for (i, e) in queue.iter().enumerate() {
            if e.seq < queue[best].seq {
                best = i;
            }
        }
        best
    }

    fn pick_fr_fcfs(&self) -> usize {
        let mut best = 0;
        let mut best_key = (true, u64::MAX);
        for (i, e) in self.0.write_queue.iter().enumerate() {
            let row_miss = self.0.banks[e.bank as usize].open_row != Some(e.row);
            let key = (row_miss, e.seq);
            if key < best_key {
                best_key = key;
                best = i;
            }
        }
        best
    }

    pub(super) fn drain_all_writes(&mut self, now: Cycle) {
        self.drain_writes_to(now, 0);
    }

    /// The channel's image, and the same image with its write queue sorted
    /// by `seq` — the order the table-driven channel keeps.
    pub(super) fn images(&self) -> (Vec<u8>, Vec<u8>) {
        let mut w = SnapshotWriter::new();
        self.0.save_state(&mut w);
        let mut sorted = self.0.clone();
        sorted.write_queue.sort_by_key(|e| e.seq);
        let mut ws = SnapshotWriter::new();
        sorted.save_state(&mut ws);
        (w.into_bytes(), ws.into_bytes())
    }
}
