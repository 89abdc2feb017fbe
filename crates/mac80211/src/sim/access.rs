//! Channel access: queue admission and the one contention procedure
//! (AIFS, then slotted backoff that freezes while the medium is busy),
//! run over a station's contention lanes.
//!
//! A legacy DCF station has one lane whose AIFS is DIFS — the §4 DCF
//! is 802.11e EDCA with a single queue at AIFSN 2 — and keeps its
//! slots and contention window in the [`DcfState`](super::DcfState)
//! columns. An EDCA station has four lanes, one per access category
//! (lane index = [`AccessCategory::index`]), kept in its
//! [`EdcaState`](super::EdcaState). One access timer per station runs
//! to the earliest lane expiry; when several lanes expire together the
//! highest-priority one wins and the others resolve an internal
//! collision. The winning lane hands the medium to its frame exchange:
//! the MSDU attempt (`dcf.rs`) or the A-MPDU flight (`edca.rs`).

use super::{frame_kind, AccessCategory, MacEvent, Msdu, StationId, WlanWorld};
use crate::arena::FrameId;
use wn_sim::trace::{DropReason, Level, TraceEvent};
use wn_sim::{Scheduler, SimDuration, SimTime};

/// The lane of a legacy DCF station (its only one).
pub(super) const DCF_LANE: usize = 0;

/// The earliest expiry among the contending lanes, measured from the
/// arming instant: the lane's AIFS plus its remaining backoff slots.
fn earliest_expiry(
    slots: &[Option<u32>],
    aifs: &[SimDuration],
    slot: SimDuration,
) -> Option<SimDuration> {
    slots
        .iter()
        .zip(aifs)
        .filter_map(|(s, &a)| s.map(|s| a + slot * s as u64))
        .min()
}

/// Backoff slots that elapsed past an AIFS boundary at `aifs_end`.
fn slots_burned(aifs_end: SimTime, now: SimTime, slot: SimDuration) -> u32 {
    if now <= aifs_end {
        0
    } else {
        ((now - aifs_end).as_nanos() / slot.as_nanos().max(1)) as u32
    }
}

impl WlanWorld {
    pub(super) fn medium_idle(&self, id: StationId, now: SimTime) -> bool {
        self.dcf.audible[id].is_empty()
            && self.dcf.transmitting[id].is_none()
            && self.dcf.nav_until[id] <= now
    }

    /// The contention lanes of `id`, index-aligned: remaining backoff
    /// slots (`None` when the lane is not contending), contention
    /// windows and AIFS. One lane on a legacy station, four on an EDCA
    /// station.
    fn lanes(&mut self, id: StationId) -> (&mut [Option<u32>], &mut [u32], &[SimDuration]) {
        match &mut self.stations[id].edca {
            None => (
                std::slice::from_mut(&mut self.dcf.backoff_slots[id]),
                std::slice::from_mut(&mut self.dcf.cw[id]),
                std::slice::from_ref(&self.difs),
            ),
            Some(e) => (&mut e.slots, &mut e.cw, &self.edca_aifs),
        }
    }

    /// `lane`'s (CWmin, CWmax): the PHY's bounds (after overrides) on a
    /// legacy station, the access category's parameter set on EDCA.
    fn cw_bounds(&self, id: StationId, lane: usize) -> (u32, u32) {
        match self.stations[id].edca {
            None => (self.cfg.cw_min(), self.cfg.cw_max()),
            Some(_) => {
                let p = self
                    .cfg
                    .edca_params(AccessCategory::from_index(lane).expect("4 ACs"));
                (p.cw_min, p.cw_max)
            }
        }
    }

    /// Resets `lane`'s contention window after a finished exchange.
    pub(super) fn reset_cw(&mut self, id: StationId, lane: usize) {
        let (cw_min, _) = self.cw_bounds(id, lane);
        let (_, cw, _) = self.lanes(id);
        cw[lane] = cw_min;
    }

    /// Binary exponential backoff: doubles `lane`'s contention window
    /// after a failed (or internally collided) attempt, up to CWmax.
    pub(super) fn double_cw(&mut self, id: StationId, lane: usize) {
        let (_, cw_max) = self.cw_bounds(id, lane);
        let (_, cw, _) = self.lanes(id);
        cw[lane] = ((cw[lane] + 1) * 2 - 1).min(cw_max);
    }

    /// Queues an arena-resident frame on the lane of `ac` (a legacy
    /// station has one queue, so `ac` only matters on EDCA stations).
    /// The caller's reference on `fid` transfers to the queue — or back
    /// out through a `TxDropped` event on overflow.
    pub(super) fn enqueue_id(
        &mut self,
        id: StationId,
        fid: FrameId,
        ac: AccessCategory,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        self.frames.get_mut(fid).fc.power_management = self.stations[id].power_mgmt;
        let s = &mut self.stations[id];
        s.stats.queued += 1;
        let queue = match &mut s.edca {
            None => &mut s.queue,
            Some(e) => &mut e.acs[ac.index()].queue,
        };
        if queue.len() >= self.cfg.queue_limit {
            s.stats.queue_drops += 1;
            let kind = frame_kind(self.frames.get(fid).fc.subtype);
            self.trace.event(
                now,
                Level::Warn,
                "mac",
                TraceEvent::Drop {
                    station: id as u32,
                    kind,
                    reason: DropReason::QueueFull,
                },
            );
            // The sender must still learn the MSDU's fate: deliver the
            // failure confirmation. Scheduled at `now` instead of
            // calling the upper layer inline so a layer that reacts by
            // immediately re-sending into a still-full queue turns into
            // event-loop iterations, not unbounded recursion.
            self.staged += 1;
            sched.schedule_at(
                now,
                MacEvent::TxDropped {
                    station: id,
                    frame: fid,
                },
            );
            return;
        }
        queue.push_back(Msdu {
            frame: fid,
            enqueued: now,
        });
        self.queue_gauge.add(now, 1.0);
        // Wake the lane's frame exchange: the MSDU attempt takes the
        // queue head when idle; an idle EDCA lane starts contending and
        // builds its aggregate when it wins.
        match &self.stations[id].edca {
            None => self.maybe_start_next(id, now, sched),
            Some(e) => {
                let aci = ac.index();
                if e.acs[aci].flight.is_none() && e.slots[aci].is_none() {
                    self.begin_access(id, aci, now, sched);
                }
            }
        }
    }

    /// Draws a fresh backoff for `lane` from its contention window.
    fn draw_backoff(&mut self, id: StationId, lane: usize, now: SimTime) {
        let (_, cws, _) = self.lanes(id);
        let cw = cws[lane];
        let slots = self.rng.below(cw as u64 + 1) as u32;
        let (lane_slots, _, _) = self.lanes(id);
        lane_slots[lane] = Some(slots);
        let station = id as u32;
        let event = match self.stations[id].edca {
            None => TraceEvent::Backoff { station, slots, cw },
            Some(_) => TraceEvent::EdcaBackoff {
                station,
                ac: lane as u8,
                slots,
                cw,
            },
        };
        self.trace.event(now, Level::Debug, "mac", event);
    }

    /// Starts (or restarts) contention on `lane` with a fresh backoff.
    /// A running access timer was armed for the other lanes and this
    /// one may expire earlier, so it is frozen (every lane keeps the
    /// slots it already burned) and re-armed over all of them.
    pub(super) fn begin_access(
        &mut self,
        id: StationId,
        lane: usize,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        self.draw_backoff(id, lane, now);
        self.contenders.insert(id);
        if self.dcf.access_armed_at[id].is_some() {
            self.freeze_access(id, now);
        }
        self.try_arm_access(id, now, sched);
    }

    /// Arms the access timer at the earliest lane expiry if the medium
    /// is idle; otherwise the station waits on the contender list for
    /// an idle edge (or for its NAV to expire).
    pub(super) fn try_arm_access(
        &mut self,
        id: StationId,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let slot = self.slot;
        let (slots, _, aifs) = self.lanes(id);
        let Some(delay) = earliest_expiry(slots, aifs, slot) else {
            self.contenders.remove(id);
            return;
        };
        if !self.medium_idle(id, now) {
            // Will re-arm on the idle edge / NAV expiry.
            if self.dcf.nav_until[id] > now {
                sched.schedule_at(self.dcf.nav_until[id], MacEvent::NavExpired { station: id });
            }
            return;
        }
        if self.dcf.access_armed_at[id].is_some() {
            return;
        }
        self.dcf.timer_gen[id] += 1;
        let gen = self.dcf.timer_gen[id];
        self.dcf.access_armed_at[id] = Some(now);
        // The timer is counting down; idle edges can't affect it until
        // a busy edge freezes it again.
        self.contenders.remove(id);
        sched.schedule_in(delay, MacEvent::AccessTimer { station: id, gen });
    }

    /// A busy edge interrupts a counting-down access timer; each lane
    /// keeps the slots it already burned past its own AIFS boundary.
    pub(super) fn freeze_access(&mut self, id: StationId, now: SimTime) {
        let Some(armed_at) = self.dcf.access_armed_at[id] else {
            return;
        };
        let slot = self.slot;
        let (slots, _, aifs) = self.lanes(id);
        // CSMA vulnerable window: a station whose backoff expires
        // within the CCA detection time of the busy edge has already
        // committed to transmit and cannot react — so two stations
        // whose counters reach zero in the same slot genuinely
        // collide. The window is ~1 µs (energy-detect turnaround),
        // far below a slot, so sub-slot grid offsets still defer.
        if earliest_expiry(slots, aifs, slot)
            .is_some_and(|d| armed_at + d <= now + SimDuration::from_micros(1))
        {
            return;
        }
        for (left, &a) in slots.iter_mut().zip(aifs) {
            if let Some(left) = left {
                *left = left.saturating_sub(slots_burned(armed_at + a, now, slot));
            }
        }
        let contending = slots.iter().any(Option::is_some);
        self.dcf.access_armed_at[id] = None;
        self.dcf.timer_gen[id] += 1; // Invalidate the pending AccessTimer.
        if contending {
            // Frozen with slots left: back on the contender wait-list.
            self.contenders.insert(id);
        }
    }

    /// The access timer fired: the earliest-expiring lane wins the
    /// medium. Lanes expiring in the same slot lose the internal
    /// collision to the higher priority (lower index) and double their
    /// CW like an external collision; lanes still counting keep the
    /// idle slots they burned past their own AIFS.
    pub(super) fn access_fire(
        &mut self,
        id: StationId,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let Some(armed_at) = self.dcf.access_armed_at[id].take() else {
            return;
        };
        let elapsed = now.saturating_duration_since(armed_at);
        let slot = self.slot;
        let (slots, _, aifs) = self.lanes(id);
        let mut expired = [false; 4];
        for ((e, s), &a) in expired.iter_mut().zip(&*slots).zip(aifs) {
            *e = s.is_some_and(|s| a + slot * s as u64 <= elapsed);
        }
        let Some(win) = expired.iter().position(|&e| e) else {
            // Stale fire (should be generation-guarded); re-contend.
            self.contenders.insert(id);
            return;
        };
        for ((left, &a), &e) in slots.iter_mut().zip(aifs).zip(&expired) {
            if let (Some(left), false) = (left, e) {
                *left = left.saturating_sub(slots_burned(armed_at + a, now, slot));
            }
        }
        slots[win] = None;
        for (lane, _) in expired.iter().enumerate().skip(win + 1).filter(|(_, &e)| e) {
            // Internal collision: the loser behaves as if the medium
            // ate its frame — CW doubles, backoff redraws.
            self.double_cw(id, lane);
            self.draw_backoff(id, lane, now);
        }
        let (slots, _, _) = self.lanes(id);
        if slots.iter().any(Option::is_some) {
            self.contenders.insert(id);
        } else {
            self.contenders.remove(id);
        }
        match self.stations[id].edca {
            None => self.transmit_current(id, now, sched),
            Some(_) => self.edca_transmit(id, win, now, sched),
        }
    }
}
