//! The medium: a transmission's start (busy edges at every audible
//! station) and its end — the reception decision (overlap filter,
//! interference sum, SINR, error draw), the source-side continuation
//! and the receiver-side processing of each decoded frame.

use std::sync::Arc;

use super::{frame_kind, BaResult, Expecting, MacEvent, PendingTx, StationId, TxRecord, WlanWorld};
use crate::arena::FrameId;
use crate::duration::{ack_airtime, airtime, cts_airtime};
use crate::frame::{Frame, Subtype};
use wn_phy::modulation::RateStep;
use wn_phy::units::Dbm;
use wn_sim::trace::{Level, TraceEvent};
use wn_sim::{Scheduler, SimDuration, SimTime};

impl WlanWorld {
    /// Puts a frame on the air. Consumes one arena reference on
    /// `frame` — it becomes the new [`TxRecord`]'s, released when the
    /// record is pruned.
    pub(super) fn start_transmission(
        &mut self,
        id: StationId,
        frame: FrameId,
        rate: RateStep,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) -> u64 {
        let timing = self.cfg.standard.mac_timing();
        let (wire_len, kind) = {
            let f = self.frames.get(frame);
            (f.wire_len(), frame_kind(f.fc.subtype))
        };
        let dur = airtime(&timing, rate, wire_len);
        let tx_id = self.next_tx_id;
        self.next_tx_id += 1;
        let (rx_power, candidates) = self.tx_powers(id, now);
        let channel = self.dcf.channel[id];
        self.trace.event(
            now,
            Level::Debug,
            "mac",
            TraceEvent::Tx {
                station: id as u32,
                kind,
                len: wire_len as u32,
                rate_mbps: rate.rate.mbps(),
            },
        );
        self.records.push(TxRecord {
            id: tx_id,
            src: id,
            channel,
            frame,
            rate,
            start: now,
            end: now + dur,
            rx_power: rx_power.clone(),
            candidates: Arc::clone(&candidates),
            done: false,
        });
        self.dcf.transmitting[id] = Some(tx_id);
        self.stations[id].stats.tx_frames += 1;
        self.stations[id].stats.tx_airtime_us += dur.as_nanos() / 1_000;
        // Busy edges at every audible same-channel station — only the
        // candidate list can qualify, since leaked cross-channel power
        // never exceeds the raw power the list was thresholded on.
        let mut cur = 0usize;
        for &r in candidates.iter() {
            let power = rx_power.get_seq(r, &mut cur);
            let overlap = Self::channel_overlap(channel, self.dcf.channel[r]);
            let heard = Self::leaked_power(power, overlap)
                .map(|p| self.audible_at(p))
                .unwrap_or(false);
            if self.dcf.awake[r] && heard && self.dcf.audible[r].insert(tx_id) == 1 {
                self.freeze_access(r, now);
            }
        }
        sched.schedule_in(dur, MacEvent::TxEnd { tx_id });
        tx_id
    }

    pub(super) fn handle_tx_end(
        &mut self,
        tx_id: u64,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        // Records are pushed with ascending ids and pruned in place, so
        // the lookup can bisect instead of scanning.
        let Ok(idx) = self.records.binary_search_by_key(&tx_id, |r| r.id) else {
            return;
        };
        self.records[idx].done = true;
        let src = self.records[idx].src;
        let channel = self.records[idx].channel;
        let frame_id = self.records[idx].frame;
        let rate = self.records[idx].rate;
        self.dcf.transmitting[src] = None;
        let (subtype, is_group, wire_bits) = {
            let f = self.frames.get(frame_id);
            (
                f.fc.subtype,
                f.receiver().is_group(),
                f.wire_len() as u64 * 8,
            )
        };

        // Decide reception — only at the start-time audible candidates.
        // Everyone else had raw power below the CS threshold, was never
        // put on an audible set, and would fall straight through the
        // `!audible_at && !was_audible` skip below with no side effect.
        let mut decoded = std::mem::take(&mut self.decoded_scratch);
        decoded.clear();
        // Only records overlapping this frame in time can trip the
        // half-duplex or interference checks — pre-filter them once
        // instead of rescanning the whole retention horizon for every
        // station (O(records·n) → O(records + n·concurrent)). Indices
        // stay ascending so the linear-domain interference sum keeps
        // its float accumulation order.
        let (rec_start, rec_end) = (self.records[idx].start, self.records[idx].end);
        let mut overlapping = std::mem::take(&mut self.overlap_scratch);
        overlapping.clear();
        overlapping.extend(
            (0..self.records.len())
                .filter(|&o| self.records[o].start < rec_end && self.records[o].end > rec_start),
        );
        let rx_power = self.records[idx].rx_power.clone();
        let candidates = Arc::clone(&self.records[idx].candidates);
        // Half-duplex sources among the overlapping records, collected
        // once into a bitset so the per-receiver check is O(1) instead
        // of a rescan of the overlap list.
        let mut tx_srcs = std::mem::take(&mut self.txsrc_scratch);
        tx_srcs.clear();
        for &o in &overlapping {
            tx_srcs.insert(self.records[o].src);
        }
        // The noise floor is a pure function of the link budget; one
        // evaluation per frame serves every receiver bit-identically —
        // as does its milliwatt image, hoisted here so the SINR loop
        // below pays one `powf` fewer per candidate.
        let noise = self.budget.noise_floor();
        let noise_mw = noise.to_milliwatts();
        // Interference sums, precomputed column-wise. Every receiver
        // that reaches the SINR decision shares the same interferer
        // set — the overlapping records minus the completing frame;
        // the per-receiver `src == r` exclusion is vacuous because
        // those receivers already failed the half-duplex check. So one
        // pass per record accumulates its milliwatt row into a single
        // per-station vector, in the same ascending record order (and
        // therefore the same float rounding) as a per-receiver scalar
        // sum. Each record's row adds its memoized milliwatt mirror at
        // its key slots (a partial spectral overlap converts per entry).
        let n = self.stations.len();
        let mut intf_acc = std::mem::take(&mut self.intf_scratch);
        intf_acc.clear();
        let mut intf_count = 0usize;
        for &o in &overlapping {
            let rec_o = &self.records[o];
            if rec_o.id == tx_id {
                continue;
            }
            let ov = Self::channel_overlap(rec_o.channel, channel);
            if ov <= 0.0 {
                continue;
            }
            if intf_count == 0 {
                // Zero the accumulator lazily: the common uncontended
                // frame has no interferers and skips the O(n) clear.
                intf_acc.resize(n, 0.0);
            }
            intf_count += 1;
            // Partial overlap uses the same per-entry expression as
            // `leaked_power` followed by `to_milliwatts`; the dB shift
            // is a pure function of the overlap, hoisted out of the
            // row loop.
            let shift = (ov < 1.0).then(|| 10.0 * ov.log10());
            rec_o.rx_power.accumulate_mw(shift, &mut intf_acc);
            // Candidates outside the interferer's grid neighborhood are
            // below its carrier-sense floor, not below the noise floor:
            // their terms are evaluated here, on demand, so the sum is
            // the direct path's.
            rec_o
                .rx_power
                .fill_missing(rec_o.src, &candidates, &mut intf_acc, |r| {
                    let p = self.rx_power_at(rec_o.src, r, rec_o.start);
                    match shift {
                        None => p.to_milliwatts(),
                        Some(shift) => Dbm(p.value() + shift).to_milliwatts(),
                    }
                });
        }
        let mut cur = 0usize;
        for &r in candidates.iter() {
            let power = rx_power.get_seq(r, &mut cur);
            let was_audible = self.dcf.audible[r].remove(tx_id);
            if !self.dcf.awake[r] || self.dcf.channel[r] != channel {
                continue;
            }
            if !self.audible_at(power) && !was_audible {
                continue;
            }
            // Half-duplex: a station that transmitted during any part
            // of the frame cannot receive it.
            if tx_srcs.contains(r) {
                self.stations[r].stats.rx_errors += 1;
                continue;
            }
            let success = if !self.cfg.capture && intf_count > 0 {
                false
            } else {
                let denom = if intf_count == 0 {
                    noise
                } else {
                    // Inlined two-term `sum_powers(&[noise, from_mw(intf)])`
                    // with the noise conversion hoisted: the addend order
                    // and the dB↔mW round trip on the interference sum are
                    // byte-for-byte what the helper computes.
                    Dbm::from_milliwatts(
                        noise_mw + Dbm::from_milliwatts(intf_acc[r]).to_milliwatts(),
                    )
                };
                let sinr = power - denom;
                let p_ok = rate.success_prob(sinr.value(), wire_bits);
                self.rng.chance(p_ok)
            };
            if success {
                decoded.push((r, power));
            } else {
                self.stations[r].stats.rx_errors += 1;
            }
        }
        self.txsrc_scratch = tx_srcs;
        self.intf_scratch = intf_acc;
        self.overlap_scratch = overlapping;

        // Source-side continuation: arm response timeout or complete.
        self.continue_after_own_tx(src, subtype, is_group, now, sched);

        // Receiver-side processing. The wire frame is checked out of
        // its slot for the duration — delivery needs `&Frame` alongside
        // arbitrary `&mut` world mutation, and every receiver shares
        // the same wire image. Nothing below can release the record's
        // reference (pruning runs at the end of this function), so the
        // slot stays allocated throughout.
        if !decoded.is_empty() {
            let frame = self.frames.take(frame_id);
            for &(r, power) in &decoded {
                self.process_decoded(r, &frame, power, now, sched);
            }
            self.frames.restore(frame_id, frame);
        }
        self.decoded_scratch = decoded;

        // Idle edges: resume frozen access procedures. Only contenders
        // (armed backoff, timer not counting) can react; the wait-list
        // yields them in the ascending order the old full-table scan
        // visited them in. Stations whose timer is already counting
        // were no-ops in that scan, and they are exactly the ones the
        // wait-list omits.
        let mut scratch = std::mem::take(&mut self.rearm_scratch);
        scratch.clear();
        self.contenders.collect_into(&mut scratch);
        for &r in &scratch {
            if self.medium_idle(r, now) {
                self.try_arm_access(r, now, sched);
            }
        }
        self.rearm_scratch = scratch;

        // Prune stale records (keep a 50 ms interference horizon),
        // returning each pruned record's frame reference to the arena.
        let horizon = now.saturating_duration_since(SimTime::ZERO);
        if horizon.as_nanos() > 50_000_000 {
            let cutoff = now - SimDuration::from_millis(50);
            let frames = &mut self.frames;
            self.records.retain(|rec| {
                let keep = !rec.done || rec.end > cutoff;
                if !keep {
                    frames.release(rec.frame);
                }
                keep
            });
        }
    }

    fn continue_after_own_tx(
        &mut self,
        src: StationId,
        subtype: Subtype,
        is_group: bool,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        // The station, not the frame subtype, decides the exchange: an
        // A-MPDU flight on the air settles against its block ack, and
        // anything else a legacy station sends (a QoS data MSDU
        // included) is its MSDU attempt waiting for CTS or ACK.
        let flight_on_air = self.stations[src]
            .edca
            .as_ref()
            .is_some_and(|e| e.tx_ac.is_some());
        match subtype {
            Subtype::Ack | Subtype::Cts | Subtype::BlockAck | Subtype::BlockAckReq => {
                // Control responses need no follow-up from us.
            }
            _ if flight_on_air => {
                if is_group {
                    // Group-addressed aggregate: no block ack comes.
                    self.qos_resolve_flight(src, BaResult::Broadcast, now, sched);
                } else if let Some((Expecting::BlockAck, gen)) = self.dcf.expecting[src] {
                    let resp_air = crate::duration::block_ack_airtime(self.cfg.standard);
                    let timeout = self.sifs + resp_air + self.slot * 2;
                    sched.schedule_in(timeout, MacEvent::ResponseTimeout { station: src, gen });
                }
            }
            _ => {
                if self.stations[src].current.is_some() {
                    if is_group {
                        // Broadcast: complete immediately, no ACK.
                        self.complete_attempt(src, true, now, sched);
                    } else if let Some((exp, gen)) = self.dcf.expecting[src] {
                        // Arm the CTS/ACK timeout.
                        let resp_air = match exp {
                            Expecting::Cts => cts_airtime(self.cfg.standard),
                            Expecting::Ack => ack_airtime(self.cfg.standard),
                            Expecting::BlockAck => {
                                crate::duration::block_ack_airtime(self.cfg.standard)
                            }
                        };
                        let timeout = self.sifs + resp_air + self.slot * 2;
                        sched.schedule_in(timeout, MacEvent::ResponseTimeout { station: src, gen });
                    }
                }
            }
        }
    }

    fn process_decoded(
        &mut self,
        r: StationId,
        frame: &Frame,
        rssi: Dbm,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let my_addr = self.stations[r].addr;
        let for_me = frame.receiver() == my_addr || frame.receiver().is_group();
        if !for_me {
            // Virtual carrier sense: honour the Duration field (§4.2).
            if frame.duration_id & 0x8000 == 0 && frame.duration_id > 0 {
                let nav = now + SimDuration::from_micros(frame.duration_id as u64);
                if nav > self.dcf.nav_until[r] {
                    self.dcf.nav_until[r] = nav;
                    self.trace.event(
                        now,
                        Level::Debug,
                        "mac",
                        TraceEvent::Nav {
                            station: r as u32,
                            until_us: nav.as_nanos() / 1_000,
                        },
                    );
                    self.freeze_access(r, now);
                    sched.schedule_at(nav, MacEvent::NavExpired { station: r });
                }
            }
            return;
        }
        match frame.fc.subtype {
            Subtype::Ack => self.on_ack(r, now, sched),
            Subtype::Cts => self.on_cts(r, now, sched),
            // Only an EDCA station reads a QoS data frame as an A-MPDU;
            // a legacy station takes it as a plain data MSDU below.
            Subtype::QosData if self.stations[r].edca.is_some() => {
                self.on_qos_data(r, frame, rssi, now, sched)
            }
            Subtype::BlockAck => self.on_block_ack(r, frame, now, sched),
            Subtype::BlockAckReq => {
                // This model uses implicit block-ack requests — the
                // aggregate itself solicits the BA (DESIGN.md §16); an
                // explicit BAR on the air is codec-exercised only.
            }
            Subtype::Rts => {
                // Respond with CTS after SIFS if our NAV permits.
                if self.dcf.nav_until[r] <= now {
                    let std = self.cfg.standard;
                    let cts = Frame::cts(
                        frame.transmitter().expect("RTS carries TA"),
                        crate::duration::cts_duration(std, frame.duration_id),
                    );
                    self.schedule_sifs(r, PendingTx::Control(cts), sched);
                }
            }
            Subtype::PsPoll => {
                self.stations[r].stats.rx_accepted += 1;
                self.with_upper(r, now, sched, |u, ctx| u.on_frame(ctx, frame, rssi));
            }
            _ => {
                // Data / management.
                let unicast = !frame.receiver().is_group();
                if unicast {
                    // ACK after SIFS — even for duplicates (the original
                    // ACK may be the thing that got lost).
                    let ack = Frame::ack(frame.transmitter().expect("data carries TA"));
                    self.schedule_sifs(r, PendingTx::Control(ack), sched);
                }
                let tx = frame.transmitter().expect("data carries TA");
                let seq = frame.seq.expect("data carries sequence control");
                if unicast && self.stations[r].dedup.check(tx, seq, frame.fc.retry) {
                    self.stations[r].stats.rx_duplicates += 1;
                    return;
                }
                // Fragment reassembly (§4.2 More Fragments).
                if frame.fc.more_fragments || seq.fragment > 0 {
                    let key = (tx, seq.sequence);
                    let buf = self.stations[r].reassembly.entry(key).or_default();
                    buf.extend_from_slice(&frame.body);
                    if frame.fc.more_fragments {
                        return;
                    }
                    let full = self.stations[r].reassembly.remove(&key).unwrap_or_default();
                    // Rare path: reassembly genuinely needs its own copy
                    // to splice the rebuilt body in.
                    let mut complete = frame.clone();
                    complete.body = full;
                    complete.fc.more_fragments = false;
                    self.deliver(r, &complete, rssi, now, sched);
                } else {
                    self.deliver(r, frame, rssi, now, sched);
                }
            }
        }
    }

    pub(super) fn deliver(
        &mut self,
        r: StationId,
        frame: &Frame,
        rssi: Dbm,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let s = &mut self.stations[r];
        s.stats.rx_accepted += 1;
        s.stats.rx_payload_bytes += frame.body.len() as u64;
        self.trace.event(
            now,
            Level::Debug,
            "mac",
            TraceEvent::Rx {
                station: r as u32,
                kind: frame_kind(frame.fc.subtype),
                len: frame.body.len() as u32,
                rssi_dbm: rssi.value(),
            },
        );
        self.with_upper(r, now, sched, |u, ctx| u.on_frame(ctx, frame, rssi));
    }
}
