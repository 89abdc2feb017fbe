//! A-MPDU flights and block ack (802.11e/n; DESIGN.md §16): building
//! an access category's aggregate, the receiver's per-MPDU handling,
//! and settling the flight against the block ack (or its absence).
//!
//! QoS stations never touch the legacy `Attempt` machinery: each
//! access category owns a queue and at most one in-flight
//! [`AmpduFlight`], and contends as one lane of the shared procedure
//! in `access.rs`. Everything here is reached only from EDCA stations,
//! so a world with [`MacConfig::edca`](super::MacConfig::edca) off
//! executes byte-identically to the pre-EDCA MAC.

use super::{
    AccessCategory, AmpduFlight, AmpduMpdu, BaResult, Expecting, MacEvent, PendingTx, StationId,
    WlanWorld,
};
use crate::frame::{Frame, SequenceControl, Subtype};
use wn_phy::units::Dbm;
use wn_sim::trace::{Level, TraceEvent};
use wn_sim::{Scheduler, SimTime};

impl WlanWorld {
    /// Builds a fresh [`AmpduFlight`] for one AC from its queue head:
    /// a same-receiver run of MSDUs capped by the aggregation limits,
    /// the AC's TXOP budget and the 64-wide block-ack window.
    fn edca_build_flight(&mut self, id: StationId, aci: usize, now: SimTime) -> bool {
        let std = self.cfg.standard;
        let max_bytes = self.cfg.ampdu_max_bytes;
        let txop_us = self
            .cfg
            .edca_params(AccessCategory::from_index(aci).expect("4 ACs"))
            .txop_us;
        let (peer, head_wire) = {
            let e = self.stations[id].edca.as_ref().expect("EDCA station");
            let Some(head) = e.acs[aci].queue.front() else {
                return false;
            };
            let f = self.frames.get(head.frame);
            (
                f.receiver(),
                f.header_len() + f.body.len() + 4 + crate::duration::AMPDU_DELIMITER_LEN,
            )
        };
        let rate = if peer.is_group() {
            std.base_rate()
        } else {
            self.stations[id].arf.current_rate(peer)
        };
        let budget = crate::duration::txop_mpdu_budget(std, rate, txop_us, head_wire);
        let n_cap = self.cfg.ampdu_max_mpdus.clamp(1, 64).min(budget);
        let mut mpdus: Vec<AmpduMpdu> = Vec::new();
        let mut bytes = 0usize;
        while mpdus.len() < n_cap {
            let take = {
                let e = self.stations[id].edca.as_ref().expect("EDCA station");
                match e.acs[aci].queue.front() {
                    None => false,
                    Some(m) => {
                        let f = self.frames.get(m.frame);
                        f.receiver() == peer
                            && (mpdus.is_empty() || bytes + f.body.len() <= max_bytes)
                    }
                }
            };
            if !take {
                break;
            }
            let m = self.stations[id].edca.as_mut().expect("EDCA station").acs[aci]
                .queue
                .pop_front()
                .expect("peeked above");
            bytes += self.frames.get(m.frame).body.len();
            self.queue_gauge.add(now, -1.0);
            let seq = self.stations[id].seq.next();
            mpdus.push(AmpduMpdu {
                msdu: m,
                seq,
                retries: 0,
            });
        }
        if mpdus.is_empty() {
            return false;
        }
        let ssn = mpdus[0].seq;
        self.stations[id].edca.as_mut().expect("EDCA station").acs[aci].flight =
            Some(AmpduFlight {
                mpdus,
                rate,
                ssn,
                built: None,
            });
        true
    }

    /// Puts the AC's aggregate on the air and arms the block-ack wait.
    pub(super) fn edca_transmit(
        &mut self,
        id: StationId,
        aci: usize,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let have_flight = self.stations[id].edca.as_ref().expect("EDCA station").acs[aci]
            .flight
            .is_some()
            || self.edca_build_flight(id, aci, now);
        if !have_flight {
            return; // Queue drained underneath the access win.
        }
        let std = self.cfg.standard;
        // Build (or reuse after a lost BA) the aggregate wire frame:
        // one QosData whose body is a [seq, len, payload] run.
        let (fid, rate, ssn, bits) = {
            let flight = self.stations[id].edca.as_mut().expect("EDCA station").acs[aci]
                .flight
                .as_mut()
                .expect("checked above");
            let ssn = flight.ssn;
            let mut bits = 0u64;
            for m in &flight.mpdus {
                let off = m.seq.wrapping_sub(ssn) & 0x0FFF;
                debug_assert!((off as usize) < 64, "aggregate exceeds BA window");
                bits |= 1 << (off & 63);
            }
            let fid = match flight.built {
                Some(f) => f,
                None => {
                    let base = self.frames.get(flight.mpdus[0].msdu.frame);
                    let mut f = base.clone();
                    f.fc.subtype = Subtype::QosData;
                    f.fc.retry = flight.mpdus.iter().any(|m| m.retries > 0);
                    f.fc.more_fragments = false;
                    f.seq = Some(SequenceControl {
                        fragment: 0,
                        sequence: ssn,
                    });
                    f.duration_id = if f.receiver().is_group() {
                        0
                    } else {
                        crate::duration::ampdu_duration(std)
                    };
                    let mut body = Vec::new();
                    for m in &flight.mpdus {
                        let mb = &self.frames.get(m.msdu.frame).body;
                        body.extend_from_slice(&m.seq.to_le_bytes());
                        body.extend_from_slice(&(mb.len() as u16).to_le_bytes());
                        body.extend_from_slice(mb);
                    }
                    f.body = body;
                    let fid = self.frames.insert(f);
                    flight.built = Some(fid);
                    fid
                }
            };
            (fid, flight.rate, ssn, bits)
        };
        self.trace.event(
            now,
            Level::Debug,
            "mac",
            TraceEvent::AmpduTx {
                station: id as u32,
                ac: aci as u8,
                ssn,
                bitmap: bits,
            },
        );
        let is_group = self.frames.get(fid).receiver().is_group();
        self.frames.retain(fid); // The record's reference.
        self.stations[id].edca.as_mut().expect("EDCA station").tx_ac = Some(aci);
        self.start_transmission(id, fid, rate, now, sched);
        if is_group {
            self.dcf.expecting[id] = None;
        } else {
            self.dcf.timer_gen[id] += 1;
            self.dcf.expecting[id] = Some((Expecting::BlockAck, self.dcf.timer_gen[id]));
        }
    }

    /// Receiver side of a QoS aggregate: per-MPDU loss draws, dedup,
    /// delivery, and the SIFS-spaced compressed block ack.
    pub(super) fn on_qos_data(
        &mut self,
        r: StationId,
        frame: &Frame,
        rssi: Dbm,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let Some(tx) = frame.transmitter() else {
            return;
        };
        let ssn = frame.seq.map_or(0, |s| s.sequence);
        let unicast = !frame.receiver().is_group();
        let loss = self.cfg.ampdu_per_mpdu_loss;
        // Per-MPDU header template (cheap: no aggregate body copy).
        let mut header = frame.clone();
        header.body = Vec::new();
        header.fc.more_fragments = false;
        let mut bitmap = 0u64;
        let body = &frame.body;
        let mut off = 0usize;
        while off + 4 <= body.len() {
            let seq = u16::from_le_bytes([body[off], body[off + 1]]);
            let len = u16::from_le_bytes([body[off + 2], body[off + 3]]) as usize;
            off += 4;
            if off + len > body.len() {
                break; // Truncated delimiter run; stop parsing.
            }
            let payload = &body[off..off + len];
            off += len;
            if loss > 0.0 && self.rng.chance(loss) {
                // The delimiter/CRC of this subframe failed even though
                // the PPDU decoded: the BA simply omits its bit.
                self.stations[r].stats.rx_errors += 1;
                continue;
            }
            let bit = seq.wrapping_sub(ssn) & 0x0FFF;
            if (bit as usize) < 64 {
                bitmap |= 1 << bit;
            }
            let sc = SequenceControl {
                fragment: 0,
                sequence: seq,
            };
            // Duplicates still get their BA bit (the lost thing may
            // have been the previous BA), but are not re-delivered.
            if unicast && self.stations[r].dedup.check(tx, sc, frame.fc.retry) {
                self.stations[r].stats.rx_duplicates += 1;
                continue;
            }
            let mut one = header.clone();
            one.body = payload.to_vec();
            one.seq = Some(sc);
            self.deliver(r, &one, rssi, now, sched);
        }
        if unicast {
            let my = self.stations[r].addr;
            let ba = Frame::block_ack(tx, my, ssn, bitmap);
            self.schedule_sifs(r, PendingTx::Control(ba), sched);
        }
    }

    /// Sender side of a received block ack.
    pub(super) fn on_block_ack(
        &mut self,
        id: StationId,
        frame: &Frame,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let Some((Expecting::BlockAck, _)) = self.dcf.expecting[id] else {
            return;
        };
        let (Some(ssn), Some(bitmap)) = (frame.ba_ssn(), frame.ba_bitmap()) else {
            return;
        };
        self.dcf.expecting[id] = None;
        self.dcf.timer_gen[id] += 1; // Cancel the BA timeout.
        self.qos_resolve_flight(id, BaResult::Ba(ssn, bitmap), now, sched);
    }

    /// Settles the in-flight aggregate against a block ack (or its
    /// absence): acked MPDUs complete, the rest retry until the limit,
    /// and the flight either re-contends with the survivors or ends.
    pub(super) fn qos_resolve_flight(
        &mut self,
        id: StationId,
        ba: BaResult,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let Some(aci) = self.stations[id].edca.as_mut().and_then(|e| e.tx_ac.take()) else {
            return;
        };
        let Some(mut flight) = self.stations[id].edca.as_mut().expect("EDCA station").acs[aci]
            .flight
            .take()
        else {
            return;
        };
        if let Some(b) = flight.built.take() {
            self.frames.release(b);
        }
        let limit = self.cfg.retry_limit_short + u32::from(self.cfg.failpoint_retry_overrun);
        let peer = self.frames.get(flight.mpdus[0].msdu.frame).receiver();
        let flight_ssn = flight.ssn;
        let mut acked_bits = 0u64;
        let mut any_acked = false;
        let mut remaining: Vec<AmpduMpdu> = Vec::new();
        let mut outcomes: Vec<(Frame, bool)> = Vec::new();
        for mut m in flight.mpdus.drain(..) {
            let acked = match ba {
                BaResult::Ba(ssn, bm) => {
                    let o = m.seq.wrapping_sub(ssn) & 0x0FFF;
                    (o as usize) < 64 && (bm >> o) & 1 == 1
                }
                BaResult::Timeout => false,
                BaResult::Broadcast => true,
            };
            if acked {
                any_acked = true;
                let off = m.seq.wrapping_sub(flight_ssn) & 0x0FFF;
                if (off as usize) < 64 {
                    acked_bits |= 1 << off;
                }
                let delay_us = now
                    .saturating_duration_since(m.msdu.enqueued)
                    .as_micros_f64();
                let s = &mut self.stations[id];
                s.stats.tx_completions += 1;
                s.stats.access_delay_us.record(delay_us);
                self.access_delay_hist.record(delay_us as u64);
                self.ac_delay_hist[aci].record(delay_us as u64);
                self.trace.event(
                    now,
                    Level::Debug,
                    "mac",
                    TraceEvent::TxOutcome {
                        station: id as u32,
                        ok: true,
                    },
                );
                outcomes.push((self.frames.remove(m.msdu.frame), true));
            } else {
                m.retries += 1;
                if m.retries > limit {
                    self.stations[id].stats.tx_failures += 1;
                    self.trace.event(
                        now,
                        Level::Warn,
                        "mac",
                        TraceEvent::MpduDrop {
                            station: id as u32,
                            ac: aci as u8,
                            seq: m.seq,
                        },
                    );
                    self.trace.event(
                        now,
                        Level::Debug,
                        "mac",
                        TraceEvent::TxOutcome {
                            station: id as u32,
                            ok: false,
                        },
                    );
                    outcomes.push((self.frames.remove(m.msdu.frame), false));
                } else {
                    self.stations[id].stats.retries += 1;
                    // Same shape as the legacy retry ladder so the
                    // retry-bound and trace-metrics oracles cover the
                    // QoS path too: `retries` is this MPDU's attempt
                    // counter, bounded by the short limit.
                    self.trace.event(
                        now,
                        Level::Debug,
                        "mac",
                        TraceEvent::Retry {
                            station: id as u32,
                            short: m.retries,
                            long: 0,
                        },
                    );
                    remaining.push(m);
                }
            }
        }
        if any_acked {
            // The *effective* completion set: bits are relative to the
            // transmitted aggregate's SSN, and an MPDU leaves the
            // flight the moment it completes, so no seq can ever
            // appear in two BlockAckRx events.
            self.trace.event(
                now,
                Level::Debug,
                "mac",
                TraceEvent::BlockAckRx {
                    station: id as u32,
                    ac: aci as u8,
                    ssn: flight_ssn,
                    bitmap: acked_bits,
                },
            );
            self.stations[id].arf.on_success(peer);
        } else if !matches!(ba, BaResult::Broadcast) {
            self.stations[id].arf.on_failure(peer);
        }
        if remaining.is_empty() {
            self.reset_cw(id, aci);
            let e = self.stations[id].edca.as_ref().expect("EDCA station");
            if !e.acs[aci].queue.is_empty() {
                // Post-transmission backoff before the next aggregate.
                self.begin_access(id, aci, now, sched);
            }
        } else {
            flight.ssn = remaining[0].seq;
            flight.mpdus = remaining;
            let e = self.stations[id].edca.as_mut().expect("EDCA station");
            e.acs[aci].flight = Some(flight);
            self.double_cw(id, aci);
            self.begin_access(id, aci, now, sched);
        }
        for (fr, ok) in outcomes {
            self.with_upper(id, now, sched, |u, ctx| u.on_tx_result(ctx, &fr, ok));
        }
    }
}
