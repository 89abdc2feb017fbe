//! The legacy MSDU attempt: fragmentation, RTS/CTS protection, ACKs,
//! SIFS-spaced bursts and the short/long retry ladder (§4.2) — the
//! frame exchange a legacy station's single contention lane starts
//! when it wins the medium (`access.rs`).

use std::collections::VecDeque;

use super::access::DCF_LANE;
use super::{frame_kind, Attempt, BaResult, Expecting, MacEvent, PendingTx, StationId, WlanWorld};
use crate::duration::{airtime, data_duration, rts_duration};
use crate::frame::{Frame, FrameType, SequenceControl};
use wn_sim::trace::{DropReason, Level, TraceEvent};
use wn_sim::{Scheduler, SimTime};

impl WlanWorld {
    pub(super) fn maybe_start_next(
        &mut self,
        id: StationId,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        if self.stations[id].current.is_some() {
            return;
        }
        let Some(msdu) = self.stations[id].queue.pop_front() else {
            return;
        };
        self.queue_gauge.add(now, -1.0);
        // Assign a sequence number and split into fragments. The body is
        // taken out of the queued frame and kept whole in the attempt;
        // fragments are byte ranges into it, sliced out at build time.
        let seq_no = self.stations[id].seq.next();
        let frag_threshold = self.cfg.frag_threshold;
        let frame = self.frames.get_mut(msdu.frame);
        let body = std::mem::take(&mut frame.body);
        let can_fragment =
            frame.fc.subtype.frame_type() == FrameType::Data && !frame.receiver().is_group();
        let mut frag_ranges: VecDeque<(usize, usize)> = VecDeque::new();
        if can_fragment && body.len() > frag_threshold {
            let mut start = 0;
            while body.len() - start > frag_threshold {
                frag_ranges.push_back((start, start + frag_threshold));
                start += frag_threshold;
            }
            frag_ranges.push_back((start, body.len()));
        } else {
            frag_ranges.push_back((0, body.len()));
        }
        frame.seq = Some(SequenceControl {
            fragment: 0,
            sequence: seq_no,
        });
        let peer = frame.receiver();
        let use_rts = !peer.is_group()
            && frag_ranges.front().map_or(0, |&(a, b)| b - a) + 28 >= self.cfg.rts_threshold;
        let rate = if peer.is_group() {
            self.cfg.standard.base_rate()
        } else {
            self.stations[id].arf.current_rate(peer)
        };
        self.stations[id].current = Some(Attempt {
            msdu,
            body,
            frag_ranges,
            frag_number: 0,
            short_retries: 0,
            long_retries: 0,
            use_rts,
            cts_received: false,
            rate,
            is_retry: false,
            built: None,
        });
        self.begin_access(id, DCF_LANE, now, sched);
    }

    /// Transmits the next protocol unit of the current attempt (RTS or
    /// the pending fragment).
    pub(super) fn transmit_current(
        &mut self,
        id: StationId,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let std = self.cfg.standard;
        let timing = std.mac_timing();
        let addr = self.stations[id].addr;
        let (frame, rate, expect) = {
            let Some(at) = self.stations[id].current.as_mut() else {
                return;
            };
            if at.use_rts && !at.cts_received {
                // RTS first. Its NAV covers the whole exchange.
                let body_len = at.frag_ranges.front().map_or(0, |&(a, b)| b - a);
                let base = self.frames.get(at.msdu.frame);
                let data_len = base.header_len() + body_len + 4;
                let data_air = airtime(&timing, at.rate, data_len);
                let ra = base.receiver();
                let rts = Frame::rts(ra, addr, rts_duration(std, data_air));
                // The fresh reference goes straight to the record.
                (
                    self.frames.insert(rts),
                    std.base_rate(),
                    Some(Expecting::Cts),
                )
            } else {
                // Reuse the cached wire frame on retries of the same
                // fragment; rebuild only when the inputs changed.
                let fid = match at.built {
                    Some(fid) => fid,
                    None => {
                        let base = self.frames.get(at.msdu.frame);
                        let mut f = base.clone();
                        let header_len = base.header_len();
                        f.body = at
                            .frag_ranges
                            .front()
                            .map(|&(a, b)| at.body[a..b].to_vec())
                            .unwrap_or_default();
                        let more = at.frag_ranges.len() > 1;
                        f.fc.more_fragments = more;
                        f.fc.retry = at.is_retry;
                        let sequence = f.seq.expect("assigned at queue").sequence;
                        f.seq = Some(SequenceControl {
                            fragment: at.frag_number,
                            sequence,
                        });
                        let next_air = at
                            .frag_ranges
                            .get(1)
                            .map(|&(a, b)| airtime(&timing, at.rate, header_len + (b - a) + 4));
                        f.duration_id = if f.receiver().is_group() {
                            0
                        } else {
                            data_duration(std, more, next_air)
                        };
                        let fid = self.frames.insert(f);
                        at.built = Some(fid);
                        fid
                    }
                };
                // One reference for the record on top of the attempt's
                // cached one.
                self.frames.retain(fid);
                let expect =
                    (!self.frames.get(fid).receiver().is_group()).then_some(Expecting::Ack);
                (fid, at.rate, expect)
            }
        };
        self.start_transmission(id, frame, rate, now, sched);
        // The response timeout is armed when our transmission *ends*
        // (handled in TxEnd for the source); remember what we expect.
        if let Some(e) = expect {
            self.dcf.timer_gen[id] += 1;
            self.dcf.expecting[id] = Some((e, self.dcf.timer_gen[id]));
        } else {
            self.dcf.expecting[id] = None;
        }
    }

    pub(super) fn schedule_sifs(
        &mut self,
        id: StationId,
        action: PendingTx,
        sched: &mut Scheduler<MacEvent>,
    ) {
        self.dcf.timer_gen[id] += 1;
        let gen = self.dcf.timer_gen[id];
        self.stations[id].pending = Some((action, gen));
        sched.schedule_in(self.sifs, MacEvent::SifsAction { station: id, gen });
    }

    pub(super) fn on_ack(&mut self, id: StationId, now: SimTime, sched: &mut Scheduler<MacEvent>) {
        let Some((Expecting::Ack, _)) = self.dcf.expecting[id] else {
            return;
        };
        self.dcf.expecting[id] = None;
        self.dcf.timer_gen[id] += 1; // Cancel the timeout.
        let peer = self.stations[id]
            .current
            .as_ref()
            .map(|a| self.frames.get(a.msdu.frame).receiver());
        if let Some(p) = peer {
            self.stations[id].arf.on_success(p);
        }
        let more = {
            let at = self.stations[id]
                .current
                .as_mut()
                .expect("ACK implies attempt");
            at.frag_ranges.pop_front();
            at.short_retries = 0;
            at.long_retries = 0;
            at.is_retry = false;
            if let Some(b) = at.built.take() {
                // The acknowledged fragment's wire frame is done; only
                // the in-flight record still references it.
                self.frames.release(b);
            }
            if !at.frag_ranges.is_empty() {
                at.frag_number += 1;
                true
            } else {
                false
            }
        };
        if more {
            // Continue the burst SIFS-spaced without re-contending.
            self.schedule_sifs(id, PendingTx::NextFragment, sched);
        } else {
            self.complete_attempt(id, true, now, sched);
        }
    }

    pub(super) fn on_cts(&mut self, id: StationId, now: SimTime, sched: &mut Scheduler<MacEvent>) {
        let _ = now;
        let Some((Expecting::Cts, _)) = self.dcf.expecting[id] else {
            return;
        };
        self.dcf.expecting[id] = None;
        self.dcf.timer_gen[id] += 1;
        if let Some(at) = self.stations[id].current.as_mut() {
            at.cts_received = true;
        }
        self.schedule_sifs(id, PendingTx::DataAfterCts, sched);
    }

    pub(super) fn complete_attempt(
        &mut self,
        id: StationId,
        success: bool,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let Some(at) = self.stations[id].current.take() else {
            return;
        };
        self.dcf.expecting[id] = None;
        self.reset_cw(id, DCF_LANE);
        if success {
            let s = &mut self.stations[id];
            s.stats.tx_completions += 1;
            let delay_us = now
                .saturating_duration_since(at.msdu.enqueued)
                .as_micros_f64();
            s.stats.access_delay_us.record(delay_us);
            self.access_delay_hist.record(delay_us as u64);
        } else {
            self.stations[id].stats.tx_failures += 1;
        }
        // Hand the upper layer the MSDU as it queued it: moved out of
        // the arena with the original body restored (it was taken into
        // the attempt at queue time) and the More Fragments bit clear —
        // fragmentation is a MAC transfer detail, finished either way
        // by now.
        let mut frame = self.frames.remove(at.msdu.frame);
        frame.body = at.body;
        frame.fc.more_fragments = false;
        if let Some(b) = at.built {
            // A failed attempt can still hold a cached wire frame.
            self.frames.release(b);
        }
        self.trace.event(
            now,
            Level::Debug,
            "mac",
            TraceEvent::TxOutcome {
                station: id as u32,
                ok: success,
            },
        );
        if !success {
            self.trace.event(
                now,
                Level::Warn,
                "mac",
                TraceEvent::Drop {
                    station: id as u32,
                    kind: frame_kind(frame.fc.subtype),
                    reason: DropReason::RetryLimit,
                },
            );
        }
        self.with_upper(id, now, sched, |u, ctx| {
            u.on_tx_result(ctx, &frame, success)
        });
        // Post-transmission backoff, then next MSDU.
        self.maybe_start_next(id, now, sched);
    }

    pub(super) fn handle_response_timeout(
        &mut self,
        id: StationId,
        gen: u64,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let Some((exp, g)) = self.dcf.expecting[id] else {
            return;
        };
        if g != gen {
            return;
        }
        if exp == Expecting::BlockAck {
            // The block ack never came: every MPDU of the aggregate
            // missed this round.
            self.dcf.expecting[id] = None;
            self.qos_resolve_flight(id, BaResult::Timeout, now, sched);
            return;
        }
        self.dcf.expecting[id] = None;

        let peer = self.stations[id]
            .current
            .as_ref()
            .map(|a| self.frames.get(a.msdu.frame).receiver());
        if let Some(p) = peer {
            self.stations[id].arf.on_failure(p);
        }
        let overrun = u32::from(self.cfg.failpoint_retry_overrun);
        let cfg_short = self.cfg.retry_limit_short + overrun;
        let cfg_long = self.cfg.retry_limit_long + overrun;
        let (exceeded, short, long) = {
            let Some(at) = self.stations[id].current.as_mut() else {
                return;
            };
            if !at.is_retry {
                // The retry bit flips into the wire image; release the
                // cached frame so the next transmit rebuilds it. Later
                // retries of the same fragment reuse that rebuild.
                at.is_retry = true;
                if let Some(b) = at.built.take() {
                    self.frames.release(b);
                }
            }
            let exceeded = match exp {
                Expecting::Cts => {
                    at.short_retries += 1;
                    at.cts_received = false;
                    at.short_retries > cfg_short
                }
                Expecting::Ack => {
                    if at.use_rts {
                        at.long_retries += 1;
                        at.cts_received = false;
                        at.long_retries > cfg_long
                    } else {
                        at.short_retries += 1;
                        at.short_retries > cfg_short
                    }
                }
                Expecting::BlockAck => unreachable!("handled by qos_resolve_flight above"),
            };
            (exceeded, at.short_retries, at.long_retries)
        };
        if exceeded {
            self.complete_attempt(id, false, now, sched);
        } else {
            self.stations[id].stats.retries += 1;
            self.trace.event(
                now,
                Level::Debug,
                "mac",
                TraceEvent::Retry {
                    station: id as u32,
                    short,
                    long,
                },
            );
            // Double the contention window and re-contend (BEB).
            self.double_cw(id, DCF_LANE);
            self.begin_access(id, DCF_LANE, now, sched);
        }
    }

    pub(super) fn handle_sifs_action(
        &mut self,
        id: StationId,
        gen: u64,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let Some((action, g)) = self.stations[id].pending.take() else {
            return;
        };
        if g != gen {
            return;
        }
        if self.dcf.transmitting[id].is_some() {
            return; // Half-duplex guard.
        }
        match action {
            PendingTx::Control(frame) => {
                let rate = self.cfg.standard.base_rate();
                let fid = self.frames.insert(frame);
                self.start_transmission(id, fid, rate, now, sched);
            }
            PendingTx::NextFragment | PendingTx::DataAfterCts => {
                self.transmit_current(id, now, sched);
            }
        }
    }
}
