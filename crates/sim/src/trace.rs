//! Bounded event tracing.
//!
//! A [`Trace`] is a ring buffer of timestamped [`Record`]s. Each record is
//! plain `Copy` data around one typed [`TraceEvent`], so retention
//! allocates nothing and tests, oracles and exporters match on events
//! structurally. The buffer exists for three reasons: interactive
//! debugging of protocol exchanges (print the last N MAC events), test
//! assertions about *ordering* ("the CTS was sent after the RTS", "no
//! data frame preceded association"), and machine-readable JSONL export
//! ([`Trace::to_jsonl`]) for offline analysis of campaign runs.
//!
//! # Eviction contract
//!
//! The buffer is bounded: once `capacity` records are retained, each new
//! record evicts the oldest and increments [`Trace::dropped`]. All query
//! methods operate on the *retained window only*. The ordering query
//! [`Trace::happened_before_events`] **panics** when any record has been
//! evicted, because the first occurrence of either event may have been
//! lost and the answer would be arbitrary; size the buffer so nothing is
//! evicted ([`Trace::new`] with a larger capacity).
//!
//! # Process-global kill switch
//!
//! [`set_observability`] disables record retention process-wide so the
//! cost of the layer can be measured (`perfsuite` runs the campaign once
//! with tracing on and once with it off). Simulation results never
//! depend on trace contents, so toggling it cannot change figures.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::json;
use crate::time::SimTime;

static OBSERVABILITY: AtomicBool = AtomicBool::new(true);

/// Enables or disables all trace retention in this process.
///
/// Used by `perfsuite` to measure the overhead of the observability
/// layer. Defaults to enabled.
pub fn set_observability(enabled: bool) {
    OBSERVABILITY.store(enabled, Ordering::Relaxed);
}

/// `true` when trace retention is enabled (the default).
pub fn observability_enabled() -> bool {
    OBSERVABILITY.load(Ordering::Relaxed)
}

/// Importance of a trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// High-volume per-frame detail.
    Debug,
    /// Normal protocol milestones (association, handoff, crack success).
    Info,
    /// Abnormal but recoverable conditions (retry limit, CRC failure).
    Warn,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
        }
    }
}

/// Frame class carried by tx/rx/drop events.
///
/// Mirrors the 802.11 subtype lattice but is protocol-agnostic: other
/// MACs map their frame classes onto the nearest variant (or
/// [`FrameKind::Other`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FrameKind {
    /// Association request.
    AssocReq,
    /// Association response.
    AssocResp,
    /// Reassociation request.
    ReassocReq,
    /// Reassociation response.
    ReassocResp,
    /// Probe request.
    ProbeReq,
    /// Probe response.
    ProbeResp,
    /// Beacon.
    Beacon,
    /// Announcement traffic indication message.
    Atim,
    /// Disassociation notice.
    Disassoc,
    /// Authentication frame.
    Auth,
    /// Deauthentication notice.
    Deauth,
    /// Power-save poll.
    PsPoll,
    /// Request-to-send.
    Rts,
    /// Clear-to-send.
    Cts,
    /// Acknowledgement.
    Ack,
    /// Data frame.
    Data,
    /// Data frame with empty body (power-management signalling).
    NullData,
    /// QoS data frame / A-MPDU aggregate (802.11e/n).
    QosData,
    /// Block Ack Request.
    BlockAckReq,
    /// Compressed Block Ack.
    BlockAck,
    /// Anything a particular MAC cannot map onto the variants above.
    Other,
}

/// Why a frame or MSDU was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Transmit queue was at its configured limit.
    QueueFull,
    /// Retry limit exhausted without an acknowledgement.
    RetryLimit,
    /// No route / next hop available.
    NoRoute,
    /// Lost to collision or channel error.
    Collision,
    /// Hop / TTL budget exhausted in a mesh.
    HopLimit,
}

/// A structured trace event.
///
/// Station identifiers are world-local indices (the same `usize` ids the
/// simulation worlds use, narrowed to `u32`). The enum deliberately
/// spans every protocol family in the workspace so one exporter and one
/// set of test helpers serve all crates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TraceEvent {
    /// A frame was put on the air.
    Tx {
        /// Transmitting station.
        station: u32,
        /// Frame class.
        kind: FrameKind,
        /// On-air length in bytes.
        len: u32,
        /// PHY data rate in Mb/s.
        rate_mbps: f64,
    },
    /// A frame was received and accepted.
    Rx {
        /// Receiving station.
        station: u32,
        /// Frame class.
        kind: FrameKind,
        /// On-air length in bytes.
        len: u32,
        /// Received signal strength in dBm.
        rssi_dbm: f64,
    },
    /// A frame or MSDU was discarded.
    Drop {
        /// Station discarding the frame.
        station: u32,
        /// Frame class.
        kind: FrameKind,
        /// Why it was discarded.
        reason: DropReason,
    },
    /// Contention backoff armed.
    Backoff {
        /// Station deferring.
        station: u32,
        /// Slots drawn from the contention window.
        slots: u32,
        /// Current contention window size.
        cw: u32,
    },
    /// Virtual carrier-sense (NAV) reservation observed.
    Nav {
        /// Station honouring the reservation.
        station: u32,
        /// Reservation end, microseconds of virtual time.
        until_us: u64,
    },
    /// A transmission attempt is being retried.
    Retry {
        /// Retrying station.
        station: u32,
        /// Short retry counter after the increment.
        short: u32,
        /// Long retry counter after the increment.
        long: u32,
    },
    /// Final outcome of an MSDU handed to the MAC.
    TxOutcome {
        /// Originating station.
        station: u32,
        /// `true` on acknowledged delivery, `false` on failure.
        ok: bool,
    },
    /// Association (or reassociation) completed.
    Assoc {
        /// Station that associated (STA side) or granted (AP side).
        station: u32,
        /// Association identifier assigned by the AP.
        aid: u16,
    },
    /// Station moved to a different point of attachment.
    Handoff {
        /// Roaming station.
        station: u32,
    },
    /// Power-save state transition.
    PowerSave {
        /// Station changing state.
        station: u32,
        /// `true` when entering doze, `false` when waking.
        doze: bool,
    },
    /// A node joined a network/piconet under a parent/master.
    Join {
        /// Joining node.
        station: u32,
        /// Parent, coordinator or piconet master.
        parent: u32,
    },
    /// Piconet master polled a slave (TDD slot pair).
    Poll {
        /// Polling master.
        station: u32,
        /// Polled slave.
        peer: u32,
        /// Slot pairs exchanged.
        slots: u32,
    },
    /// Scheduler granted capacity to a subscriber for one frame.
    Grant {
        /// Subscriber station.
        station: u32,
        /// Bytes moved under the grant.
        bytes: u64,
        /// `true` for an uplink grant, `false` for downlink.
        uplink: bool,
    },
    /// End-to-end delivery in a multi-hop network.
    Deliver {
        /// Destination node.
        station: u32,
        /// Payload bytes delivered.
        bytes: u64,
        /// Hops traversed.
        hops: u32,
    },
    /// One forwarding hop in a multi-hop network.
    Forward {
        /// Node doing the forwarding.
        station: u32,
        /// Final destination node.
        dst: u32,
        /// Hops traversed so far.
        hops: u32,
    },
    /// Key-recovery progress in a security experiment.
    Crack {
        /// Attacking station.
        station: u32,
        /// Attack method label.
        method: &'static str,
        /// Whether the key was recovered.
        ok: bool,
    },
    /// EDCA per-access-category contention backoff armed (802.11e).
    EdcaBackoff {
        /// Station deferring.
        station: u32,
        /// Access category (0 = AC_VO … 3 = AC_BK).
        ac: u8,
        /// Slots drawn from the category's contention window.
        slots: u32,
        /// The category's current contention window size.
        cw: u32,
    },
    /// An A-MPDU aggregate was put on the air. Bit `k` of `bitmap` set
    /// means an MPDU with sequence number `ssn + k` rode the aggregate.
    AmpduTx {
        /// Transmitting station.
        station: u32,
        /// Access category of the aggregate.
        ac: u8,
        /// Starting sequence number of the block-ack window.
        ssn: u16,
        /// MPDU presence bitmap relative to `ssn`.
        bitmap: u64,
    },
    /// A block ack was processed by the originator. Bit `k` of `bitmap`
    /// set means the MPDU with sequence `ssn + k` was acknowledged and
    /// completed by this block ack (already-completed sequences are
    /// masked out, so each sequence number completes at most once).
    BlockAckRx {
        /// Originating (data-sending) station processing the BA.
        station: u32,
        /// Access category of the acknowledged aggregate.
        ac: u8,
        /// Starting sequence number of the block-ack window.
        ssn: u16,
        /// Acknowledged-MPDU bitmap relative to `ssn`.
        bitmap: u64,
    },
    /// An MPDU exhausted its retry budget and left the block-ack
    /// window unacknowledged.
    MpduDrop {
        /// Originating station dropping the MPDU.
        station: u32,
        /// Access category of the dropped MPDU.
        ac: u8,
        /// Sequence number of the dropped MPDU.
        seq: u16,
    },
}

impl TraceEvent {
    /// Stable discriminant used as the JSON `type` field.
    pub fn type_tag(&self) -> &'static str {
        match self {
            TraceEvent::Tx { .. } => "tx",
            TraceEvent::Rx { .. } => "rx",
            TraceEvent::Drop { .. } => "drop",
            TraceEvent::Backoff { .. } => "backoff",
            TraceEvent::Nav { .. } => "nav",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::TxOutcome { .. } => "tx_outcome",
            TraceEvent::Assoc { .. } => "assoc",
            TraceEvent::Handoff { .. } => "handoff",
            TraceEvent::PowerSave { .. } => "power_save",
            TraceEvent::Join { .. } => "join",
            TraceEvent::Poll { .. } => "poll",
            TraceEvent::Grant { .. } => "grant",
            TraceEvent::Deliver { .. } => "deliver",
            TraceEvent::Forward { .. } => "forward",
            TraceEvent::Crack { .. } => "crack",
            TraceEvent::EdcaBackoff { .. } => "edca_backoff",
            TraceEvent::AmpduTx { .. } => "ampdu_tx",
            TraceEvent::BlockAckRx { .. } => "block_ack_rx",
            TraceEvent::MpduDrop { .. } => "mpdu_drop",
        }
    }

    /// Station the event is attributed to.
    pub fn station(&self) -> u32 {
        match *self {
            TraceEvent::Tx { station, .. }
            | TraceEvent::Rx { station, .. }
            | TraceEvent::Drop { station, .. }
            | TraceEvent::Backoff { station, .. }
            | TraceEvent::Nav { station, .. }
            | TraceEvent::Retry { station, .. }
            | TraceEvent::TxOutcome { station, .. }
            | TraceEvent::Assoc { station, .. }
            | TraceEvent::Handoff { station }
            | TraceEvent::PowerSave { station, .. }
            | TraceEvent::Join { station, .. }
            | TraceEvent::Poll { station, .. }
            | TraceEvent::Grant { station, .. }
            | TraceEvent::Deliver { station, .. }
            | TraceEvent::Forward { station, .. }
            | TraceEvent::Crack { station, .. }
            | TraceEvent::EdcaBackoff { station, .. }
            | TraceEvent::AmpduTx { station, .. }
            | TraceEvent::BlockAckRx { station, .. }
            | TraceEvent::MpduDrop { station, .. } => station,
        }
    }

    /// Appends the event's JSON fields (starting with `"type"`) to `out`.
    fn write_json_fields(&self, out: &mut String) {
        out.push_str("\"type\":\"");
        out.push_str(self.type_tag());
        out.push('"');
        out.push_str(",\"station\":");
        out.push_str(&self.station().to_string());
        match *self {
            TraceEvent::Tx {
                kind,
                len,
                rate_mbps,
                ..
            } => {
                json::push_str_field(out, "kind", &format!("{kind:?}"));
                json::push_u64_field(out, "len", u64::from(len));
                json::push_f64_field(out, "rate_mbps", rate_mbps);
            }
            TraceEvent::Rx {
                kind,
                len,
                rssi_dbm,
                ..
            } => {
                json::push_str_field(out, "kind", &format!("{kind:?}"));
                json::push_u64_field(out, "len", u64::from(len));
                json::push_f64_field(out, "rssi_dbm", rssi_dbm);
            }
            TraceEvent::Drop { kind, reason, .. } => {
                json::push_str_field(out, "kind", &format!("{kind:?}"));
                json::push_str_field(out, "reason", &format!("{reason:?}"));
            }
            TraceEvent::Backoff { slots, cw, .. } => {
                json::push_u64_field(out, "slots", u64::from(slots));
                json::push_u64_field(out, "cw", u64::from(cw));
            }
            TraceEvent::Nav { until_us, .. } => {
                json::push_u64_field(out, "until_us", until_us);
            }
            TraceEvent::Retry { short, long, .. } => {
                json::push_u64_field(out, "short", u64::from(short));
                json::push_u64_field(out, "long", u64::from(long));
            }
            TraceEvent::TxOutcome { ok, .. } => {
                json::push_bool_field(out, "ok", ok);
            }
            TraceEvent::Assoc { aid, .. } => {
                json::push_u64_field(out, "aid", u64::from(aid));
            }
            TraceEvent::Handoff { .. } => {}
            TraceEvent::PowerSave { doze, .. } => {
                json::push_bool_field(out, "doze", doze);
            }
            TraceEvent::Join { parent, .. } => {
                json::push_u64_field(out, "parent", u64::from(parent));
            }
            TraceEvent::Poll { peer, slots, .. } => {
                json::push_u64_field(out, "peer", u64::from(peer));
                json::push_u64_field(out, "slots", u64::from(slots));
            }
            TraceEvent::Grant { bytes, uplink, .. } => {
                json::push_u64_field(out, "bytes", bytes);
                json::push_bool_field(out, "uplink", uplink);
            }
            TraceEvent::Deliver { bytes, hops, .. } => {
                json::push_u64_field(out, "bytes", bytes);
                json::push_u64_field(out, "hops", u64::from(hops));
            }
            TraceEvent::Forward { dst, hops, .. } => {
                json::push_u64_field(out, "dst", u64::from(dst));
                json::push_u64_field(out, "hops", u64::from(hops));
            }
            TraceEvent::Crack { method, ok, .. } => {
                json::push_str_field(out, "method", method);
                json::push_bool_field(out, "ok", ok);
            }
            TraceEvent::EdcaBackoff { ac, slots, cw, .. } => {
                json::push_u64_field(out, "ac", u64::from(ac));
                json::push_u64_field(out, "slots", u64::from(slots));
                json::push_u64_field(out, "cw", u64::from(cw));
            }
            TraceEvent::AmpduTx {
                ac, ssn, bitmap, ..
            }
            | TraceEvent::BlockAckRx {
                ac, ssn, bitmap, ..
            } => {
                json::push_u64_field(out, "ac", u64::from(ac));
                json::push_u64_field(out, "ssn", u64::from(ssn));
                json::push_u64_field(out, "bitmap", bitmap);
            }
            TraceEvent::MpduDrop { ac, seq, .. } => {
                json::push_u64_field(out, "ac", u64::from(ac));
                json::push_u64_field(out, "seq", u64::from(seq));
            }
        }
    }
}

/// One trace record.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// Virtual time of the record.
    pub at: SimTime,
    /// Importance.
    pub level: Level,
    /// Short category tag, e.g. `"mac"`, `"phy"`, `"sec"`.
    pub tag: &'static str,
    /// The typed event.
    pub event: TraceEvent,
}

/// A bounded ring buffer of trace records.
#[derive(Clone, Debug)]
pub struct Trace {
    records: VecDeque<Record>,
    capacity: usize,
    min_level: Level,
    dropped: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new(4096)
    }
}

impl Trace {
    /// Creates a trace retaining at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be positive");
        Trace {
            records: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            min_level: Level::Debug,
            dropped: 0,
        }
    }

    /// Sets the minimum level retained; lower-level records are ignored.
    pub fn set_min_level(&mut self, level: Level) {
        self.min_level = level;
    }

    /// Appends a typed event, evicting the oldest record when full.
    ///
    /// Events below the minimum level, or emitted while the
    /// process-global kill switch is off, are not retained.
    pub fn event(&mut self, at: SimTime, level: Level, tag: &'static str, event: TraceEvent) {
        if level < self.min_level || !observability_enabled() {
            return;
        }
        if self.records.len() == self.capacity {
            self.records.pop_front();
            self.dropped += 1;
        }
        self.records.push_back(Record {
            at,
            level,
            tag,
            event,
        });
    }

    /// Records currently retained, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.records.iter()
    }

    /// Typed events currently retained, oldest first, with timestamps.
    pub fn events(&self) -> impl Iterator<Item = (SimTime, &TraceEvent)> {
        self.records.iter().map(|r| (r.at, &r.event))
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when no records are retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of records evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// `true` if an event matching `a` precedes one matching `b`.
    ///
    /// The canonical ordering assertion for protocol tests: predicates
    /// match on [`TraceEvent`] variants.
    ///
    /// # Panics
    ///
    /// Panics when any record has been evicted, because the *first*
    /// occurrence of either event may have been lost and the observed
    /// order of the survivors is not evidence of the true order.
    pub fn happened_before_events(
        &self,
        a: impl Fn(&TraceEvent) -> bool,
        b: impl Fn(&TraceEvent) -> bool,
    ) -> bool {
        assert!(
            self.dropped == 0,
            "Trace::happened_before_events: {} record(s) were evicted, so first occurrences \
             may be lost and the ordering is unknowable; use a larger trace capacity",
            self.dropped
        );
        let ia = self.events().position(|(_, e)| a(e));
        let ib = self.events().position(|(_, e)| b(e));
        match (ia, ib) {
            (Some(ia), Some(ib)) => ia < ib,
            _ => false,
        }
    }

    /// Counts retained typed events matching `pred`.
    pub fn count_events(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        self.events().filter(|(_, e)| pred(e)).count()
    }

    /// Typed events attributed to `station`, oldest first.
    ///
    /// The per-station view invariant oracles reason over: events
    /// whose [`TraceEvent::station`] does not match are skipped.
    pub fn events_for(&self, station: u32) -> impl Iterator<Item = (SimTime, &TraceEvent)> {
        self.events().filter(move |(_, e)| e.station() == station)
    }

    /// The most recent retained event strictly before `at` matching
    /// `pred`, if any.
    ///
    /// Oracles use this to find the *governing* event for a later
    /// observation — e.g. the NAV reservation in force when a station
    /// started transmitting.
    pub fn last_event_before(
        &self,
        at: SimTime,
        pred: impl Fn(&TraceEvent) -> bool,
    ) -> Option<(SimTime, &TraceEvent)> {
        self.events()
            .take_while(|&(t, _)| t < at)
            .filter(|(_, e)| pred(e))
            .last()
    }

    /// Serialises every retained record as one JSON object per line.
    ///
    /// `exp` tags each line with the experiment id so per-experiment
    /// dumps can be concatenated into one campaign artifact. Key order
    /// and number formatting are fixed, so equal traces produce
    /// byte-identical output.
    pub fn to_jsonl(&self, exp: &str) -> String {
        let mut out = String::with_capacity(self.records.len() * 96);
        for r in &self.records {
            out.push_str("{\"exp\":");
            json::push_str(&mut out, exp);
            out.push_str(",\"at_ns\":");
            out.push_str(&r.at.as_nanos().to_string());
            out.push_str(",\"level\":\"");
            out.push_str(r.level.as_str());
            out.push_str("\",\"tag\":");
            json::push_str(&mut out, r.tag);
            out.push(',');
            r.event.write_json_fields(&mut out);
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn tx(station: u32, kind: FrameKind) -> TraceEvent {
        TraceEvent::Tx {
            station,
            kind,
            len: 20,
            rate_mbps: 6.0,
        }
    }

    fn is_tx(kind: FrameKind) -> impl Fn(&TraceEvent) -> bool {
        move |e| matches!(e, TraceEvent::Tx { kind: k, .. } if *k == kind)
    }

    fn stations(tr: &Trace) -> Vec<u32> {
        tr.events().map(|(_, e)| e.station()).collect()
    }

    #[test]
    fn emits_and_reads_back() {
        let mut tr = Trace::new(10);
        tr.event(t(1), Level::Info, "mac", tx(1, FrameKind::Rts));
        tr.event(t(2), Level::Info, "mac", tx(0, FrameKind::Cts));
        assert_eq!(tr.len(), 2);
        let events: Vec<TraceEvent> = tr.records().map(|r| r.event).collect();
        assert_eq!(events, vec![tx(1, FrameKind::Rts), tx(0, FrameKind::Cts)]);
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut tr = Trace::new(3);
        for i in 0..5 {
            tr.event(
                t(i),
                Level::Info,
                "x",
                TraceEvent::Handoff { station: i as u32 },
            );
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.dropped(), 2);
        assert_eq!(stations(&tr), vec![2, 3, 4]);
    }

    #[test]
    fn level_filter_drops_below_min() {
        let mut tr = Trace::new(10);
        tr.set_min_level(Level::Info);
        tr.event(t(0), Level::Debug, "x", TraceEvent::Handoff { station: 0 });
        tr.event(t(1), Level::Info, "x", TraceEvent::Handoff { station: 1 });
        tr.event(t(2), Level::Warn, "x", TraceEvent::Handoff { station: 2 });
        assert_eq!(tr.len(), 2);
        assert_eq!(stations(&tr), vec![1, 2]);
        assert_eq!(tr.dropped(), 0, "filtered records are not evictions");
    }

    #[test]
    fn records_keep_time_level_and_tag() {
        let mut tr = Trace::new(4);
        tr.event(t(5), Level::Warn, "phy", TraceEvent::Handoff { station: 7 });
        let r = *tr.records().next().unwrap();
        assert_eq!(r.at, t(5));
        assert_eq!(r.level, Level::Warn);
        assert_eq!(r.tag, "phy");
        assert_eq!(r.event, TraceEvent::Handoff { station: 7 });
    }

    #[test]
    fn happened_before_orders_correctly() {
        let mut tr = Trace::new(10);
        tr.event(t(1), Level::Info, "mac", tx(1, FrameKind::Rts));
        tr.event(t(2), Level::Info, "mac", tx(0, FrameKind::Cts));
        tr.event(t(3), Level::Info, "mac", tx(1, FrameKind::Data));
        assert!(tr.happened_before_events(is_tx(FrameKind::Rts), is_tx(FrameKind::Cts)));
        assert!(tr.happened_before_events(is_tx(FrameKind::Cts), is_tx(FrameKind::Data)));
        assert!(!tr.happened_before_events(is_tx(FrameKind::Data), is_tx(FrameKind::Rts)));
        assert!(!tr.happened_before_events(is_tx(FrameKind::Ack), is_tx(FrameKind::Rts)));
    }

    /// Once the ring has evicted, the first occurrence of either event
    /// may be gone, so the ordering query refuses to answer.
    #[test]
    #[should_panic(expected = "unknowable")]
    fn happened_before_events_panics_after_eviction() {
        let mut tr = Trace::new(2);
        tr.event(t(0), Level::Info, "mac", tx(1, FrameKind::Rts));
        tr.event(t(1), Level::Info, "mac", tx(0, FrameKind::Cts));
        tr.event(t(2), Level::Info, "mac", tx(1, FrameKind::Data)); // evicts the RTS
        let _ = tr.happened_before_events(is_tx(FrameKind::Cts), is_tx(FrameKind::Data));
    }

    #[test]
    fn count_events_counts() {
        let mut tr = Trace::new(10);
        for (ms, short) in [(1u64, 1u32), (2, 2)] {
            tr.event(
                t(ms),
                Level::Info,
                "mac",
                TraceEvent::Retry {
                    station: 0,
                    short,
                    long: 0,
                },
            );
        }
        tr.event(t(3), Level::Info, "mac", tx(0, FrameKind::Ack));
        assert_eq!(
            tr.count_events(|e| matches!(e, TraceEvent::Retry { .. })),
            2
        );
        assert_eq!(tr.count_events(|e| matches!(e, TraceEvent::Drop { .. })), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = Trace::new(0);
    }

    #[test]
    fn typed_events_round_trip() {
        let mut tr = Trace::new(10);
        tr.event(t(1), Level::Debug, "mac", tx(3, FrameKind::Rts));
        tr.event(t(2), Level::Debug, "mac", tx(0, FrameKind::Cts));
        assert_eq!(tr.events().count(), 2);
        assert!(tr.happened_before_events(is_tx(FrameKind::Rts), is_tx(FrameKind::Cts)));
        assert_eq!(
            tr.count_events(|e| matches!(e, TraceEvent::Tx { station: 3, .. })),
            1
        );
    }

    #[test]
    fn events_for_and_last_event_before_query_by_station_and_time() {
        let mut tr = Trace::new(10);
        for (ms, sta, slots) in [(1u64, 0u32, 3u32), (2, 1, 7), (3, 0, 15)] {
            tr.event(
                t(ms),
                Level::Debug,
                "mac",
                TraceEvent::Backoff {
                    station: sta,
                    slots,
                    cw: 31,
                },
            );
        }
        assert_eq!(tr.events_for(0).count(), 2);
        assert_eq!(tr.events_for(1).count(), 1);
        assert_eq!(tr.events_for(9).count(), 0);
        // Strictly-before: the event at t=3 is excluded when at == t(3).
        let (when, ev) = tr
            .last_event_before(t(3), |e| e.station() == 0)
            .expect("governing event");
        assert_eq!(when, t(1));
        assert!(matches!(ev, TraceEvent::Backoff { slots: 3, .. }));
        assert!(tr.last_event_before(t(1), |_| true).is_none());
    }

    #[test]
    fn jsonl_serialises_typed_records() {
        let mut tr = Trace::new(8);
        tr.event(
            t(1),
            Level::Debug,
            "mac",
            TraceEvent::Tx {
                station: 1,
                kind: FrameKind::Data,
                len: 1534,
                rate_mbps: 54.0,
            },
        );
        tr.event(
            t(2),
            Level::Warn,
            "phy",
            TraceEvent::Drop {
                station: 2,
                kind: FrameKind::Data,
                reason: DropReason::Collision,
            },
        );
        let jsonl = tr.to_jsonl("FIG-0.0");
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"exp\":\"FIG-0.0\",\"at_ns\":1000000,\"level\":\"debug\",\"tag\":\"mac\",\
             \"type\":\"tx\",\"station\":1,\"kind\":\"Data\",\"len\":1534,\"rate_mbps\":54}"
        );
        assert_eq!(
            lines[1],
            "{\"exp\":\"FIG-0.0\",\"at_ns\":2000000,\"level\":\"warn\",\"tag\":\"phy\",\
             \"type\":\"drop\",\"station\":2,\"kind\":\"Data\",\"reason\":\"Collision\"}"
        );
    }
}
