//! The shared-medium 802.11 MAC simulation.
//!
//! This module binds the frame codec, DCF timing, duplicate detection
//! and ARF together into an event-driven model of one collision domain:
//!
//! - **Physical carrier sense** — a station defers while any
//!   transmission it can hear (above the CS threshold) is in the air.
//! - **Virtual carrier sense (NAV)** — Duration fields of overheard
//!   frames reserve the medium (§4.2), enabling RTS/CTS protection.
//! - **DCF** — DIFS + binary-exponential-backoff slotted contention,
//!   freeze-and-resume on busy, post-transmission backoff.
//! - **Reliability** — ACKs after SIFS, retries with the Retry bit,
//!   short/long retry limits, CW doubling and reset.
//! - **Fragmentation** — §4.2 More Fragments / fragment numbers; a
//!   fragment burst holds the medium with SIFS gaps.
//! - **Reception** — SINR-based error sampling over the interferer set,
//!   with the capture effect switchable (a DESIGN.md ablation).
//! - **EDCA / A-MPDU** — with [`MacConfig::edca`] on, four
//!   access-category queues contend as four lanes and the winner sends
//!   an A-MPDU answered by a compressed block ack (DESIGN.md §16).
//!
//! Higher layers (association, beacons, the distribution system — the
//! `wn-net80211` crate) plug in through the [`UpperLayer`] trait and
//! drive the MAC with [`Command`]s.
//!
//! # Map of the module
//!
//! Every submodule adds methods to [`WlanWorld`]; the state they share
//! is defined here.
//!
//! - `mod.rs` — configuration, the event and command types, station
//!   and world state, the public API, upper-layer glue and the
//!   [`World`] impl that dispatches each [`MacEvent`].
//! - `plan.rs` — propagation: link-budget rows, the audible reach, the
//!   neighbor-cache build and its mobility patches, shard planning and
//!   re-validation.
//! - `rx.rs` — the medium: a transmission's start (busy edges) and its
//!   end, where the reception decision runs (overlap filter,
//!   interference sum, SINR, error draw), then the receivers' handling
//!   of each decoded frame.
//! - `access.rs` — queue admission and the one contention procedure
//!   (begin, arm, freeze, fire) over a station's lanes: one lane with
//!   AIFS = DIFS on a legacy station, four on an EDCA station.
//! - `dcf.rs` — the MSDU attempt a legacy lane starts when it wins:
//!   fragmentation, RTS/CTS, ACK, SIFS bursts and the retry ladder.
//! - `edca.rs` — the A-MPDU flight an EDCA lane starts when it wins:
//!   aggregation, per-MPDU reception and block-ack settlement.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::addr::MacAddr;
use crate::arena::{FrameArena, FrameId};
use crate::arf::{Arf, ArfParams};
use crate::dedup::DedupCache;
use crate::frame::{Frame, SequenceCounter, Subtype};
use crate::grid::SpatialGrid;
use crate::neighbors::{AudibleSet, IdBitSet, NeighborCache, RxRow};
use wn_phy::geom::Point;
use wn_phy::medium::{LinkBudget, Radio};
use wn_phy::modulation::{PhyStandard, RateStep};
use wn_phy::propagation::{LogDistance, PathLoss};
use wn_phy::units::{Db, Dbm, Hertz};
use wn_sim::metrics::{MetricsRegistry, MetricsSnapshot};
use wn_sim::stats::{Histogram, Summary, TimeWeighted};
use wn_sim::trace::{FrameKind, Level, Trace, TraceEvent};
use wn_sim::{Rng, Scheduler, SimDuration, SimTime, World};

mod access;
mod dcf;
mod edca;
mod plan;
mod rx;

/// Maps an 802.11 frame subtype onto the protocol-agnostic trace
/// [`FrameKind`].
pub fn frame_kind(subtype: Subtype) -> FrameKind {
    match subtype {
        Subtype::AssocReq => FrameKind::AssocReq,
        Subtype::AssocResp => FrameKind::AssocResp,
        Subtype::ReassocReq => FrameKind::ReassocReq,
        Subtype::ReassocResp => FrameKind::ReassocResp,
        Subtype::ProbeReq => FrameKind::ProbeReq,
        Subtype::ProbeResp => FrameKind::ProbeResp,
        Subtype::Beacon => FrameKind::Beacon,
        Subtype::Atim => FrameKind::Atim,
        Subtype::Disassoc => FrameKind::Disassoc,
        Subtype::Auth => FrameKind::Auth,
        Subtype::Deauth => FrameKind::Deauth,
        Subtype::PsPoll => FrameKind::PsPoll,
        Subtype::Rts => FrameKind::Rts,
        Subtype::Cts => FrameKind::Cts,
        Subtype::Ack => FrameKind::Ack,
        Subtype::Data => FrameKind::Data,
        Subtype::NullData => FrameKind::NullData,
        Subtype::QosData => FrameKind::QosData,
        Subtype::BlockAckReq => FrameKind::BlockAckReq,
        Subtype::BlockAck => FrameKind::BlockAck,
    }
}

/// Index of a station within a [`WlanWorld`].
pub type StationId = usize;

/// What the caller guarantees about a world's loss closure — the one
/// selector between evaluating propagation per transmission and
/// memoizing it in the neighbor cache.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LossContract {
    /// May depend on time (fading): every transmission evaluates its
    /// row fresh, over every other station.
    TimeVarying,
    /// A pure function of geometry, possibly anisotropic (walls,
    /// shadowing): rows are memoized, each over every other station.
    Static,
    /// A pure monotone function of the pair's distance: rows are
    /// memoized over spatial-grid neighborhoods.
    StaticIsotropic,
}

/// MAC-level configuration shared by all stations in the world.
#[derive(Clone, Debug)]
pub struct MacConfig {
    /// The PHY generation everyone runs.
    pub standard: PhyStandard,
    /// Frames at least this long (bytes) are protected with RTS/CTS.
    pub rts_threshold: usize,
    /// MSDUs longer than this (bytes) are fragmented.
    pub frag_threshold: usize,
    /// Retry limit for short frames (below the RTS threshold) and RTS.
    pub retry_limit_short: u32,
    /// Retry limit for long frames.
    pub retry_limit_long: u32,
    /// Carrier-sense threshold: transmissions weaker than this at a
    /// receiver are inaudible (and become hidden-terminal interference).
    pub cs_threshold: Dbm,
    /// `true` → SINR-based capture; `false` → any overlap destroys the
    /// frame (the pure collision model).
    pub capture: bool,
    /// Enable ARF rate adaptation (off pins the top rate).
    pub arf: bool,
    /// Use AARF (adaptive probe backoff) instead of classic ARF.
    pub arf_adaptive: bool,
    /// Per-station transmit queue limit (MSDUs); overflow is dropped.
    pub queue_limit: usize,
    /// RNG seed for backoff draws and error sampling.
    pub seed: u64,
    /// Override the PHY's CWmin (binary-exponential-backoff ablation).
    pub cw_min_override: Option<u32>,
    /// Override the PHY's CWmax.
    pub cw_max_override: Option<u32>,
    /// Fault-injection switch for the fuzzer's oracle self-test: when
    /// set, the retry comparison is widened by one, so stations retry
    /// once past the configured limit. Never enabled by normal
    /// scenarios; `wn-check` uses it to prove the retry oracle can
    /// catch an off-by-one accounting bug.
    pub failpoint_retry_overrun: bool,
    /// Enable EDCA (802.11e) channel access: stations get four
    /// access-category queues with per-AC CWmin/CWmax/AIFSN/TXOP and
    /// transmit A-MPDU aggregates answered by compressed block acks.
    /// Off (the default) leaves the legacy DCF path byte-identical to
    /// pre-EDCA builds — no QoS state is even allocated.
    pub edca: bool,
    /// Maximum MPDUs aggregated into one A-MPDU (further capped by the
    /// AC's TXOP budget and the 64-bit block-ack window).
    pub ampdu_max_mpdus: usize,
    /// Maximum total payload bytes aggregated into one A-MPDU.
    pub ampdu_max_bytes: usize,
    /// Independent per-MPDU loss probability applied at a receiver
    /// that decoded the aggregate PPDU — models delimiter/CRC failures
    /// inside an otherwise-received burst, and is what makes *partial*
    /// block acks reachable. 0.0 (the default) acks all-or-nothing
    /// with the PPDU.
    pub ampdu_per_mpdu_loss: f64,
    /// Fault-injection switch for the priority-inversion oracle's
    /// self-test: swaps the AC_VO and AC_BK EDCA parameter sets at
    /// lookup, so voice contends like background traffic and the
    /// VO-p50 ≤ BK-p50 bound must trip. Never enabled by normal
    /// scenarios.
    pub failpoint_aifsn_swap: bool,
}

/// An 802.11e access category, highest priority first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessCategory {
    /// Voice.
    Vo,
    /// Video.
    Vi,
    /// Best effort.
    Be,
    /// Background.
    Bk,
}

impl AccessCategory {
    /// All categories, highest priority first.
    pub const ALL: [AccessCategory; 4] = [
        AccessCategory::Vo,
        AccessCategory::Vi,
        AccessCategory::Be,
        AccessCategory::Bk,
    ];

    /// Queue index (0 = VO … 3 = BK).
    pub fn index(self) -> usize {
        match self {
            AccessCategory::Vo => 0,
            AccessCategory::Vi => 1,
            AccessCategory::Be => 2,
            AccessCategory::Bk => 3,
        }
    }

    /// Inverse of [`index`](Self::index).
    pub fn from_index(i: usize) -> Option<AccessCategory> {
        AccessCategory::ALL.get(i).copied()
    }

    /// Short label for metrics and reports.
    pub fn label(self) -> &'static str {
        match self {
            AccessCategory::Vo => "vo",
            AccessCategory::Vi => "vi",
            AccessCategory::Be => "be",
            AccessCategory::Bk => "bk",
        }
    }
}

/// The EDCA contention parameter set of one access category.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdcaParams {
    /// CWmin for this category.
    pub cw_min: u32,
    /// CWmax for this category.
    pub cw_max: u32,
    /// AIFSN (slots after SIFS before backoff counts down).
    pub aifsn: u8,
    /// TXOP limit in microseconds; 0 means a single-MPDU-equivalent
    /// "no TXOP" grant with no aggregate duration cap.
    pub txop_us: u64,
}

impl MacConfig {
    /// A sensible default configuration for the given standard.
    pub fn new(standard: PhyStandard) -> Self {
        MacConfig {
            standard,
            rts_threshold: usize::MAX,
            frag_threshold: usize::MAX,
            retry_limit_short: 7,
            retry_limit_long: 4,
            cs_threshold: Dbm(-82.0),
            capture: true,
            arf: true,
            arf_adaptive: false,
            queue_limit: 64,
            seed: 1,
            cw_min_override: None,
            cw_max_override: None,
            failpoint_retry_overrun: false,
            edca: false,
            ampdu_max_mpdus: 16,
            ampdu_max_bytes: 65_535,
            ampdu_per_mpdu_loss: 0.0,
            failpoint_aifsn_swap: false,
        }
    }

    /// The EDCA parameter set of an access category (802.11e defaults:
    /// VO/VI shrink the contention window and VO/VI get TXOP grants;
    /// BE/BK inherit the PHY's CW bounds, BK waits a longer AIFS).
    /// The AIFSN-swap failpoint trades the full VO and BK sets.
    pub fn edca_params(&self, ac: AccessCategory) -> EdcaParams {
        let ac = if self.failpoint_aifsn_swap {
            match ac {
                AccessCategory::Vo => AccessCategory::Bk,
                AccessCategory::Bk => AccessCategory::Vo,
                other => other,
            }
        } else {
            ac
        };
        match ac {
            AccessCategory::Vo => EdcaParams {
                cw_min: 3,
                cw_max: 7,
                aifsn: 2,
                txop_us: 1_504,
            },
            AccessCategory::Vi => EdcaParams {
                cw_min: 7,
                cw_max: 15,
                aifsn: 2,
                txop_us: 3_008,
            },
            AccessCategory::Be => EdcaParams {
                cw_min: self.cw_min(),
                cw_max: self.cw_max(),
                aifsn: 3,
                txop_us: 0,
            },
            AccessCategory::Bk => EdcaParams {
                cw_min: self.cw_min(),
                cw_max: self.cw_max(),
                aifsn: 7,
                txop_us: 0,
            },
        }
    }

    /// The effective CWmin after overrides.
    pub fn cw_min(&self) -> u32 {
        self.cw_min_override
            .unwrap_or(self.standard.mac_timing().cw_min)
    }

    /// The effective CWmax after overrides.
    pub fn cw_max(&self) -> u32 {
        self.cw_max_override
            .unwrap_or(self.standard.mac_timing().cw_max)
    }
}

/// Commands an [`UpperLayer`] issues back into the MAC.
#[derive(Debug)]
pub enum Command {
    /// Queue a frame for transmission (the MAC assigns sequence
    /// numbers and handles fragmentation, retries and rate control).
    SendFrame(Frame),
    /// Request an [`UpperLayer::on_timer`] callback after a delay.
    SetTimer {
        /// Delay from now.
        delay: SimDuration,
        /// Opaque tag returned in the callback.
        tag: u64,
    },
    /// Set the Power Management bit on subsequent frames (§4.2).
    SetPowerManagement(bool),
    /// Doze or wake the radio: a dozing station neither receives nor
    /// carrier-senses.
    SetAwake(bool),
    /// Switch to another channel (1–14 at 2.4 GHz); transmissions on
    /// other channels are neither heard nor interfering.
    SetChannel(u8),
    /// Deliver an [`UpperLayer::on_timer`] callback to *another*
    /// station after `delay` — the out-of-band signalling path of a
    /// wired distribution system (§3.1: "In nearly all commercial
    /// products, wired Ethernet is used as the backbone").
    SignalStation {
        /// Target station.
        station: StationId,
        /// Opaque tag delivered to the target.
        tag: u64,
        /// Wire latency.
        delay: SimDuration,
    },
    /// Record a typed trace event in the world's trace — the
    /// instrumentation path for upper layers (association, roaming,
    /// power save live in `wn-net80211`, above the MAC).
    Trace {
        /// Record importance.
        level: Level,
        /// The event payload.
        event: TraceEvent,
    },
}

/// Context handed to [`UpperLayer`] callbacks.
pub struct UpperCtx<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// This station's MAC address.
    pub addr: MacAddr,
    /// This station's id.
    pub id: StationId,
    commands: &'a mut Vec<Command>,
}

impl UpperCtx<'_> {
    /// Queues a frame for transmission.
    pub fn send(&mut self, frame: Frame) {
        self.commands.push(Command::SendFrame(frame));
    }

    /// Requests a timer callback.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.commands.push(Command::SetTimer { delay, tag });
    }

    /// Issues any other command.
    pub fn command(&mut self, cmd: Command) {
        self.commands.push(cmd);
    }

    /// Records a typed trace event attributed to this station.
    pub fn emit(&mut self, level: Level, event: TraceEvent) {
        self.commands.push(Command::Trace { level, event });
    }
}

/// The interface the architecture layer implements on top of the MAC.
///
/// `Send` is a supertrait so whole worlds can migrate onto shard
/// executor threads (DESIGN.md §15); uppers share state via
/// `Arc<Mutex<..>>` rather than `Rc<RefCell<..>>`.
pub trait UpperLayer: Send {
    /// Called once when the simulation boots.
    fn on_start(&mut self, ctx: &mut UpperCtx) {
        let _ = ctx;
    }

    /// A decoded, deduplicated frame addressed to this station (or
    /// broadcast), with its received signal strength. Control
    /// ACK/RTS/CTS are consumed by the MAC and not delivered; PS-Poll
    /// *is* delivered (the AP must react).
    fn on_frame(&mut self, ctx: &mut UpperCtx, frame: &Frame, rssi: Dbm) {
        let _ = (ctx, frame, rssi);
    }

    /// Final outcome of a queued frame: delivered (ACKed / broadcast
    /// sent) or dropped after the retry limit.
    fn on_tx_result(&mut self, ctx: &mut UpperCtx, frame: &Frame, success: bool) {
        let _ = (ctx, frame, success);
    }

    /// A timer requested via [`Command::SetTimer`] fired.
    fn on_timer(&mut self, ctx: &mut UpperCtx, tag: u64) {
        let _ = (ctx, tag);
    }
}

/// A do-nothing upper layer for raw-MAC experiments.
#[derive(Default)]
pub struct NullUpper;

impl UpperLayer for NullUpper {}

/// Per-station counters exposed to experiments.
#[derive(Clone, Debug, Default)]
pub struct StationStats {
    /// Data/management MSDUs queued.
    pub queued: u64,
    /// MSDUs dropped on queue overflow.
    pub queue_drops: u64,
    /// Frames put on the air (including control and retries).
    pub tx_frames: u64,
    /// Retransmissions.
    pub retries: u64,
    /// MSDUs abandoned at the retry limit.
    pub tx_failures: u64,
    /// MSDUs successfully completed (ACKed, or broadcast sent).
    pub tx_completions: u64,
    /// Frames decoded and accepted (addressed to us, not duplicate).
    pub rx_accepted: u64,
    /// Duplicates discarded.
    pub rx_duplicates: u64,
    /// Frames destroyed by collision/noise at this receiver.
    pub rx_errors: u64,
    /// Payload bytes delivered up the stack.
    pub rx_payload_bytes: u64,
    /// Microseconds this station spent transmitting (all frame kinds,
    /// retries included) — the airtime-fairness numerator.
    pub tx_airtime_us: u64,
    /// MAC access delay (µs) of each completed MSDU.
    pub access_delay_us: Summary,
}

/// One MSDU queued for transmission. The frame itself lives in the
/// world's [`FrameArena`]; a queue entry is two words.
struct Msdu {
    frame: FrameId,
    enqueued: SimTime,
}

/// The in-flight attempt for the head-of-line MSDU.
struct Attempt {
    msdu: Msdu,
    /// The full original MSDU body (taken from `msdu.frame` at queue
    /// time; restored into the completion callback's frame).
    body: Vec<u8>,
    /// Remaining fragment byte ranges of `body` (index 0 = next to
    /// send). Fragment bodies are sliced out at build time, so no
    /// per-fragment copies are held.
    frag_ranges: VecDeque<(usize, usize)>,
    frag_number: u8,
    short_retries: u32,
    long_retries: u32,
    use_rts: bool,
    cts_received: bool,
    rate: RateStep,
    is_retry: bool,
    /// The fully-built wire frame for the pending fragment (arena id,
    /// one reference held here), cached so retries of the same fragment
    /// do not re-clone header and body. Released and cleared whenever a
    /// field that feeds the build changes (fragment advance, retry-bit
    /// flip).
    built: Option<FrameId>,
}

/// What the station is currently waiting for after transmitting.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Expecting {
    Cts,
    Ack,
    BlockAck,
}

/// One MPDU riding (or waiting to re-ride) an A-MPDU aggregate.
struct AmpduMpdu {
    msdu: Msdu,
    seq: u16,
    retries: u32,
}

/// The in-flight A-MPDU attempt of one access category: the MPDUs not
/// yet block-acked, plus the cached aggregate wire frame.
struct AmpduFlight {
    mpdus: Vec<AmpduMpdu>,
    rate: RateStep,
    /// Starting sequence number — the first (lowest) MPDU's seq; the
    /// block-ack bitmap is relative to it.
    ssn: u16,
    /// Cached aggregate wire frame (one arena reference), rebuilt when
    /// the MPDU set changes (partial block ack trims it).
    built: Option<FrameId>,
}

/// One EDCA access category's transmit state.
#[derive(Default)]
struct AcState {
    queue: VecDeque<Msdu>,
    flight: Option<AmpduFlight>,
}

/// Per-station EDCA state, allocated only when [`MacConfig::edca`] is
/// on — legacy DCF worlds never touch (or pay for) any of it. Every
/// array is indexed by [`AccessCategory::index`]; `slots` and `cw` are
/// the station's four contention lanes (`access.rs`).
#[derive(Default)]
struct EdcaState {
    /// Per-AC queues and in-flight aggregates.
    acs: [AcState; 4],
    /// Remaining backoff slots per lane; `None` when not contending.
    slots: [Option<u32>; 4],
    /// Contention window per lane.
    cw: [u32; 4],
    /// Which AC's aggregate is on the air / awaiting its block ack.
    tx_ac: Option<usize>,
}

impl EdcaState {
    fn new(cfg: &MacConfig) -> Box<EdcaState> {
        let mut e = Box::<EdcaState>::default();
        for (i, cw) in e.cw.iter_mut().enumerate() {
            *cw = cfg
                .edca_params(AccessCategory::from_index(i).expect("4 ACs"))
                .cw_min;
        }
        e
    }
}

/// How an in-flight A-MPDU was answered.
enum BaResult {
    /// A block ack arrived with this SSN and bitmap.
    Ba(u16, u64),
    /// The block-ack timeout fired; nothing was acked.
    Timeout,
    /// Group-addressed aggregate: complete everything, no response.
    Broadcast,
}

/// A scheduled SIFS response (ACK/CTS) or follow-on fragment.
enum PendingTx {
    Control(Frame),
    NextFragment,
    DataAfterCts,
}

struct Station {
    addr: MacAddr,
    pos: Point,
    radio: Radio,
    power_mgmt: bool,
    upper: Option<Box<dyn UpperLayer>>,
    queue: VecDeque<Msdu>,
    current: Option<Attempt>,
    seq: SequenceCounter,
    dedup: DedupCache,
    arf: Arf,
    reassembly: HashMap<(MacAddr, u16), Vec<u8>>,
    pending: Option<(PendingTx, u64)>,
    stats: StationStats,
    /// EDCA/A-MPDU state; `None` on legacy DCF stations.
    edca: Option<Box<EdcaState>>,
}

/// Per-station DCF/carrier-sense state, flattened into parallel
/// vectors (struct-of-arrays), indexed by [`StationId`].
///
/// These are exactly the fields the per-event hot path touches for
/// stations *other* than the event's own — busy/idle edges, NAV
/// updates, audibility bookkeeping, contender re-arms. Packing each
/// field contiguously keeps those cross-station sweeps on a handful
/// of cache lines instead of striding across whole [`Station`]
/// structs (queues, dedup tables, reassembly maps, stats) hundreds of
/// bytes apart.
#[derive(Default)]
struct DcfState {
    /// Virtual carrier sense: the NAV reservation horizon.
    nav_until: Vec<SimTime>,
    /// In-flight transmissions this station can hear (physical CS).
    audible: Vec<AudibleSet>,
    /// The record id of this station's own in-flight transmission.
    transmitting: Vec<Option<u64>>,
    /// The legacy contention lane's remaining backoff slots; `None`
    /// when it is not contending (EDCA stations keep their four lanes
    /// in [`EdcaState`]).
    backoff_slots: Vec<Option<u32>>,
    /// When the currently-armed access timer started counting (one
    /// timer per station, over all of its lanes).
    access_armed_at: Vec<Option<SimTime>>,
    /// The legacy lane's contention window (doubles on retry, resets
    /// on completion).
    cw: Vec<u32>,
    /// Generation guard invalidating stale scheduled timers.
    timer_gen: Vec<u64>,
    /// The response (CTS/ACK) this station is waiting for, if any.
    expecting: Vec<Option<(Expecting, u64)>>,
    /// The channel the station's radio is tuned to.
    channel: Vec<u8>,
    /// Whether the radio is awake (power save puts it to sleep).
    awake: Vec<bool>,
}

impl DcfState {
    /// Appends one station's worth of initial state.
    fn push(&mut self, cw_min: u32) {
        self.nav_until.push(SimTime::ZERO);
        self.audible.push(AudibleSet::default());
        self.transmitting.push(None);
        self.backoff_slots.push(None);
        self.access_armed_at.push(None);
        self.cw.push(cw_min);
        self.timer_gen.push(0);
        self.expecting.push(None);
        self.channel.push(1);
        self.awake.push(true);
    }

    /// Pre-sizes every column for `additional` more stations.
    fn reserve(&mut self, additional: usize) {
        self.nav_until.reserve(additional);
        self.audible.reserve(additional);
        self.transmitting.reserve(additional);
        self.backoff_slots.reserve(additional);
        self.access_armed_at.reserve(additional);
        self.cw.reserve(additional);
        self.timer_gen.reserve(additional);
        self.expecting.reserve(additional);
        self.channel.reserve(additional);
        self.awake.reserve(additional);
    }
}

/// A transmission on the medium (possibly already finished, retained
/// briefly for interference bookkeeping).
struct TxRecord {
    id: u64,
    src: StationId,
    channel: u8,
    /// The wire frame (arena id; this record holds one reference) —
    /// shared with every successful receiver and with the sender's
    /// build cache instead of deep-cloned per reception.
    frame: FrameId,
    rate: RateStep,
    start: SimTime,
    end: SimTime,
    /// Received power per station (with the bit-exact linear-milliwatt
    /// mirror inside) — a start-time snapshot shared with the neighbor
    /// cache (copy-on-write: mobility after tx start patches the
    /// cache, not this row). Grid-backed rows answer −∞ for stations
    /// beyond the transmitter's cell neighborhood, which are below the
    /// carrier-sense floor by construction; interference sums fill
    /// those terms in on demand.
    rx_power: RxRow,
    /// Stations whose raw start-time power meets the CS threshold,
    /// ascending — the only ones busy/idle-edge delivery visits.
    candidates: Arc<Vec<StationId>>,
    done: bool,
}

/// Events driving the MAC world.
pub enum MacEvent {
    /// Deliver `UpperLayer::on_start` to every station.
    Boot,
    /// A transmission finished; receivers decide reception.
    TxEnd {
        /// Record id.
        tx_id: u64,
    },
    /// A contention lane's AIFS + backoff completed; its frame exchange
    /// takes the medium if the timer is still valid.
    AccessTimer {
        /// Station whose timer fired.
        station: StationId,
        /// Generation guard against stale timers.
        gen: u64,
    },
    /// CTS/ACK did not arrive in time.
    ResponseTimeout {
        /// Waiting station.
        station: StationId,
        /// Generation guard.
        gen: u64,
    },
    /// A SIFS-spaced response or burst continuation is due.
    SifsAction {
        /// Responding station.
        station: StationId,
        /// Generation guard.
        gen: u64,
    },
    /// The NAV reservation expired; re-evaluate channel access.
    NavExpired {
        /// Station whose NAV ended.
        station: StationId,
    },
    /// An upper-layer timer fired.
    UpperTimer {
        /// Target station.
        station: StationId,
        /// Opaque tag.
        tag: u64,
    },
    /// Move a station (mobility models schedule these).
    SetPosition {
        /// Target station.
        station: StationId,
        /// New position.
        pos: Point,
    },
    /// Inject an application frame into a station's queue. The frame
    /// was staged into the world's arena ([`WlanWorld::stage_frame`],
    /// or the [`inject_at`] one-call form); the event carries only its
    /// id, so scheduler entries stay a few words regardless of payload.
    Inject {
        /// Sending station.
        station: StationId,
        /// The staged frame to queue.
        frame: FrameId,
    },
    /// Inject a staged frame into a specific EDCA access-category
    /// queue. On a legacy (non-EDCA) station this degrades to a plain
    /// [`Inject`](Self::Inject).
    InjectQos {
        /// Sending station.
        station: StationId,
        /// The staged frame to queue.
        frame: FrameId,
        /// Target access category.
        ac: AccessCategory,
    },
    /// Deliver the failure confirmation for an MSDU dropped on queue
    /// overflow. Scheduled (at the drop instant) rather than called
    /// inline so an upper layer that reacts by sending again cannot
    /// recurse unboundedly through the MAC.
    TxDropped {
        /// Station whose queue overflowed.
        station: StationId,
        /// The dropped MSDU (arena id, parked on this event).
        frame: FrameId,
    },
}

/// The shared-medium world; drive it with [`wn_sim::Simulation`].
pub struct WlanWorld {
    cfg: MacConfig,
    /// Per-station ARF controllers clone this template — a refcount
    /// bump on the shared rate ladder instead of a rebuild per station.
    arf_template: Arf,
    budget: LinkBudget,
    loss: Box<dyn Fn(Point, Point, Hertz, SimTime) -> Db + Send>,
    stations: Vec<Station>,
    /// Per-station DCF state, flattened column-wise ([`DcfState`]).
    dcf: DcfState,
    records: Vec<TxRecord>,
    /// Every frame in flight anywhere in the MAC — queues, attempts,
    /// transmission records, parked injection events — addressed by
    /// copyable [`FrameId`]s instead of `Rc` pointers.
    frames: FrameArena,
    /// Arena references parked on scheduled `Inject`/`TxDropped`
    /// events (a term of the [`frame_ledger`](Self::frame_ledger)).
    staged: u64,
    /// Pairwise rx-power / audibility cache (built lazily at the first
    /// transmission unless the loss model is time-varying).
    neighbors: NeighborCache,
    /// What the loss closure may be assumed to be; decides whether and
    /// how propagation is memoized. Static isotropic for the built-in
    /// log-distance model, replaced by every `set_loss_model*` call.
    loss_contract: LossContract,
    /// The spatial hash grid backing the neighbor rows; alive exactly
    /// while the cache is built over grid neighborhoods (an isotropic
    /// loss model with a finite probed audible reach), kept in sync
    /// with station positions by [`set_position`](Self::set_position).
    grid: Option<SpatialGrid>,
    /// Reused scratch for grid neighborhood queries during mobility
    /// patches.
    hood_scratch: Vec<StationId>,
    /// Contender wait-list: stations with an armed backoff whose
    /// access timer is not running — the only ones an idle edge can
    /// affect.
    contenders: IdBitSet,
    /// Reused scratch for iterating `contenders` while re-arming.
    rearm_scratch: Vec<StationId>,
    /// Reused scratch for the half-duplex source bitset in
    /// [`handle_tx_end`](Self::handle_tx_end).
    txsrc_scratch: IdBitSet,
    /// Reused scratch for the column-wise interference accumulator in
    /// [`handle_tx_end`](Self::handle_tx_end).
    intf_scratch: Vec<f64>,
    /// Reused scratch for the receivers that decoded the completing
    /// frame in [`handle_tx_end`](Self::handle_tx_end).
    decoded_scratch: Vec<(StationId, Dbm)>,
    /// Reused scratch for the time-overlapping record indices in
    /// [`handle_tx_end`](Self::handle_tx_end).
    overlap_scratch: Vec<usize>,
    /// Reused scratch for upper-layer command batches in
    /// [`with_upper`](Self::with_upper).
    cmd_scratch: Vec<Command>,
    next_tx_id: u64,
    rng: Rng,
    /// Protocol trace for tests and debugging.
    pub trace: Trace,
    /// World-level access delay distribution (µs) over completions.
    access_delay_hist: Histogram,
    /// Per-access-category access-delay distributions (µs), recorded
    /// only by EDCA completions; all four stay empty on legacy worlds.
    ac_delay_hist: [Histogram; 4],
    /// MSDUs waiting in transmit queues across all stations.
    queue_gauge: TimeWeighted,
    sifs: SimDuration,
    difs: SimDuration,
    slot: SimDuration,
    /// AIFS per access category (failpoint swap already applied).
    edca_aifs: [SimDuration; 4],
    booted: bool,
}
impl WlanWorld {
    /// Creates a world with the default consumer radio and indoor
    /// log-distance propagation.
    pub fn new(cfg: MacConfig) -> Self {
        let std = cfg.standard;
        let budget = LinkBudget::for_standard(std, Radio::consumer_wifi());
        let model = LogDistance::indoor();
        let rng = Rng::new(cfg.seed);
        let arf_template = Arf::new(
            std,
            if cfg.arf_adaptive {
                ArfParams::aarf()
            } else {
                ArfParams::default()
            },
            cfg.arf,
        );
        WlanWorld {
            arf_template,
            budget,
            loss: Box::new(move |a, b, f, _t| model.loss(a.distance_to(b), f)),
            stations: Vec::new(),
            dcf: DcfState::default(),
            records: Vec::new(),
            frames: FrameArena::new(),
            staged: 0,
            neighbors: NeighborCache::new(),
            loss_contract: LossContract::StaticIsotropic,
            grid: None,
            hood_scratch: Vec::new(),
            contenders: IdBitSet::new(),
            rearm_scratch: Vec::new(),
            txsrc_scratch: IdBitSet::new(),
            intf_scratch: Vec::new(),
            decoded_scratch: Vec::new(),
            overlap_scratch: Vec::new(),
            cmd_scratch: Vec::new(),
            next_tx_id: 0,
            rng,
            trace: Trace::new(8192),
            access_delay_hist: Histogram::new(),
            ac_delay_hist: [
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
            ],
            queue_gauge: TimeWeighted::new(SimTime::ZERO, 0.0),
            sifs: crate::duration::sifs(std),
            difs: crate::duration::difs(std),
            slot: crate::duration::slot(std),
            edca_aifs: {
                let mut aifs = [SimDuration::ZERO; 4];
                for (i, a) in aifs.iter_mut().enumerate() {
                    let ac = AccessCategory::from_index(i).expect("4 ACs");
                    *a = crate::duration::aifs(std, cfg.edca_params(ac).aifsn);
                }
                aifs
            },
            booted: false,
            cfg,
        }
    }

    /// Replaces the propagation model (position- and time-aware; the
    /// time argument enables fading models). A time-varying loss
    /// cannot be memoized, so every transmission evaluates its row
    /// fresh; models that ignore the time argument should go through
    /// [`set_loss_model_static`](Self::set_loss_model_static) instead.
    pub fn set_loss_model(&mut self, loss: Box<dyn Fn(Point, Point, Hertz, SimTime) -> Db + Send>) {
        self.loss = loss;
        self.loss_contract = LossContract::TimeVarying;
        self.invalidate_neighbors();
    }

    /// Replaces the propagation model with one the caller guarantees
    /// ignores the time argument (any pure function of geometry), so
    /// the neighbor cache stays eligible. The model may still be
    /// anisotropic (walls, shadowing), so the audible-reach probe —
    /// and with it the spatial grid — is disabled; every cached row
    /// then covers the whole world.
    pub fn set_loss_model_static(
        &mut self,
        loss: Box<dyn Fn(Point, Point, Hertz, SimTime) -> Db + Send>,
    ) {
        self.loss = loss;
        self.loss_contract = LossContract::Static;
        self.invalidate_neighbors();
    }

    /// Replaces the propagation model with one the caller guarantees
    /// is a pure **monotone function of the pair's distance** (no time
    /// dependence, no geometry beyond `a.distance_to(b)`): the
    /// strongest contract, keeping both the neighbor cache and the
    /// spatial grid's radial reach probe sound.
    pub fn set_loss_model_static_isotropic(
        &mut self,
        loss: Box<dyn Fn(Point, Point, Hertz, SimTime) -> Db + Send>,
    ) {
        self.loss = loss;
        self.loss_contract = LossContract::StaticIsotropic;
        self.invalidate_neighbors();
    }

    /// Whether this world memoizes propagation (every loss model but a
    /// time-varying one).
    pub fn neighbor_cache_enabled(&self) -> bool {
        self.loss_contract != LossContract::TimeVarying
    }

    /// The propagation neighbor cache (empty until primed or first
    /// used). Exposed read-only so partition property tests can check
    /// shard assignments against the cached audible-neighbor lists.
    pub fn neighbor_cache(&self) -> &NeighborCache {
        &self.neighbors
    }

    /// Adds a station; returns its id. All stations must be added
    /// before the `Boot` event runs.
    pub fn add_station(
        &mut self,
        addr: MacAddr,
        pos: Point,
        upper: Box<dyn UpperLayer>,
    ) -> StationId {
        self.invalidate_neighbors(); // Stale matrix shape; rebuilt on first tx.
        self.push_station(addr, pos, upper)
    }

    /// Appends one station without touching the neighbor cache; the
    /// caller has already invalidated it (once per batch, not per
    /// station).
    fn push_station(&mut self, addr: MacAddr, pos: Point, upper: Box<dyn UpperLayer>) -> StationId {
        let id = self.stations.len();
        self.stations.push(Station {
            addr,
            pos,
            radio: Radio::consumer_wifi(),
            power_mgmt: false,
            upper: Some(upper),
            queue: VecDeque::new(),
            current: None,
            seq: SequenceCounter::default(),
            dedup: DedupCache::new(),
            arf: self.arf_template.clone(),
            reassembly: HashMap::new(),
            pending: None,
            stats: StationStats::default(),
            edca: self.cfg.edca.then(|| EdcaState::new(&self.cfg)),
        });
        self.dcf.push(self.cfg.cw_min());
        id
    }

    /// Pre-sizes the station table for `additional` more stations.
    pub fn reserve_stations(&mut self, additional: usize) {
        self.stations.reserve(additional);
        self.dcf.reserve(additional);
    }

    /// Bulk station boot fast path: adds `n` stations with the
    /// canonical `MacAddr::station(id)` addressing, positions from
    /// `pos(i)` and upper layers from `upper(i)`; returns their id
    /// range.
    ///
    /// One table reservation up front plus the shared-ladder ARF
    /// template make each added station allocation-free — the setup
    /// cost that dominates a 1000-station SCALE-DCF world otherwise.
    /// The neighbor cache and spatial grid are invalidated **once**
    /// for the whole batch and rebuilt lazily at the first
    /// transmission, so batched adds never pay per-station O(n·k)
    /// rebuild work.
    pub fn add_stations(
        &mut self,
        n: usize,
        mut pos: impl FnMut(usize) -> Point,
        mut upper: impl FnMut(usize) -> Box<dyn UpperLayer>,
    ) -> std::ops::Range<StationId> {
        let start = self.stations.len();
        self.reserve_stations(n);
        self.invalidate_neighbors();
        for i in 0..n {
            let id = start + i;
            self.push_station(MacAddr::station(id as u32), pos(i), upper(i));
        }
        start..self.stations.len()
    }

    /// Station id by MAC address.
    pub fn station_by_addr(&self, addr: MacAddr) -> Option<StationId> {
        self.stations.iter().position(|s| s.addr == addr)
    }

    /// A station's statistics.
    pub fn stats(&self, id: StationId) -> &StationStats {
        &self.stations[id].stats
    }

    /// A station's MAC address.
    pub fn addr(&self, id: StationId) -> MacAddr {
        self.stations[id].addr
    }

    /// A station's current position.
    pub fn position(&self, id: StationId) -> Point {
        self.stations[id].pos
    }

    /// Sets a station's radio parameters (before boot).
    pub fn set_radio(&mut self, id: StationId, radio: Radio) {
        self.stations[id].radio = radio;
        self.invalidate_neighbors();
    }

    /// Sets a station's channel directly (scenario setup).
    pub fn set_channel(&mut self, id: StationId, channel: u8) {
        self.dcf.channel[id] = channel;
    }

    /// Number of stations.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// The shared MAC configuration (the bounds invariant oracles
    /// check trace events against).
    pub fn config(&self) -> &MacConfig {
        &self.cfg
    }

    /// MSDUs accepted for `id` but not yet completed: queued plus the
    /// one currently being attempted. Together with [`StationStats`]
    /// this closes the frame-conservation ledger
    /// `queued == tx_completions + tx_failures + queue_drops + pending`.
    pub fn pending_msdus(&self, id: StationId) -> u64 {
        let s = &self.stations[id];
        let edca = s.edca.as_ref().map_or(0, |e| {
            e.acs
                .iter()
                .map(|a| {
                    a.queue.len() as u64 + a.flight.as_ref().map_or(0, |f| f.mpdus.len() as u64)
                })
                .sum::<u64>()
        });
        s.queue.len() as u64 + u64::from(s.current.is_some()) + edca
    }

    /// Stages a frame into the world's arena for a later
    /// [`MacEvent::Inject`] delivery; the returned id is what the
    /// event carries. Traffic generators and scenario set-up go
    /// through this (or the [`inject_at`] convenience wrapper) so a
    /// scheduler entry is a handful of words, not a full frame.
    pub fn stage_frame(&mut self, frame: Frame) -> FrameId {
        self.staged += 1;
        self.frames.insert(frame)
    }

    /// The frame arena (oracle/test hook).
    pub fn frame_arena(&self) -> &FrameArena {
        &self.frames
    }

    /// The frame-conservation ledger: total outstanding arena
    /// references on the left, the sum over every holder the MAC knows
    /// about on the right — references parked on scheduled
    /// `Inject`/`TxDropped` events, queued MSDUs, the in-progress
    /// attempt (its MSDU plus its cached wire frame) and transmission
    /// records. The fuzzer asserts the two sides stay equal between
    /// events; a leaked or double-released frame id shows up as drift.
    pub fn frame_ledger(&self) -> (u64, u64) {
        let held = self.staged
            + self
                .stations
                .iter()
                .map(|s| {
                    s.queue.len() as u64
                        + s.current
                            .as_ref()
                            .map_or(0, |at| 1 + u64::from(at.built.is_some()))
                        + s.edca.as_ref().map_or(0, |e| {
                            e.acs
                                .iter()
                                .map(|a| {
                                    a.queue.len() as u64
                                        + a.flight.as_ref().map_or(0, |f| {
                                            f.mpdus.len() as u64 + u64::from(f.built.is_some())
                                        })
                                })
                                .sum::<u64>()
                        })
                })
                .sum::<u64>()
            + self.records.len() as u64;
        (self.frames.total_refs(), held)
    }

    /// A quantile (e.g. 0.5, 0.99) of the world-level access-delay
    /// distribution, in microseconds; `None` before any completion.
    pub fn access_delay_quantile(&self, q: f64) -> Option<u64> {
        self.access_delay_hist.quantile(q)
    }

    /// A quantile of one access category's access-delay distribution
    /// (µs); `None` before any EDCA completion in that category.
    pub fn ac_delay_quantile(&self, ac: AccessCategory, q: f64) -> Option<u64> {
        self.ac_delay_hist[ac.index()].quantile(q)
    }

    /// Number of completions recorded in one access category's
    /// access-delay distribution (the sample count behind
    /// [`Self::ac_delay_quantile`]).
    pub fn ac_delay_samples(&self, ac: AccessCategory) -> u64 {
        self.ac_delay_hist[ac.index()].count()
    }

    /// Microseconds station `id` has spent transmitting.
    pub fn station_airtime_us(&self, id: StationId) -> u64 {
        self.stations[id].stats.tx_airtime_us
    }

    /// Aggregate delivered payload bytes across all stations.
    pub fn total_delivered_bytes(&self) -> u64 {
        self.stations.iter().map(|s| s.stats.rx_payload_bytes).sum()
    }

    /// Exports the MAC's per-station counters and the world-level
    /// instruments into a named registry and snapshots it at `now`.
    ///
    /// Hot-path accounting stays in plain [`StationStats`] fields; this
    /// names them (`layer="mac"`) only when a snapshot is requested.
    pub fn metrics_snapshot(&self, now: SimTime) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        for (id, s) in self.stations.iter().enumerate() {
            let sid = Some(id as u32);
            reg.counter("mac", "queued", sid).add(s.stats.queued);
            reg.counter("mac", "queue_drops", sid)
                .add(s.stats.queue_drops);
            reg.counter("mac", "tx_frames", sid).add(s.stats.tx_frames);
            reg.counter("mac", "retries", sid).add(s.stats.retries);
            reg.counter("mac", "tx_failures", sid)
                .add(s.stats.tx_failures);
            reg.counter("mac", "tx_completions", sid)
                .add(s.stats.tx_completions);
            reg.counter("mac", "rx_accepted", sid)
                .add(s.stats.rx_accepted);
            reg.counter("mac", "rx_duplicates", sid)
                .add(s.stats.rx_duplicates);
            reg.counter("mac", "rx_errors", sid).add(s.stats.rx_errors);
            reg.counter("mac", "rx_payload_bytes", sid)
                .add(s.stats.rx_payload_bytes);
            *reg.summary("mac", "access_delay_us", sid) = s.stats.access_delay_us.clone();
        }
        *reg.histogram("mac", "access_delay_us_hist", None) = self.access_delay_hist.clone();
        *reg.gauge("mac", "queued_msdus", None, SimTime::ZERO, 0.0) = self.queue_gauge.clone();
        if self.cfg.edca {
            // QoS observables exist only on EDCA worlds, so a legacy
            // world's snapshot (and its digest) is untouched.
            const AC_HIST: [&str; 4] = [
                "access_delay_us_ac_vo",
                "access_delay_us_ac_vi",
                "access_delay_us_ac_be",
                "access_delay_us_ac_bk",
            ];
            for (name, hist) in AC_HIST.iter().zip(self.ac_delay_hist.iter()) {
                *reg.histogram("mac", name, None) = hist.clone();
            }
            for (id, s) in self.stations.iter().enumerate() {
                reg.counter("mac", "tx_airtime_us", Some(id as u32))
                    .add(s.stats.tx_airtime_us);
            }
        }
        reg.snapshot(now)
    }

    fn with_upper<F>(&mut self, id: StationId, now: SimTime, sched: &mut Scheduler<MacEvent>, f: F)
    where
        F: FnOnce(&mut dyn UpperLayer, &mut UpperCtx),
    {
        let Some(mut upper) = self.stations[id].upper.take() else {
            return;
        };
        // Reused batch buffer; `mem::take` leaves an empty Vec behind,
        // so a nested `with_upper` downstream of `apply_command` simply
        // allocates its own batch instead of aliasing this one.
        let mut commands = std::mem::take(&mut self.cmd_scratch);
        {
            let mut ctx = UpperCtx {
                now,
                addr: self.stations[id].addr,
                id,
                commands: &mut commands,
            };
            f(upper.as_mut(), &mut ctx);
        }
        self.stations[id].upper = Some(upper);
        for cmd in commands.drain(..) {
            self.apply_command(id, now, sched, cmd);
        }
        self.cmd_scratch = commands;
    }

    fn apply_command(
        &mut self,
        id: StationId,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
        cmd: Command,
    ) {
        match cmd {
            Command::SendFrame(frame) => self.enqueue(id, frame, now, sched),
            Command::SetTimer { delay, tag } => {
                sched.schedule_in(delay, MacEvent::UpperTimer { station: id, tag });
            }
            Command::SetPowerManagement(on) => self.stations[id].power_mgmt = on,
            Command::SetAwake(awake) => {
                let was = self.dcf.awake[id];
                self.dcf.awake[id] = awake;
                if !awake {
                    // A dozing radio hears nothing.
                    self.dcf.audible[id].clear();
                } else if !was {
                    // Waking mid-frame: re-hear what is still in the
                    // air from the records' start-time power snapshots.
                    // Without this the medium looks spuriously idle and
                    // the station can arm backoff (and collide) under
                    // an ongoing audible transmission.
                    let channel = self.dcf.channel[id];
                    let mut heard_any = false;
                    for i in 0..self.records.len() {
                        let rec = &self.records[i];
                        if rec.done || rec.src == id {
                            continue;
                        }
                        let ov = Self::channel_overlap(rec.channel, channel);
                        let heard = Self::leaked_power(rec.rx_power.get(id), ov)
                            .map(|p| self.audible_at(p))
                            .unwrap_or(false);
                        if heard {
                            let tx_id = rec.id;
                            self.dcf.audible[id].insert(tx_id);
                            heard_any = true;
                        }
                    }
                    if heard_any {
                        self.freeze_access(id, now);
                    }
                }
            }
            Command::SetChannel(ch) => {
                self.dcf.channel[id] = ch;
                self.dcf.audible[id].clear();
                self.dcf.nav_until[id] = now;
            }
            Command::SignalStation {
                station,
                tag,
                delay,
            } => {
                sched.schedule_in(delay, MacEvent::UpperTimer { station, tag });
            }
            Command::Trace { level, event } => self.trace.event(now, level, "net", event),
        }
    }

    /// Queues a frame for transmission from `id`.
    pub fn enqueue(
        &mut self,
        id: StationId,
        frame: Frame,
        now: SimTime,
        sched: &mut Scheduler<MacEvent>,
    ) {
        let fid = self.frames.insert(frame);
        self.enqueue_id(id, fid, AccessCategory::Be, now, sched);
    }
}

impl World for WlanWorld {
    type Event = MacEvent;

    fn handle(&mut self, now: SimTime, event: MacEvent, sched: &mut Scheduler<MacEvent>) {
        match event {
            MacEvent::Boot => {
                if !self.booted {
                    self.booted = true;
                    for id in 0..self.stations.len() {
                        self.with_upper(id, now, sched, |u, ctx| u.on_start(ctx));
                    }
                }
            }
            MacEvent::TxEnd { tx_id } => self.handle_tx_end(tx_id, now, sched),
            MacEvent::AccessTimer { station, gen } => {
                if self.dcf.timer_gen[station] == gen {
                    self.access_fire(station, now, sched);
                }
            }
            MacEvent::ResponseTimeout { station, gen } => {
                self.handle_response_timeout(station, gen, now, sched);
            }
            MacEvent::SifsAction { station, gen } => {
                self.handle_sifs_action(station, gen, now, sched);
            }
            MacEvent::NavExpired { station } => {
                if self.medium_idle(station, now) {
                    self.try_arm_access(station, now, sched);
                }
            }
            MacEvent::UpperTimer { station, tag } => {
                self.with_upper(station, now, sched, |u, ctx| u.on_timer(ctx, tag));
            }
            MacEvent::SetPosition { station, pos } => {
                self.set_position(station, pos, now);
            }
            MacEvent::Inject { station, frame } => {
                self.staged -= 1;
                self.enqueue_id(station, frame, AccessCategory::Be, now, sched);
            }
            MacEvent::InjectQos { station, frame, ac } => {
                self.staged -= 1;
                self.enqueue_id(station, frame, ac, now, sched);
            }
            MacEvent::TxDropped { station, frame } => {
                self.staged -= 1;
                let frame = self.frames.remove(frame);
                self.with_upper(station, now, sched, |u, ctx| {
                    u.on_tx_result(ctx, &frame, false)
                });
            }
        }
    }
}

/// Schedules the boot event; call once after building the world.
pub fn boot(sim: &mut wn_sim::Simulation<WlanWorld>) {
    sim.scheduler_mut()
        .schedule_at(SimTime::ZERO, MacEvent::Boot);
}

/// Stages `frame` into the world's arena and schedules its injection
/// into `station`'s transmit queue at `at` — the one-call form of
/// [`WlanWorld::stage_frame`] plus a [`MacEvent::Inject`], used by
/// traffic generators and scenario set-up.
pub fn inject_at(
    sim: &mut wn_sim::Simulation<WlanWorld>,
    at: SimTime,
    station: StationId,
    frame: Frame,
) {
    let frame = sim.world_mut().stage_frame(frame);
    sim.scheduler_mut()
        .schedule_at(at, MacEvent::Inject { station, frame });
}

/// [`inject_at`] with an explicit access category: the frame lands in
/// that AC's EDCA queue (AC_BE when the station is not QoS-enabled).
pub fn qos_inject_at(
    sim: &mut wn_sim::Simulation<WlanWorld>,
    at: SimTime,
    station: StationId,
    frame: Frame,
    ac: AccessCategory,
) {
    let frame = sim.world_mut().stage_frame(frame);
    sim.scheduler_mut()
        .schedule_at(at, MacEvent::InjectQos { station, frame, ac });
}

#[cfg(test)]
mod tests;
